// Latency histogram with percentile queries.
//
// Log-bucketed (HDR-style) recorder: values are grouped into buckets whose
// width grows geometrically, giving ~1% relative error across nine decades
// while using a few KB. This is the simulator's one latency summary: per-tier
// residence and client response-time tails, where the interesting statistics
// are p95/p98/p99-style quantiles. Two histograms merge exactly by adding
// buckets, so sweep cells combine into the distribution of the whole sweep.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one value (negative values are clamped to zero). Defined
  /// inline: tiers and clients record on every completion, and the bucket
  /// update is a handful of instructions once the call overhead is gone.
  void record(SimTime value) { record_n(value, 1); }
  /// Records one value `count` times.
  void record_n(SimTime value, std::int64_t count) {
    MEMCA_CHECK_MSG(count >= 0, "cannot record a negative count");
    if (count == 0) return;
    if (value < 0) value = 0;
    const std::size_t idx = bucket_index(value);
    buckets_[idx] += count;
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    count_ += count;
    sum_ += static_cast<double>(value) * static_cast<double>(count);
  }

  /// Number of recorded values.
  std::int64_t count() const { return count_; }
  /// True if nothing has been recorded.
  bool empty() const { return count_ == 0; }

  /// Value at quantile q in [0, 1]; returns 0 on an empty histogram.
  /// The result is the upper edge of the bucket containing the quantile,
  /// so `quantile(1.0) >= max recorded value` within bucket resolution.
  SimTime quantile(double q) const;

  /// Arithmetic mean of recorded values (exact: running sum / count).
  double mean() const;
  /// Largest recorded value (exact).
  SimTime max() const { return max_; }
  /// Smallest recorded value (exact).
  SimTime min() const { return empty() ? 0 : min_; }

  /// Merges another histogram into this one.
  void merge(const LatencyHistogram& other);
  /// Clears all recorded values.
  void reset();

 private:
  // Sub-buckets per power-of-two decade: 2^6 = 64 gives ~1.6% worst-case
  // relative bucket width, ample for percentile reporting.
  static constexpr int kSubBucketBits = 6;
  static constexpr std::int64_t kSubBuckets = std::int64_t{1} << kSubBucketBits;
  // Values up to 2^40 us (~12.7 days) are representable before clamping.
  static constexpr int kMaxExponent = 40;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExponent + 1) * static_cast<std::size_t>(kSubBuckets);

  static std::size_t bucket_index(SimTime value) {
    if (value < 0) value = 0;
    const auto v = static_cast<std::uint64_t>(value);
    if (v < static_cast<std::uint64_t>(kSubBuckets)) {
      return static_cast<std::size_t>(v);
    }
    // Indices [0, kSubBuckets) store exact small values; decade d >= 0
    // (bucket width 2^d) covers [kSubBuckets << d, kSubBuckets << (d+1)) at
    // indices [kSubBuckets + d*kSubBuckets, kSubBuckets + (d+1)*kSubBuckets).
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;  // == decade
    const auto sub = static_cast<std::int64_t>(v >> shift) - kSubBuckets;  // in [0, kSubBuckets)
    std::size_t idx = static_cast<std::size_t>(kSubBuckets) +
                      static_cast<std::size_t>(shift) * kSubBuckets +
                      static_cast<std::size_t>(sub);
    if (idx >= kNumBuckets) idx = kNumBuckets - 1;
    return idx;
  }
  static SimTime bucket_upper(std::size_t index);

  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  SimTime min_ = 0;
  SimTime max_ = 0;
  double sum_ = 0.0;
};

}  // namespace memca
