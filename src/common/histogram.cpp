#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace memca {

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

SimTime LatencyHistogram::bucket_upper(std::size_t index) {
  if (index < static_cast<std::size_t>(kSubBuckets)) {
    return static_cast<SimTime>(index);
  }
  const std::size_t rel = index - kSubBuckets;
  const int decade = static_cast<int>(rel / kSubBuckets);
  const std::int64_t sub = static_cast<std::int64_t>(rel % kSubBuckets);
  const int shift = decade;  // matches bucket_index: shift = msb - kSubBucketBits, decade = shift + 1 - 1
  const std::int64_t base = (kSubBuckets + sub) << shift;
  const std::int64_t width = std::int64_t{1} << shift;
  return base + width - 1;
}

SimTime LatencyHistogram::quantile(double q) const {
  MEMCA_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (empty()) return 0;
  const auto target = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_)));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::min(bucket_upper(i), max_);
    }
    if (seen >= target) {
      // target fell on an empty bucket boundary; keep scanning to next
      // populated bucket.
      for (std::size_t j = i + 1; j < buckets_.size(); ++j) {
        if (buckets_[j] > 0) return std::min(bucket_upper(j), max_);
      }
    }
  }
  return max_;
}

double LatencyHistogram::mean() const {
  if (empty()) return 0.0;
  return sum_ / static_cast<double>(count_);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  MEMCA_CHECK(buckets_.size() == other.buckets_.size());
  if (other.empty()) return;
  if (empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
}

}  // namespace memca
