// Append-only time series with resampling.
//
// Stores (time, value) samples in time order and supports the resampling
// operations the monitoring substrate needs: bucketed mean/max at a coarser
// granularity (what a CloudWatch-style monitor would see) and windowed
// statistics. Values are doubles; time is SimTime.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.h"

namespace memca {

struct Sample {
  SimTime time = 0;
  double value = 0.0;
};

class TimeSeries {
 public:
  TimeSeries() = default;

  /// Appends a sample; time must be >= the last appended time.
  void append(SimTime time, double value);

  /// Pre-sizes the backing store for `n` samples (recording hot paths
  /// reserve up front so warm-up appends don't reallocate).
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Drops every sample past the first `n` (no-op if there are fewer).
  /// Capacity is retained: a series is append-only, so rolling back to an
  /// earlier checkpoint is exactly a truncation, and it must not allocate.
  void truncate(std::size_t n) {
    if (n < samples_.size()) samples_.resize(n);
  }

  /// Checkpoint: a series is append-only, so its length is its whole
  /// state and restore is a truncation.
  struct Snapshot {
    std::size_t size = 0;
  };
  void capture(Snapshot& out) const { out.size = samples_.size(); }
  void restore(const Snapshot& snap) { truncate(snap.size); }

  const std::vector<Sample>& samples() const& { return samples_; }
  /// Rvalue overload returns by value so `resample_mean(...).samples()` in a
  /// range-for binds a lifetime-extended temporary instead of dangling.
  std::vector<Sample> samples() && { return std::move(samples_); }
  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }
  Sample front() const;
  Sample back() const;

  /// Mean of all sample values (0 if empty).
  double mean() const;
  /// Max of all sample values (0 if empty).
  double max() const;
  /// Mean of samples with time in [start, end).
  double mean_in(SimTime start, SimTime end) const;
  /// Max of samples with time in [start, end); 0 if none.
  double max_in(SimTime start, SimTime end) const;
  /// Number of samples with value strictly above `threshold`.
  std::size_t count_above(double threshold) const;

  /// Re-buckets into fixed-width windows of `granularity`, averaging the
  /// samples that fall into each window. The output sample time is the
  /// window start. Windows with no samples are skipped.
  TimeSeries resample_mean(SimTime granularity) const;
  /// Same, keeping the max per window.
  TimeSeries resample_max(SimTime granularity) const;

  /// Aligned union of this and `other`: samples at equal timestamps are
  /// summed into one sample, the rest interleave in time order. Both inputs
  /// must be time-ordered (the append invariant). This is the series half of
  /// the sweep-cell registry merge: per-cell series share a timebase, so the
  /// merged series is bit-identical no matter how cells were scheduled.
  TimeSeries merge_sum(const TimeSeries& other) const;

  /// Lag-k autocorrelation of the sample values (ignores timestamps); the
  /// periodicity detector uses this on uniformly-sampled series.
  /// Returns 0 for degenerate series (fewer than k+2 samples, zero variance).
  double autocorrelation(std::size_t lag) const;

 private:
  template <typename Reduce>
  TimeSeries resample(SimTime granularity, Reduce reduce) const;

  std::vector<Sample> samples_;
};

}  // namespace memca
