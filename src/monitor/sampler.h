// Per-tier arithmetic of the sampling plane.
//
// The testbed samples the system once per tick (see common/sample_frame.h).
// TierSampler is the per-tier part of that read, kept apart from the clock
// that drives it so its arithmetic stays unit-testable:
//  * queue depth is an instantaneous gauge — what `sar -q`-style tools
//    report;
//  * utilization differences each tier's busy-time integral over the
//    window and normalises by capacity (UtilizationWindow), yielding the
//    exact average over the window — what /proc/stat-based CPU monitors
//    report. Averaging the same 50 ms windows up to 1 s or 1 min is how the
//    paper's Fig. 10 shows the millibottlenecks disappearing from coarse
//    monitoring;
//  * rejections are a cumulative counter differenced into per-window drops.
#pragma once

#include <array>
#include <cstdint>

#include "common/sample_frame.h"
#include "common/time.h"
#include "queueing/ntier.h"

namespace memca::monitor {

/// Windowed utilization of a monotonically non-decreasing busy-time
/// integral (resource-microseconds).
class UtilizationWindow {
 public:
  /// Starts the next window at `integral`.
  void reset(double integral) { last_ = integral; }

  /// Closes the window at `integral`: returns the integral's delta over
  /// (capacity × period), clamped to [0, 1], and starts the next window
  /// there. `capacity` is read per window because elastic scale-out changes
  /// a tier's worker count mid-run.
  double close(double integral, int capacity, SimTime period);

 private:
  double last_ = 0.0;
};

class TierSampler {
 public:
  /// Samples every tier of `system` (at most kSampleFrameMaxTiers) over
  /// windows of `period`.
  TierSampler(const queueing::NTierSystem& system, SimTime period);

  /// Starts the first window now: re-bases every differencing cursor on the
  /// tiers' current busy integral and rejected count.
  void arm();

  /// Closes the current window: fills `frame.depth`, `frame.utilization`
  /// and `frame.rejected` for every tier and starts the next window.
  void read(SampleFrame& frame);

  /// Checkpoint: the differencing cursors are the whole state.
  struct Snapshot {
    std::array<UtilizationWindow, kSampleFrameMaxTiers> busy{};
    std::array<std::int64_t, kSampleFrameMaxTiers> rejected{};
  };
  void capture(Snapshot& out) const {
    out.busy = busy_;
    out.rejected = rejected_;
  }
  void restore(const Snapshot& snap) {
    busy_ = snap.busy;
    rejected_ = snap.rejected;
  }

 private:
  const queueing::NTierSystem& system_;
  SimTime period_;
  std::array<UtilizationWindow, kSampleFrameMaxTiers> busy_{};
  std::array<std::int64_t, kSampleFrameMaxTiers> rejected_{};
};

}  // namespace memca::monitor
