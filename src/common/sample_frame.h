// One tick of the sampling plane: every signal the fine-grained monitors,
// the metrics registry and the flight recorder observe, read once at one
// instant.
//
// The paper's stealth result (Fig. 10) rests on a single 50 ms monitor;
// averaging its series up to 1 s and 1 min is what hides the
// millibottlenecks. The testbed therefore samples the system exactly once
// per tick into a SampleFrame and hands that one frame to every consumer,
// so the monitor series, the registry scrape and the flight-recorder
// timeline can never disagree about what the system looked like.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace memca {

/// Tiers a frame carries; the testbed has 3, one spare for ablations.
inline constexpr std::size_t kSampleFrameMaxTiers = 4;

struct SampleFrame {
  /// Tick instant: the close of the window the per-window fields cover.
  SimTime now = 0;
  /// Queue depth (waiting + blocked-on-downstream) per tier at `now`.
  std::array<int, kSampleFrameMaxTiers> depth{};
  /// Average worker utilization per tier over the window, in [0, 1].
  std::array<double, kSampleFrameMaxTiers> utilization{};
  /// Requests each tier rejected during the window.
  std::array<std::int64_t, kSampleFrameMaxTiers> rejected{};
  /// Capacity multiplier D(t) of the target tier at `now`.
  double capacity = 1.0;
  /// Client retransmissions scheduled but not yet fired at `now`.
  int rto_backlog = 0;
};

}  // namespace memca
