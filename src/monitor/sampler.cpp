#include "monitor/sampler.h"

#include <algorithm>

#include "common/check.h"

namespace memca::monitor {

double UtilizationWindow::close(double integral, int capacity, SimTime period) {
  const double delta = integral - last_;
  last_ = integral;
  const double denom = static_cast<double>(capacity) * static_cast<double>(period);
  return std::clamp(delta / denom, 0.0, 1.0);
}

TierSampler::TierSampler(const queueing::NTierSystem& system, SimTime period)
    : system_(system), period_(period) {
  MEMCA_CHECK_MSG(system_.num_tiers() <= kSampleFrameMaxTiers,
                  "sample frames carry at most kSampleFrameMaxTiers tiers");
  MEMCA_CHECK_MSG(period_ > 0, "sampling period must be positive");
}

void TierSampler::arm() {
  for (std::size_t i = 0; i < system_.num_tiers(); ++i) {
    const queueing::TierServer& tier = system_.tier(i);
    busy_[i].reset(tier.busy_worker_time_us());
    rejected_[i] = tier.rejected();
  }
}

void TierSampler::read(SampleFrame& frame) {
  for (std::size_t i = 0; i < system_.num_tiers(); ++i) {
    const queueing::TierServer& tier = system_.tier(i);
    frame.depth[i] = tier.resident();
    frame.utilization[i] = busy_[i].close(tier.busy_worker_time_us(), tier.workers(), period_);
    const std::int64_t rejected = tier.rejected();
    frame.rejected[i] = rejected - rejected_[i];
    rejected_[i] = rejected;
  }
}

}  // namespace memca::monitor
