#include "monitor/cusum.h"

#include <algorithm>

#include "common/check.h"

namespace memca::monitor {

OnlineCusum::OnlineCusum(CusumConfig config) : config_(config) {
  MEMCA_CHECK_MSG(config_.baseline_samples >= 2, "need at least two baseline samples");
  MEMCA_CHECK_MSG(config_.threshold > 0.0, "threshold must be positive");
}

bool OnlineCusum::update(double value) {
  ++seen_;
  if (seen_ <= config_.baseline_samples) {
    baseline_sum_ += value;
    baseline_ = baseline_sum_ / static_cast<double>(seen_);
    return false;
  }
  statistic_ = std::max(0.0, statistic_ + value - baseline_ - config_.allowance);
  peak_statistic_ = std::max(peak_statistic_, statistic_);
  if (!alarmed_ && statistic_ > config_.threshold) {
    alarmed_ = true;
    return true;
  }
  return alarmed_;
}

void OnlineCusum::reset() {
  seen_ = 0;
  baseline_sum_ = 0.0;
  baseline_ = 0.0;
  statistic_ = 0.0;
  peak_statistic_ = 0.0;
  alarmed_ = false;
}

CusumDetection detect_cusum(const TimeSeries& series, const CusumConfig& config) {
  OnlineCusum cusum(config);
  CusumDetection result;
  const auto& samples = series.samples();
  if (samples.size() <= config.baseline_samples) return result;
  for (const auto& sample : samples) {
    const bool was_alarmed = cusum.alarmed();
    if (cusum.update(sample.value) && !was_alarmed) {
      result.detected = true;
      result.alarm_time = sample.time;
    }
  }
  result.peak_statistic = cusum.peak_statistic();
  result.baseline_mean = cusum.baseline();
  return result;
}

}  // namespace memca::monitor
