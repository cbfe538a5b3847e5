// The sampling plane's per-tier arithmetic: windowed utilization of a
// busy-time integral (UtilizationWindow) and the per-tier read into a
// SampleFrame (TierSampler).
#include "monitor/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/timeseries.h"
#include "queueing/test_util.h"
#include "sim/simulator.h"

namespace memca::monitor {
namespace {

/// Closes `windows` consecutive windows of `period` over the synthetic
/// integral `busy_us(t)`, the first one starting at t = 0, and returns the
/// utilization series stamped at each window start.
TimeSeries sample_windows(const std::function<double(SimTime)>& busy_us, int capacity,
                          SimTime period, int windows) {
  UtilizationWindow window;
  window.reset(busy_us(0));
  TimeSeries series;
  for (int k = 1; k <= windows; ++k) {
    const SimTime end = k * period;
    series.append(end - period, window.close(busy_us(end), capacity, period));
  }
  return series;
}

TEST(UtilizationWindow, ComputesWindowAverages) {
  // 1 resource busy from t=0 to t=50ms, then idle.
  auto busy = [](SimTime t) { return static_cast<double>(std::min(t, msec(50))); };
  const TimeSeries series = sample_windows(busy, 1, msec(100), 3);
  const auto& s = series.samples();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0].value, 0.5, 1e-9);  // busy half of [0, 100ms)
  EXPECT_NEAR(s[1].value, 0.0, 1e-9);
  EXPECT_NEAR(s[2].value, 0.0, 1e-9);
}

TEST(UtilizationWindow, MultiWorkerNormalisation) {
  // 2 workers, both busy the whole time: integral = 2 * t.
  auto busy = [](SimTime t) { return 2.0 * static_cast<double>(t); };
  for (const Sample& s : sample_windows(busy, 2, msec(100), 2).samples()) {
    EXPECT_NEAR(s.value, 1.0, 1e-9);
  }
}

TEST(UtilizationWindow, ClampsToOne) {
  auto busy = [](SimTime t) { return 5.0 * static_cast<double>(t); };
  for (const Sample& s : sample_windows(busy, 1, msec(100), 2).samples()) {
    EXPECT_DOUBLE_EQ(s.value, 1.0);
  }
}

TEST(UtilizationWindow, FineAndCoarseAgreeOnAverage) {
  // The core sampling-theory fact the paper's stealthiness rests on: mean
  // utilization is granularity-invariant, peaks are not.
  // ON-OFF busy signal: busy 100 ms out of every 1 s.
  auto busy = [](SimTime t) {
    const SimTime full = (t / kSecond) * msec(100);
    const SimTime partial = std::min(t % kSecond, msec(100));
    return static_cast<double>(full + partial);
  };
  const TimeSeries fine = sample_windows(busy, 1, msec(50), 200);
  const TimeSeries coarse = sample_windows(busy, 1, sec(std::int64_t{1}), 10);
  EXPECT_NEAR(fine.mean(), 0.1, 0.01);
  EXPECT_NEAR(coarse.mean(), 0.1, 0.01);
  EXPECT_NEAR(fine.max(), 1.0, 1e-9);
  EXPECT_NEAR(coarse.max(), 0.1, 1e-9);
}

TEST(TierSampler, ReadsDepthUtilizationAndRejectedDeltaPerWindow) {
  // One tier, 2 threads, 1 worker: of three 100 ms requests sent at t=0 the
  // third is rejected, the first is served over [0, 100ms) and the second
  // over [100, 200ms).
  Simulator sim;
  queueing::NTierSystem system(sim, {{"solo", 2, 1}});
  TierSampler sampler(system, msec(150));
  sampler.arm();
  for (queueing::Request::Id id = 1; id <= 3; ++id) {
    system.submit(queueing::test::make_request(system.pool(), id, {100000.0}));
  }
  SampleFrame frame;

  sim.run_until(msec(150));
  sampler.read(frame);
  EXPECT_EQ(frame.depth[0], 1);
  EXPECT_DOUBLE_EQ(frame.utilization[0], 1.0);
  EXPECT_EQ(frame.rejected[0], 1);

  // Busy 50 ms of the [150, 300ms) window; nothing rejected in it. A
  // checkpoint of the cursors taken at 150 ms replays that same window.
  TierSampler::Snapshot snap;
  sampler.capture(snap);
  sim.run_until(msec(300));
  for (int replay = 0; replay < 2; ++replay) {
    sampler.read(frame);
    EXPECT_EQ(frame.depth[0], 0);
    EXPECT_NEAR(frame.utilization[0], 1.0 / 3.0, 1e-9) << "replay " << replay;
    EXPECT_EQ(frame.rejected[0], 0);
    sampler.restore(snap);
  }
}

}  // namespace
}  // namespace memca::monitor
