// The testbed's sampling plane: one periodic tick reads every signal once
// and feeds the target-CPU and per-tier queue series, the metrics-registry
// scrape and the flight-recorder timeline, so the three agree tick for tick
// and observability adds no events of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "metrics/names.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

std::unique_ptr<core::MemcaAttack> start_attack(RubbosTestbed& bed) {
  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  auto attack = bed.make_attack(memca);
  attack->start();
  return attack;
}

TEST(SamplingPlane, OneTickFeedsSeriesRegistryAndTimeline) {
  TestbedConfig config;
  config.metrics = true;
  config.flightrec = true;
  RubbosTestbed bed(config);
  bed.start();
  auto attack = start_attack(bed);
  // 10 s = 200 ticks: inside the timeline's 256-frame ring, so every frame
  // is still retained for the tick-by-tick comparison.
  bed.sim().run_for(sec(std::int64_t{10}));

  const SimTime period = config.metrics_resolution;
  const std::size_t ticks = 200;
  const metrics::Registry& registry = *bed.registry();
  const flightrec::Timeline& timeline = bed.flight()->timeline();
  // 20 per simulated second on every consumer.
  EXPECT_EQ(registry.scrapes(), static_cast<std::int64_t>(ticks));
  ASSERT_EQ(bed.target_cpu().size(), ticks);
  EXPECT_EQ(timeline.total(), ticks);
  ASSERT_EQ(timeline.size(), ticks);

  const TimeSeries* capacity = registry.series(metrics::names::kCapacityMultiplier);
  ASSERT_NE(capacity, nullptr);
  ASSERT_EQ(capacity->size(), ticks);
  std::int64_t drops_seen = 0;
  for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
    const queueing::TierServer& tier = bed.system().tier(i);
    const metrics::Labels label = {{"tier", tier.name()}};
    const TimeSeries* queue = registry.series(metrics::names::kTierQueueLength, label);
    const TimeSeries* util = registry.series(metrics::names::kTierUtilization, label);
    ASSERT_NE(queue, nullptr) << tier.name();
    ASSERT_NE(util, nullptr) << tier.name();
    ASSERT_EQ(queue->size(), ticks) << tier.name();
    ASSERT_EQ(util->size(), ticks) << tier.name();
    const TimeSeries& gauge = bed.queue_series(i);
    ASSERT_EQ(gauge.size(), ticks) << tier.name();

    std::int64_t tier_drops = 0;
    for (std::size_t k = 0; k < ticks; ++k) {
      const Sample& scraped = queue->samples()[k];
      const flightrec::TimelineFrame& frame = timeline[k];
      const SimTime now = static_cast<SimTime>(k + 1) * period;
      EXPECT_EQ(scraped.time, now) << tier.name() << " tick " << k;
      EXPECT_EQ(gauge.samples()[k].time, now) << tier.name() << " tick " << k;
      EXPECT_EQ(frame.start, now - period) << " tick " << k;
      EXPECT_EQ(scraped.value, gauge.samples()[k].value) << tier.name() << " tick " << k;
      EXPECT_EQ(scraped.value, static_cast<double>(frame.queue_depth[i]))
          << tier.name() << " tick " << k;
      if (static_cast<int>(i) == config.target_tier) {
        // The target-CPU series is stamped at the window start, the
        // registry's utilization at the window end.
        EXPECT_EQ(bed.target_cpu().samples()[k].time, now - period) << " tick " << k;
        EXPECT_EQ(util->samples()[k].value, bed.target_cpu().samples()[k].value)
            << " tick " << k;
      }
      if (i == 0) {
        EXPECT_EQ(capacity->samples()[k].value, frame.capacity_last) << " tick " << k;
      }
      tier_drops += frame.tier_drops[i];
    }
    // Every rejection lands in exactly one frame's window.
    EXPECT_EQ(tier_drops, tier.rejected()) << tier.name();
    drops_seen += tier_drops;
  }
  EXPECT_GT(drops_seen, 0) << "the attack must overflow a queue for the drop check to bite";
  EXPECT_GT(bed.target_cpu().max(), 0.98) << "the attack must saturate the target tier";
}

TEST(SamplingPlane, ReleasedRegistryIsNoLongerScraped) {
  // release_metrics() only moves the registry out; the tick skips a null
  // registry, so the released one keeps exactly the scrapes taken before.
  TestbedConfig config;
  config.metrics = true;
  RubbosTestbed bed(config);
  bed.start();
  bed.sim().run_for(sec(std::int64_t{1}));
  std::unique_ptr<metrics::Registry> registry = bed.release_metrics();
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->scrapes(), 20);
  bed.sim().run_for(sec(std::int64_t{1}));
  EXPECT_EQ(registry->scrapes(), 20);
  EXPECT_EQ(bed.target_cpu().size(), 40u) << "the monitor series keep sampling";
}

TEST(SamplingPlane, ObservabilityAddsNoEvents) {
  // Exactly one sampling task runs whatever metrics/flightrec are set to:
  // the registry and the flight recorder ride the same tick, so turning them
  // on leaves the engine's event count untouched.
  auto events = [](bool observed) {
    TestbedConfig config;
    config.metrics = observed;
    config.flightrec = observed;
    RubbosTestbed bed(config);
    bed.start();
    auto attack = start_attack(bed);
    bed.sim().run_for(sec(std::int64_t{5}));
    return bed.sim().events_executed();
  };
  EXPECT_EQ(events(true), events(false));
}

}  // namespace
}  // namespace memca::testbed
