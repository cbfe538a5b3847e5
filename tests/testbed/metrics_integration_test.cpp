// End-to-end metrics wiring: a short attacked testbed run with the registry
// on must tell the same story as the testbed's own introspection getters —
// every counter the hot paths increment has a ground-truth twin.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/names.h"
#include "metrics/run_report.h"
#include "testbed/attack_lab.h"
#include "testbed/rubbos_testbed.h"

namespace memca::testbed {
namespace {

TEST(MetricsIntegration, RegistryNullWithoutOptIn) {
  RubbosTestbed bed;
  EXPECT_EQ(bed.registry(), nullptr);
  EXPECT_EQ(bed.release_metrics(), nullptr);
  bed.finalize_metrics();  // must be a no-op, not a crash
}

TEST(MetricsIntegration, CountersMatchGroundTruth) {
  TestbedConfig config;
  config.metrics = true;
  RubbosTestbed bed(config);
  ASSERT_NE(bed.registry(), nullptr);
  bed.start();

  core::MemcaConfig memca;
  memca.enable_controller = false;
  memca.params.burst_length = msec(500);
  memca.params.burst_interval = sec(std::int64_t{2});
  auto attack = bed.make_attack(memca);
  attack->start();
  bed.sim().run_for(sec(std::int64_t{30}));
  bed.finalize_metrics(attack.get());

  const metrics::Registry& registry = *bed.registry();
  // Client-side counters mirror the clients' own statistics.
  EXPECT_EQ(registry.counter_value(metrics::names::kRequestsTotal, {{"event", "completed"}}),
            bed.clients().completed());
  EXPECT_EQ(registry.counter_value(metrics::names::kRequestsTotal, {{"event", "dropped"}}),
            bed.clients().dropped_attempts());
  EXPECT_EQ(registry.counter_value(metrics::names::kRequestsTotal, {{"event", "failed"}}),
            bed.clients().failed());
  // Every drop schedules a retransmission unless the request is abandoned.
  EXPECT_EQ(
      registry.counter_value(metrics::names::kRequestsTotal, {{"event", "retransmitted"}}),
      bed.clients().dropped_attempts() - bed.clients().failed());
  const LatencyHistogram* rt =
      registry.find_histogram(metrics::names::kClientResponseTimeUs);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->count(), bed.clients().response_times().count());
  EXPECT_EQ(rt->quantile(0.95), bed.clients().response_times().quantile(0.95));

  // Per-tier counters mirror the tiers'.
  for (std::size_t i = 0; i < bed.system().num_tiers(); ++i) {
    const auto& tier = bed.system().tier(i);
    const metrics::Labels label = {{"tier", tier.name()}};
    auto event = [&](const char* e) {
      return registry.counter_value(metrics::names::kTierRequestsTotal,
                                    {{"tier", tier.name()}, {"event", e}});
    };
    EXPECT_EQ(event("offered"), tier.offered()) << tier.name();
    EXPECT_EQ(event("admitted"), tier.admitted()) << tier.name();
    EXPECT_EQ(event("rejected"), tier.rejected()) << tier.name();
    EXPECT_EQ(event("completed"), tier.completed()) << tier.name();
    // Scraped utilization/queue series exist and carry one sample per scrape.
    const TimeSeries* util = registry.series(metrics::names::kTierUtilization, label);
    ASSERT_NE(util, nullptr) << tier.name();
    EXPECT_EQ(util->size(), static_cast<std::size_t>(registry.scrapes())) << tier.name();
  }

  // Engine self-profile synced at finalize.
  EXPECT_EQ(registry.counter_value(metrics::names::kEngineEventsTotal),
            static_cast<std::int64_t>(bed.sim().events_executed()));
  EXPECT_EQ(registry.counter_value(metrics::names::kSimTimeUs), bed.sim().now());
  EXPECT_GT(registry.counter_value(metrics::names::kEnginePendingHighWater), 0);
  // Attack telemetry synced at finalize.
  EXPECT_EQ(registry.counter_value(metrics::names::kAttackBurstsTotal),
            attack->scheduler().bursts_fired());
  EXPECT_EQ(registry.counter_value(metrics::names::kAttackOnTimeUs),
            attack->program().total_on_time());
  // 30 s at the default 50 ms resolution.
  EXPECT_EQ(registry.scrapes(), 600);
}

TEST(MetricsIntegration, RunReportReflectsTheRun) {
  AttackLabConfig config;
  config.duration = sec(std::int64_t{20});
  config.params.burst_length = msec(500);
  config.params.burst_interval = sec(std::int64_t{2});
  config.testbed.metrics = true;
  AttackLabResult result = run_attack_lab(config);
  ASSERT_NE(result.registry, nullptr);

  metrics::RunReportOptions options;
  options.scenario = "lab";
  options.scrape_resolution = msec(50);
  const metrics::RunReport report = metrics::build_run_report(*result.registry, options);
  EXPECT_DOUBLE_EQ(report.sim_seconds, 20.0);
  EXPECT_EQ(report.bursts, result.bursts);
  EXPECT_EQ(report.dropped, result.drops);
  EXPECT_EQ(report.latency_p95, result.client_p95);
  EXPECT_GT(report.duty_cycle, 0.0);
  EXPECT_GT(report.capacity_dips, 0);
  ASSERT_EQ(report.tiers.size(), 3u);
  EXPECT_EQ(report.tiers[0].name, "apache");
  EXPECT_EQ(report.tiers[2].name, "mysql");
  // The attack saturates MySQL transiently: visible in the scraped series.
  EXPECT_GT(report.tiers[2].util_max_native, 0.95);
}

TEST(MetricsIntegration, MergedSweepReportKeepsExactTails) {
  // Two flight-recorded cells that see different tails (attacked, then
  // attack-free), merged the way a sweep report is built. Every latency
  // figure of the merged report must be a quantile of the merged
  // distribution — never a sum of per-cell quantiles.
  std::vector<AttackLabConfig> grid(2);
  for (AttackLabConfig& cell : grid) {
    cell.duration = sec(std::int64_t{10});
    cell.params.burst_length = msec(500);
    cell.params.burst_interval = sec(std::int64_t{2});
    cell.testbed.metrics = true;
    cell.testbed.flightrec = true;
  }
  grid[1].attack_enabled = false;
  std::vector<AttackLabResult> results = run_attack_lab_sweep(grid, 2);
  ASSERT_EQ(results.size(), 2u);

  const std::vector<std::string> tiers = {"apache", "tomcat", "mysql"};
  LatencyHistogram client;
  std::vector<LatencyHistogram> residence(tiers.size());
  for (const AttackLabResult& r : results) {
    ASSERT_NE(r.registry, nullptr);
    // Each cell's registry holds exactly the clients' and tiers' own stores.
    const LatencyHistogram* rt =
        r.registry->find_histogram(metrics::names::kClientResponseTimeUs);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->quantile(0.99), r.client_p99);
    client.merge(*rt);
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      const LatencyHistogram* tier = r.registry->find_histogram(
          metrics::names::kTierResidenceTimeUs, {{"tier", tiers[i]}});
      ASSERT_NE(tier, nullptr) << tiers[i];
      EXPECT_EQ(tier->quantile(0.95), r.tier_p95[i]) << tiers[i];
      residence[i].merge(*tier);
    }
  }

  const std::unique_ptr<metrics::Registry> merged = merge_sweep_registries(results);
  ASSERT_NE(merged, nullptr);
  const metrics::RunReport report = metrics::build_run_report(*merged, {});
  EXPECT_TRUE(report.flightrec);
  EXPECT_EQ(report.latency_count, client.count());
  EXPECT_EQ(report.latency_p99, client.quantile(0.99));
  ASSERT_EQ(report.tiers.size(), tiers.size());
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_EQ(report.tiers[i].name, tiers[i]);
    EXPECT_GT(report.tiers[i].residence_p99_us, 0) << tiers[i];
    EXPECT_EQ(report.tiers[i].residence_p99_us, residence[i].quantile(0.99)) << tiers[i];
  }
}

TEST(MetricsIntegration, ReleasedRegistrySurvivesTheTestbed) {
  std::unique_ptr<metrics::Registry> registry;
  std::int64_t completed = 0;
  {
    TestbedConfig config;
    config.metrics = true;
    RubbosTestbed bed(config);
    bed.start();
    bed.sim().run_for(sec(std::int64_t{5}));
    bed.finalize_metrics();
    completed = bed.clients().completed();
    registry = bed.release_metrics();
    EXPECT_EQ(bed.registry(), nullptr);
  }
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->counter_value(metrics::names::kRequestsTotal, {{"event", "completed"}}),
            completed);
  // Serialization of the released registry still works (sweep merge path).
  std::ostringstream out;
  registry->serialize(out);
  EXPECT_FALSE(out.str().empty());
}

}  // namespace
}  // namespace memca::testbed
