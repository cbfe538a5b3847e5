#include "queueing/ntier.h"

#include <gtest/gtest.h>

#include "metrics/registry.h"
#include "test_util.h"
#include "trace/recorder.h"

namespace memca::queueing {
namespace {

using test::make_request;

std::vector<TierConfig> three_tiers() {
  return {{"apache", 10, 2}, {"tomcat", 6, 2}, {"mysql", 3, 1}};
}

struct Fixture {
  Simulator sim;
  NTierSystem system{sim, three_tiers()};
  std::vector<Request::Id> completed;
  std::vector<Request::Id> dropped;
  Fixture() {
    system.set_on_complete([this](const Request& r) { completed.push_back(r.id); });
    system.set_on_drop([this](const Request& r) { dropped.push_back(r.id); });
  }
  bool submit(Request::Id id, std::vector<double> demand) {
    return system.submit(make_request(system.pool(), id, std::move(demand), sim.now()));
  }
};

TEST(NTierSystem, CompletesSingleRequest) {
  Fixture f;
  EXPECT_TRUE(f.submit(1, {100.0, 200.0, 300.0}));
  f.sim.run_all();
  ASSERT_EQ(f.completed.size(), 1u);
  EXPECT_EQ(f.system.completed(), 1);
  EXPECT_EQ(f.system.in_flight(), 0);
}

TEST(NTierSystem, TierResidenceNests) {
  Fixture f;
  SimTime observed[3] = {0, 0, 0};
  f.system.set_on_complete([&](const Request& r) {
    for (std::size_t i = 0; i < 3; ++i) observed[i] = r.tier_time(i);
  });
  f.system.submit(make_request(f.system.pool(), 1, {100.0, 200.0, 300.0}));
  f.sim.run_all();
  EXPECT_EQ(observed[2], usec(300));
  EXPECT_EQ(observed[1], usec(500));
  EXPECT_EQ(observed[0], usec(600));
}

TEST(NTierSystem, DropsOnlyAtFrontTier) {
  Fixture f;
  // Fill the whole system with slow requests.
  for (int i = 0; i < 10; ++i) f.submit(i, {10.0, 10.0, 1000000.0});
  f.sim.run_until(msec(1));
  EXPECT_TRUE(f.system.tier(0).full());
  EXPECT_FALSE(f.submit(99, {10.0, 10.0, 10.0}));
  EXPECT_EQ(f.dropped.size(), 1u);
  EXPECT_EQ(f.system.dropped(), 1);
  // Downstream tiers never rejected an external submission.
  EXPECT_EQ(f.system.tier(0).rejected(), 1);
}

TEST(NTierSystem, BulkRejectionCountsAsPerAttemptRejections) {
  // count_rejected(n) counts what n reject() calls would, fires no drop
  // callback, and refuses to run while a recorder is attached: only
  // reject() records the kDrop events a recorder expects.
  Fixture f;
  for (int i = 0; i < 10; ++i) f.submit(i, {10.0, 10.0, 1000000.0});
  f.sim.run_until(msec(1));
  ASSERT_FALSE(f.system.accepting());
  f.system.reject(100, 0, 0);
  f.system.count_rejected(3);
  EXPECT_EQ(f.system.submitted(), 14);
  EXPECT_EQ(f.system.dropped(), 4);
  EXPECT_EQ(f.system.tier(0).offered(), 14);
  EXPECT_EQ(f.system.tier(0).rejected(), 4);
  EXPECT_TRUE(f.dropped.empty());
#ifndef MEMCA_TRACE_DISABLED
  trace::TraceRecorder recorder;
  f.system.set_trace(&recorder);
  EXPECT_DEATH(f.system.count_rejected(1), "use reject");
#endif
}

TEST(NTierSystem, CrossTierOccupancyRespectsThreadLimits) {
  Fixture f;
  for (int i = 0; i < 10; ++i) f.submit(i, {10.0, 10.0, 1000000.0});
  f.sim.run_until(msec(1));
  EXPECT_EQ(f.system.tier(2).resident(), 3);
  EXPECT_EQ(f.system.tier(1).resident(), 6);
  EXPECT_EQ(f.system.tier(0).resident(), 10);
  // Tier 1's residents: 3 awaiting reply from mysql, 3 blocked.
  EXPECT_EQ(f.system.tier(1).awaiting_reply(), 3);
  EXPECT_EQ(f.system.tier(1).blocked_on_downstream(), 3);
}

TEST(NTierSystem, RecoversAfterBottleneckClears) {
  Fixture f;
  f.system.back_tier().set_speed_multiplier(0.001);
  for (int i = 0; i < 10; ++i) f.submit(i, {10.0, 10.0, 100.0});
  f.sim.run_until(msec(10));
  EXPECT_LT(f.completed.size(), 10u);
  f.system.back_tier().set_speed_multiplier(1.0);
  f.sim.run_all();
  EXPECT_EQ(f.completed.size(), 10u);
  EXPECT_EQ(f.system.in_flight(), 0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(f.system.tier(i).resident(), 0);
}

TEST(NTierSystem, ConservationInvariant) {
  Fixture f;
  f.system.back_tier().set_speed_multiplier(0.01);
  int submitted = 0;
  for (int i = 0; i < 40; ++i) {
    f.submit(i, {50.0, 100.0, 500.0});
    ++submitted;
  }
  f.sim.run_until(msec(100));
  EXPECT_EQ(f.system.submitted(), submitted);
  EXPECT_EQ(f.system.submitted(),
            f.system.completed() + f.system.dropped() + f.system.in_flight());
  f.system.back_tier().set_speed_multiplier(1.0);
  f.sim.run_all();
  EXPECT_EQ(f.system.submitted(), f.system.completed() + f.system.dropped());
}

TEST(NTierSystem, Condition1Detection) {
  Simulator sim;
  NTierSystem good(sim, {{"a", 10, 1}, {"b", 5, 1}});
  EXPECT_TRUE(good.satisfies_condition1());
  NTierSystem bad(sim, {{"a", 5, 1}, {"b", 10, 1}});
  EXPECT_FALSE(bad.satisfies_condition1());
  NTierSystem equal(sim, {{"a", 5, 1}, {"b", 5, 1}});
  EXPECT_FALSE(equal.satisfies_condition1());
}

TEST(NTierSystem, SingleTierSystemWorks) {
  Simulator sim;
  NTierSystem system(sim, {{"solo", 2, 1}});
  int completed = 0;
  system.set_on_complete([&](const Request&) { ++completed; });
  system.submit(make_request(system.pool(), 1, {500.0}));
  sim.run_all();
  EXPECT_EQ(completed, 1);
}

TEST(NTierSystem, QueueSizeOneEdgeCase) {
  Simulator sim;
  NTierSystem system(sim, {{"a", 2, 1}, {"b", 1, 1}});
  int completed = 0;
  system.set_on_complete([&](const Request&) { ++completed; });
  system.submit(make_request(system.pool(), 1, {10.0, 1000.0}));
  system.submit(make_request(system.pool(), 2, {10.0, 1000.0}));
  sim.run_all();
  EXPECT_EQ(completed, 2);
}

TEST(NTierSystem, ReentrantSubmitFromCompletionCallback) {
  Fixture f;
  bool resubmitted = false;
  f.system.set_on_complete([&](const Request& r) {
    f.completed.push_back(r.id);
    if (!resubmitted) {
      resubmitted = true;
      f.submit(100, {10.0, 10.0, 10.0});
    }
  });
  f.submit(1, {10.0, 10.0, 10.0});
  f.sim.run_all();
  EXPECT_EQ(f.completed.size(), 2u);
}

TEST(NTierSystem, ThroughputLimitedByBottleneck) {
  // Offered load far above the back tier's capacity: completions per second
  // should match the back tier capacity (1 worker, 1000 us -> 1000/s).
  Fixture f;
  int next_id = 0;
  PeriodicTask feeder(f.sim, usec(200), [&] {  // 5000/s offered
    f.submit(next_id++, {10.0, 10.0, 1000.0});
  });
  f.sim.run_until(sec(std::int64_t{2}));
  const double rate = static_cast<double>(f.system.completed()) / 2.0;
  EXPECT_NEAR(rate, 1000.0, 60.0);
}

// How often each delivery callback ran in run_registry_agreement.
struct CallbackCounts {
  int replies = 0;
  int batch_replies = 0;
  int drops = 0;
};

/// Equal demands put every tier's completions on shared instants: the front
/// tier's four workers finish together, then the middle tier's, then the
/// back tier's two (the other two wait blocked in the middle tier). In
/// quantized mode those are completion groups and the back tier's group
/// reaches the clients through the batch reply sink. The first reply
/// resubmits a burst the front tier cannot hold, so drops happen inside an
/// event too. Every callback asserts that each tier's registry counters
/// equal its accessors at that moment.
CallbackCounts run_registry_agreement(std::uint32_t quantum) {
  Simulator sim;
  NTierSystem system(sim, {{"apache", 6, 4, quantum},
                           {"tomcat", 4, 4, quantum},
                           {"mysql", 2, 2, quantum}});
  metrics::Registry registry;
  std::vector<TierMetrics> handles;
  for (std::size_t i = 0; i < system.num_tiers(); ++i) {
    const metrics::Labels tier{{"tier", system.tier(i).name()}};
    handles.push_back({registry.counter("offered", tier), registry.counter("admitted", tier),
                       registry.counter("rejected", tier), registry.counter("completed", tier)});
    system.tier(i).set_metrics(handles.back());
  }
  const auto agree = [&](const char* where) {
    for (std::size_t i = 0; i < system.num_tiers(); ++i) {
      SCOPED_TRACE(testing::Message() << where << ", tier " << i);
      const TierServer& t = system.tier(i);
      EXPECT_EQ(handles[i].offered.value(), t.offered());
      EXPECT_EQ(handles[i].admitted.value(), t.admitted());
      EXPECT_EQ(handles[i].rejected.value(), t.rejected());
      EXPECT_EQ(handles[i].completed.value(), t.completed());
    }
  };
  CallbackCounts counts;
  Request::Id next_id = 0;
  const auto submit = [&] {
    system.submit(make_request(system.pool(), next_id++, {100.0, 100.0, 100.0}, sim.now()));
  };
  bool burst_sent = false;
  const auto burst_once = [&] {
    if (burst_sent) return;
    burst_sent = true;
    for (int i = 0; i < 8; ++i) submit();
  };
  system.set_on_complete([&](const Request&) {
    agree("reply sink");
    ++counts.replies;
    burst_once();
  });
  system.set_on_complete_batch([&](Request* const*, std::size_t) {
    agree("batch reply sink");
    ++counts.batch_replies;
    burst_once();
  });
  system.set_on_drop([&](const Request&) {
    agree("on_drop");
    ++counts.drops;
  });
  for (int i = 0; i < 8; ++i) submit();
  sim.run_all();
  agree("end of run");
  EXPECT_EQ(system.in_flight(), 0);
  return counts;
}

TEST(NTierSystem, RegistryMatchesAccessorsInsideCallbacks) {
  const CallbackCounts counts = run_registry_agreement(0);
  EXPECT_GT(counts.replies, 0);
  EXPECT_GT(counts.drops, 2);  // two at submit time, more from inside the reply
}

TEST(NTierSystem, RegistryMatchesAccessorsInsideQuantizedCallbacks) {
  const CallbackCounts counts = run_registry_agreement(100);
  EXPECT_GT(counts.batch_replies, 0);
  EXPECT_GT(counts.drops, 2);
}

}  // namespace
}  // namespace memca::queueing
