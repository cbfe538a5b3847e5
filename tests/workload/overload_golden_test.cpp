// Golden counters for a cohort population storming a saturated front tier.
//
// 350k cohort users offer about 100x what the unscaled RUBBoS tiers can serve
// (on the 100 µs service grid, and once with exact service times), and a
// periodic back-tier slowdown (the memory-lock attack's effect: speed 0.2 for
// 500 ms every 2 s) keeps the chain congested. Almost every attempt is
// refused at the front tier and parked in the RTO ledger, so the counters
// below are dominated by the reject -> park -> retransmit path. Their values
// were recorded before that path stopped building a Request for each refused
// attempt; any change to the order in which refused retransmissions are
// parked, re-sent or abandoned shows up here (it reorders the demand draws
// and ids of later sends).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "common/rng.h"
#include "queueing/ntier.h"
#include "sim/simulator.h"
#include "workload/clients.h"
#include "workload/profile.h"
#include "workload/router.h"

namespace memca::workload {
namespace {

struct OverloadCounters {
  std::int64_t completed = 0;
  std::int64_t dropped_attempts = 0;
  std::int64_t failed = 0;
  std::int64_t retransmitted_completions = 0;
  std::int64_t system_submitted = 0;
  std::int64_t system_dropped = 0;
  std::int64_t front_offered = 0;
  std::int64_t front_rejected = 0;
  std::int64_t next_id = 0;
  std::int64_t rto_backlog = 0;
  std::int64_t slots_high_water = 0;
  std::int64_t events_executed = 0;

  bool operator==(const OverloadCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const OverloadCounters& c) {
  return os << "{completed " << c.completed << ", dropped_attempts " << c.dropped_attempts
            << ", failed " << c.failed << ", retransmitted_completions "
            << c.retransmitted_completions << ", system_submitted " << c.system_submitted
            << ", system_dropped " << c.system_dropped << ", front_offered "
            << c.front_offered << ", front_rejected " << c.front_rejected << ", next_id "
            << c.next_id << ", rto_backlog " << c.rto_backlog << ", slots_high_water "
            << c.slots_high_water << ", events_executed " << c.events_executed << "}";
}

/// Back-tier slowdown of the paper's MemCA burst: 500 ms at 0.2x speed at
/// the start of every 2 s period.
void schedule_bursts(Simulator& sim, queueing::TierServer& target, SimTime until) {
  for (SimTime t = 0; t < until; t += sec(std::int64_t{2})) {
    sim.schedule_at(t, [&target] { target.set_speed_multiplier(0.2); });
    sim.schedule_at(t + msec(500), [&target] { target.set_speed_multiplier(1.0); });
  }
}

OverloadCounters run_overload(int max_retries, std::uint32_t quantum_us = 100) {
  constexpr SimTime kDuration = sec(std::int64_t{20});
  Simulator sim;
  queueing::NTierSystem system(sim, {{"apache", 100, 8, quantum_us},
                                     {"tomcat", 60, 6, quantum_us},
                                     {"mysql", 30, 2, quantum_us}});
  RequestRouter router(system);
  ClientConfig config;
  config.num_users = 350'000;
  config.mode = ClientMode::kCohort;
  config.max_retries = max_retries;
  ClosedLoopClients clients(sim, router, rubbos_profile(), config, Rng(42));
  schedule_bursts(sim, system.back_tier(), kDuration);
  clients.start();
  sim.run_until(kDuration);

  RequestRouter::Snapshot ids;
  router.capture(ids);
  OverloadCounters c;
  c.completed = clients.completed();
  c.dropped_attempts = clients.dropped_attempts();
  c.failed = clients.failed();
  c.retransmitted_completions = clients.retransmitted_completions();
  c.system_submitted = system.submitted();
  c.system_dropped = system.dropped();
  c.front_offered = system.tier(0).offered();
  c.front_rejected = system.tier(0).rejected();
  c.next_id = ids.next_id;
  c.rto_backlog = clients.rto_backlog();
  c.slots_high_water = clients.user_slots().high_water();
  c.events_executed = static_cast<std::int64_t>(sim.events_executed());
  return c;
}

TEST(CohortOverload, RejectStormMatchesPinnedCounters) {
  const OverloadCounters got = run_overload(6);
  OverloadCounters want;
  want.completed = 19'046;
  want.dropped_attempts = 1'649'233;
  want.failed = 0;
  want.retransmitted_completions = 17'809;
  want.system_submitted = 1'668'379;
  want.system_dropped = 1'649'233;
  want.front_offered = 1'668'379;
  want.front_rejected = 1'649'233;
  want.next_id = 1'668'380;
  want.rto_backlog = 342'869;
  want.slots_high_water = 345'673;
  want.events_executed = 139'896;
  EXPECT_EQ(got, want);
}

TEST(CohortOverload, BulkAbandonMatchesPinnedCounters) {
  // Two retries: most refused retransmissions reach max_retries inside the
  // window and are abandoned rather than parked again.
  const OverloadCounters got = run_overload(2);
  OverloadCounters want;
  want.completed = 24'022;
  want.dropped_attempts = 2'343'206;
  want.failed = 707'899;
  want.retransmitted_completions = 22'798;
  want.system_submitted = 2'367'328;
  want.system_dropped = 2'343'206;
  want.front_offered = 2'367'328;
  want.front_rejected = 2'343'206;
  want.next_id = 2'367'329;
  want.rto_backlog = 104'975;
  want.slots_high_water = 193'700;
  want.events_executed = 217'170;
  EXPECT_EQ(got, want);
}

TEST(CohortOverload, ExactServiceRejectStormMatchesPinnedCounters) {
  // Quantum 0: every refused attempt still draws the demands it would have
  // carried, so the RNG stream, and with it every later send, depends on
  // the refused retransmissions drawing in per-attempt order.
  const OverloadCounters got = run_overload(6, 0);
  OverloadCounters want;
  want.completed = 18'888;
  want.dropped_attempts = 1'649'047;
  want.failed = 0;
  want.retransmitted_completions = 17'777;
  want.system_submitted = 1'668'035;
  want.system_dropped = 1'649'047;
  want.front_offered = 1'668'035;
  want.front_rejected = 1'649'047;
  want.next_id = 1'668'036;
  want.rto_backlog = 342'882;
  want.slots_high_water = 345'652;
  want.events_executed = 144'466;
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace memca::workload
