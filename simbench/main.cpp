// simbench: host cost of the MemCA simulator per simulated second, measured
// from outside through the public testbed API (see README.md for the
// workloads, every metric's definition and the layer it should move).
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <path>]
//
// stdout: a `regime {...}` line, a `digest {...}` line and, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones and writes the
// benchmark's span log to --trace-out.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/names.h"
#include "metrics/run_report.h"
#include "span_log.h"
#include "testbed/attack_lab.h"
#include "testbed/rubbos_testbed.h"

namespace {

using namespace memca;
using simbench::ScopedSpan;
using simbench::SpanLog;
using Clock = std::chrono::steady_clock;

/// One attack period: exactly one 500 ms burst starts at each slice start.
constexpr SimTime kSlice = sec(std::int64_t{2});
/// Attack-free prefix simulated before every measured window (covers the
/// 7 s start-up ramp and, at 100x offered load, the first RTO waves).
/// Client statistics start with the window.
constexpr SimTime kWarmup = sec(std::int64_t{20});
constexpr int kSweepWorkers = 2;
/// Operations (episodes or sweeps) measured even when --seconds is spent.
constexpr int kMinOps = 3;
/// Per-process world builds timed for setup_s; more while they are cheap.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetMs = 1500.0;
constexpr int kPaperUsers = 3500;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Minimal JSON object writer for the regime and digest lines.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) { return raw(key, number(v)); }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

core::AttackParams paper_attack(SimTime burst_length = msec(500)) {
  core::AttackParams params;
  params.burst_length = burst_length;
  params.burst_interval = kSlice;
  params.type = cloud::MemoryAttackType::kMemoryLock;
  return params;
}

// -- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  /// The world the benchmark builds and drives slice by slice.
  testbed::TestbedConfig bed;
  /// Slices per episode; every episode rewinds to the warm checkpoint, so
  /// each one simulates the identical window.
  int episode_slices = 0;
  /// run_for calls per slice, each timed on its own: short timed steps let
  /// best-of-N (see BestTimes) find the quiet moments of a noisy host.
  int steps_per_slice = 1;
  /// Fig. 2 shape at every slice boundary: p50 < 50 ms, p99 >= 1 s, drops.
  bool fig2_shape = false;
  double min_served_fraction = 0.0;
  double max_front_admit_ratio = 1.0;
  /// sweep-observed: the measured grid. Single-run workloads: the probe
  /// grid the traced run measures the sweep and observability layers on.
  std::vector<testbed::AttackLabConfig> grid;
  bool is_sweep = false;
};

/// Cells over burst lengths, the prefix (bottleneck kind) varying slowest so
/// each sweep worker warms one world and rewinds it per cell.
std::vector<testbed::AttackLabConfig> make_grid(
    const testbed::TestbedConfig& bed, const std::vector<testbed::BottleneckKind>& kinds,
    const std::vector<int>& burst_ms, int slices, bool full_trace) {
  std::vector<testbed::AttackLabConfig> cells;
  for (testbed::BottleneckKind kind : kinds) {
    for (int ms : burst_ms) {
      testbed::AttackLabConfig cell;
      cell.testbed = bed;
      cell.testbed.bottleneck = kind;
      cell.testbed.metrics = true;
      cell.testbed.flightrec = true;
      cell.testbed.trace = full_trace;
      cell.params = paper_attack(msec(ms));
      cell.warmup = kWarmup;
      cell.duration = slices * kSlice;
      cells.push_back(cell);
    }
  }
  return cells;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.bed.seed = seed;
  w.bed.stats_warmup = kWarmup;
  if (name == "paper-exact") {
    w.episode_slices = 40;
    w.fig2_shape = true;
    w.grid = make_grid(w.bed, {testbed::BottleneckKind::kFifo}, {250, 500}, 2, true);
  } else if (name == "cohort-served" || name == "cohort-overload") {
    w.bed.num_users = 100 * kPaperUsers;
    w.bed.client_mode = workload::ClientMode::kCohort;
    w.bed.service_quantum_us = 100;
    if (name == "cohort-served") {
      // Capacity scaled with the population keeps every tier's load factor
      // at the 3.5k calibration.
      for (queueing::TierConfig* tier : {&w.bed.apache, &w.bed.tomcat, &w.bed.mysql}) {
        tier->threads *= 100;
        tier->workers *= 100;
      }
      w.episode_slices = 10;
      w.steps_per_slice = 40;
      w.fig2_shape = true;
      w.min_served_fraction = 0.9;
    } else {
      w.episode_slices = 10;
      w.steps_per_slice = 4;
      w.max_front_admit_ratio = 0.25;
    }
    // The full per-request trace would grow by ~10^6 events per simulated
    // second here; the probe keeps metrics and the flight recorder only.
    w.grid = make_grid(w.bed, {testbed::BottleneckKind::kFifo}, {250, 500}, 2, false);
  } else if (name == "sweep-observed") {
    w.is_sweep = true;
    w.episode_slices = 10;
    w.grid = make_grid(w.bed, {testbed::BottleneckKind::kFifo, testbed::BottleneckKind::kOltp},
                       {200, 300, 400, 500}, w.episode_slices, true);
    w.bed = w.grid.front().testbed;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<testbed::AttackLabConfig> without_observability(
    std::vector<testbed::AttackLabConfig> grid) {
  for (testbed::AttackLabConfig& cell : grid) {
    cell.testbed.metrics = false;
    cell.testbed.flightrec = false;
    cell.testbed.trace = false;
  }
  return grid;
}

// -- layer counters ----------------------------------------------------------

struct TierCounters {
  std::int64_t offered = 0, admitted = 0, rejected = 0, completed = 0;
  double busy_us = 0.0;
  int waiting = 0;
};

/// One read of every public layer counter, taken at a slice boundary.
struct Counters {
  SimTime now = 0;
  std::uint64_t events = 0;
  std::size_t wheel_pending = 0, cancelled_pending = 0;
  std::int64_t submitted = 0, completed = 0, dropped = 0, in_flight = 0;
  std::vector<TierCounters> tiers;
  std::int64_t client_completed = 0, client_dropped = 0, client_failed = 0;
  std::int64_t client_retransmitted = 0;
  int rto_backlog = 0;
  std::int64_t idle_users = 0, live_slots = 0;
  std::int64_t bursts = 0;
};

Counters read_counters(testbed::RubbosTestbed& bed, const core::MemcaAttack* attack) {
  Counters c;
  const Simulator& sim = bed.sim();
  c.now = sim.now();
  c.events = sim.events_executed();
  c.wheel_pending = sim.wheel_pending();
  c.cancelled_pending = sim.cancelled_pending();
  const queueing::NTierSystem& system = bed.system();
  c.submitted = system.submitted();
  c.completed = system.completed();
  c.dropped = system.dropped();
  c.in_flight = system.in_flight();
  for (std::size_t i = 0; i < system.num_tiers(); ++i) {
    const queueing::TierServer& tier = system.tier(i);
    c.tiers.push_back({tier.offered(), tier.admitted(), tier.rejected(), tier.completed(),
                       tier.busy_worker_time_us(), tier.waiting()});
  }
  const workload::ClosedLoopClients& clients = bed.clients();
  c.client_completed = clients.completed();
  c.client_dropped = clients.dropped_attempts();
  c.client_failed = clients.failed();
  c.client_retransmitted = clients.retransmitted_completions();
  c.rto_backlog = clients.rto_backlog();
  c.idle_users = clients.idle_users();
  c.live_slots = clients.user_slots().live();
  c.bursts = attack != nullptr ? attack->scheduler().bursts_fired() : 0;
  return c;
}

std::vector<std::pair<std::string, double>> counter_row(const testbed::RubbosTestbed& bed,
                                                        const Counters& c) {
  std::vector<std::pair<std::string, double>> row = {
      {"sim.now_s", to_seconds(c.now)},
      {"sim.events", static_cast<double>(c.events)},
      {"sim.wheel_pending", static_cast<double>(c.wheel_pending)},
      {"sim.cancelled_pending", static_cast<double>(c.cancelled_pending)},
      {"queueing.submitted", static_cast<double>(c.submitted)},
      {"queueing.in_flight", static_cast<double>(c.in_flight)},
      {"workload.completed", static_cast<double>(c.client_completed)},
      {"workload.dropped", static_cast<double>(c.client_dropped)},
      {"workload.rto_backlog", static_cast<double>(c.rto_backlog)},
      {"core.bursts", static_cast<double>(c.bursts)},
  };
  const std::vector<std::string> names = bed.tier_names();
  for (std::size_t i = 0; i < c.tiers.size(); ++i) {
    const std::string prefix = "queueing." + names[i] + ".";
    row.emplace_back(prefix + "offered", static_cast<double>(c.tiers[i].offered));
    row.emplace_back(prefix + "rejected", static_cast<double>(c.tiers[i].rejected));
    row.emplace_back(prefix + "completed", static_cast<double>(c.tiers[i].completed));
    row.emplace_back(prefix + "waiting", static_cast<double>(c.tiers[i].waiting));
  }
  return row;
}

/// Output checks at one slice boundary; `start` is the window start.
void check_boundary(const Workload& w, testbed::RubbosTestbed& bed, const Counters& start,
                    const Counters& now, std::vector<std::string>& why) {
  if (now.submitted != now.completed + now.dropped + now.in_flight) {
    why.push_back("system: submitted != completed + dropped + in flight");
  }
  const std::vector<std::string> names = bed.tier_names();
  for (std::size_t i = 0; i < now.tiers.size(); ++i) {
    const TierCounters& t = now.tiers[i];
    if (t.offered != t.admitted + t.rejected) {
      why.push_back(names[i] + ": offered != admitted + rejected");
    }
  }
  if (bed.config().client_mode == workload::ClientMode::kCohort &&
      now.idle_users + now.live_slots != bed.config().num_users) {
    why.push_back("cohort: idle users + live slots != N");
  }
  if (w.fig2_shape) {
    const LatencyHistogram& rt = bed.clients().response_times();
    if (rt.quantile(0.50) >= msec(50)) why.push_back("fig2: client p50 >= 50 ms");
    if (rt.quantile(0.99) < sec(std::int64_t{1})) why.push_back("fig2: client p99 < 1 s");
    if (now.client_dropped == start.client_dropped) why.push_back("fig2: no drops");
  }
  const double served = static_cast<double>(now.client_completed - start.client_completed);
  const double dropped = static_cast<double>(now.client_dropped - start.client_dropped);
  if (ratio(served, served + dropped) < w.min_served_fraction) {
    why.push_back("served fraction below " + number(w.min_served_fraction));
  }
  const TierCounters& front0 = start.tiers.front();
  const TierCounters& front1 = now.tiers.front();
  const double admit = ratio(static_cast<double>(front1.admitted - front0.admitted),
                             static_cast<double>(front1.offered - front0.offered));
  if (admit > w.max_front_admit_ratio) {
    why.push_back("front admit ratio above " + number(w.max_front_admit_ratio));
  }
}

// -- simulated digest ----------------------------------------------------------

/// Deterministic simulated outputs; equal seeds must give equal digests.
struct Digest {
  std::vector<std::pair<std::string, std::int64_t>> fields;

  std::uint64_t hash() const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    for (const auto& [name, value] : fields) {
      for (char ch : name) mix(static_cast<unsigned char>(ch));
      mix(static_cast<std::uint64_t>(value));
    }
    return h;
  }
  bool operator==(const Digest& other) const { return fields == other.fields; }

  std::string json() const {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash()));
    JsonObject obj;
    obj.str("hash", hex);
    for (const auto& [name, value] : fields) obj.integer(name, value);
    return obj.done();
  }
};

Digest world_digest(testbed::RubbosTestbed& bed) {
  Digest d;
  const LatencyHistogram& rt = bed.clients().response_times();
  d.fields = {{"events", static_cast<std::int64_t>(bed.sim().events_executed())},
              {"completions", bed.clients().completed()},
              {"drops", bed.clients().dropped_attempts()},
              {"client_p50_us", rt.quantile(0.50)},
              {"client_p99_us", rt.quantile(0.99)}};
  const std::vector<std::string> names = bed.tier_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    d.fields.emplace_back(names[i] + "_completions", bed.system().tier(i).completed());
  }
  return d;
}

// -- set-up -------------------------------------------------------------------

struct Setup {
  std::unique_ptr<testbed::RubbosTestbed> world;  ///< the last world built, checkpointed
  std::vector<double> construct_ms, warmup_ms, capture_ms;
  int mismatches = 0;  ///< warm digests differing from the first build's
};

/// Builds the workload's world several times (construct + start, then the
/// warm-up prefix), checkpoints each, and keeps the last.
Setup set_up(const Workload& w, SpanLog& log) {
  Setup s;
  std::optional<Digest> first;
  const Clock::time_point began = Clock::now();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && ms_since(began) > kSetupBudgetMs) break;
    s.world.reset();  // at most one world alive: peak RSS is one world's
    ScopedSpan span(log, "setup");
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan construct(log, "construct", span.id());
      s.world = std::make_unique<testbed::RubbosTestbed>(w.bed);
    }
    {
      ScopedSpan start(log, "start", span.id());
      s.world->start();
    }
    s.construct_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    {
      ScopedSpan warmup(log, "warmup", span.id());
      s.world->sim().run_for(kWarmup);
    }
    s.warmup_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    {
      ScopedSpan capture(log, "snapshot", span.id());
      s.world->snapshot();
    }
    s.capture_ms.push_back(ms_since(t0));
    const Digest d = world_digest(*s.world);
    if (!first) {
      first = d;
    } else if (!(d == *first)) {
      ++s.mismatches;
    }
  }
  return s;
}

// -- single-run episodes ------------------------------------------------------

struct Episode {
  bool traced = false;
  double rollback_us = 0.0;
  double window_ms = 0.0;  ///< host time inside the slices' run_for calls
  std::vector<double> step_ms;
  Counters start, end;
  std::vector<Counters> boundaries;  ///< kept for the first episode only
  int failed_slices = 0;
  std::vector<std::string> failures;
  Digest digest;
  double client_p50_ms = 0.0, client_p99_ms = 0.0;
};

Episode run_episode(const Workload& w, testbed::RubbosTestbed& bed, SpanLog& log,
                    bool keep_boundaries) {
  Episode ep;
  ep.traced = log.recording();
  ScopedSpan span(log, "episode");
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan rollback(log, "rollback", span.id());
    bed.rollback();
  }
  ep.rollback_us = 1000.0 * ms_since(t0);
  std::unique_ptr<core::MemcaAttack> attack;
  {
    ScopedSpan make(log, "attack_start", span.id());
    core::MemcaConfig memca;
    memca.enable_controller = false;
    memca.params = paper_attack();
    attack = bed.make_attack(memca);
    attack->start();
    bed.sim().run_for(0);  // the first burst is ON now
  }
  ep.start = read_counters(bed, attack.get());
  Counters now = ep.start;
  for (int k = 0; k < w.episode_slices; ++k) {
    {
      ScopedSpan slice(log, "run_for", span.id());
      for (int i = 0; i < w.steps_per_slice; ++i) {
        t0 = Clock::now();
        bed.sim().run_for(kSlice / w.steps_per_slice);
        ep.step_ms.push_back(ms_since(t0));
      }
    }
    now = read_counters(bed, attack.get());
    if (log.recording()) log.counters("layers", span.id(), counter_row(bed, now));
    std::vector<std::string> why;
    check_boundary(w, bed, ep.start, now, why);
    if (!why.empty()) {
      ++ep.failed_slices;
      if (ep.failures.size() < 4) ep.failures.push_back(why.front());
    }
    if (keep_boundaries) ep.boundaries.push_back(now);
  }
  ep.end = now;
  for (double ms : ep.step_ms) ep.window_ms += ms;
  ep.digest = world_digest(bed);
  const LatencyHistogram& rt = bed.clients().response_times();
  ep.client_p50_ms = static_cast<double>(rt.quantile(0.50)) / 1000.0;
  ep.client_p99_ms = static_cast<double>(rt.quantile(0.99)) / 1000.0;
  {
    ScopedSpan stop(log, "attack_stop", span.id());
    attack->stop();
    attack.reset();  // must be gone before the next rollback
  }
  return ep;
}

// -- sweeps -------------------------------------------------------------------

struct Sweep {
  bool traced = false;
  double wall_ms = 0.0;  ///< run_attack_lab_sweep + registry merge + report build
  double merge_ms = 0.0, report_ms = 0.0;
  double cell_sim_s = 0.0;
  std::int64_t cell_slices = 0;
  std::int64_t completions = 0;  ///< post-warm-up client completions over all cells
  int cells = 0;
  int failed_cells = 0;
  std::vector<std::string> failures;
  std::vector<Digest> cell_digests;
  std::int64_t incidents = 0, tail_requests = 0, tail_retrans_dominated = 0;
};

Digest cell_digest(const testbed::AttackLabResult& r) {
  Digest d;
  d.fields = {{"client_p50_us", r.client_p50},
              {"client_p99_us", r.client_p99},
              {"drops", r.drops},
              {"bursts", r.bursts},
              {"tail_completed", r.tail.completed},
              {"incidents", static_cast<std::int64_t>(r.incidents.size())}};
  if (r.registry != nullptr) {
    const metrics::Registry& reg = *r.registry;
    d.fields.emplace_back("events", reg.counter_value(metrics::names::kEngineEventsTotal));
    d.fields.emplace_back("completions",
                          reg.counter_value(metrics::names::kRequestsTotal,
                                            {{"event", "completed"}}));
    for (const char* tier : {"apache", "tomcat", "mysql"}) {
      d.fields.emplace_back(std::string(tier) + "_completions",
                            reg.counter_value(metrics::names::kTierRequestsTotal,
                                              {{"tier", tier}, {"event", "completed"}}));
    }
  }
  return d;
}

Sweep run_sweep(const std::string& scenario, const std::vector<testbed::AttackLabConfig>& grid,
                int workers, SpanLog& log) {
  Sweep s;
  s.traced = log.recording();
  s.cells = static_cast<int>(grid.size());
  ScopedSpan span(log, "sweep");
  const Clock::time_point t0 = Clock::now();
  std::vector<testbed::AttackLabResult> results;
  {
    ScopedSpan run(log, "run_attack_lab_sweep", span.id());
    results = testbed::run_attack_lab_sweep(grid, workers);
  }
  Clock::time_point t1 = Clock::now();
  std::unique_ptr<metrics::Registry> merged;
  {
    ScopedSpan merge(log, "merge_sweep_registries", span.id());
    merged = testbed::merge_sweep_registries(results);
  }
  s.merge_ms = ms_since(t1);
  t1 = Clock::now();
  if (merged != nullptr) {
    ScopedSpan report(log, "build_run_report", span.id());
    metrics::RunReportOptions options;
    options.scenario = scenario;
    options.wall_seconds = ms_since(t0) / 1000.0;
    options.scrape_resolution = grid.front().testbed.metrics_resolution;
    const metrics::RunReport built = metrics::build_run_report(*merged, options);
    if (built.tiers.empty()) s.failures.push_back("run report without tiers");
  }
  s.report_ms = ms_since(t1);
  s.wall_ms = ms_since(t0);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const testbed::AttackLabResult& r = results[i];
    const testbed::AttackLabConfig& cell = grid[i];
    s.cell_sim_s += to_seconds(cell.duration);
    s.cell_slices += cell.duration / kSlice;
    if (r.registry != nullptr) {
      // The response-time histogram holds exactly the post-warm-up completions.
      const LatencyHistogram* rt =
          r.registry->find_histogram(metrics::names::kClientResponseTimeUs);
      if (rt != nullptr) s.completions += rt->count();
    }
    s.incidents += static_cast<std::int64_t>(r.incidents.size()) + r.incidents_dropped;
    s.tail_requests += r.tail.tail_count;
    s.tail_retrans_dominated += r.tail.tail_retrans_dominated;
    s.cell_digests.push_back(cell_digest(r));
    std::vector<std::string> why;
    if (r.tail.slack_us != 0) why.push_back("attribution slack != 0");
    if (cell.testbed.trace && r.tail.completed == 0) why.push_back("no traced completions");
    if (cell.testbed.flightrec && cell.attack_enabled && r.drops > 0 && r.incidents.empty() &&
        r.incidents_dropped == 0) {
      why.push_back("attacked cell with drops but no incident");
    }
    if (!why.empty()) {
      ++s.failed_cells;
      if (s.failures.size() < 4) {
        s.failures.push_back("cell " + std::to_string(i) + ": " + why.front());
      }
    }
  }
  if (!s.failures.empty() && s.failed_cells == 0) s.failed_cells = 1;
  return s;
}

// -- host-time statistics -----------------------------------------------------

/// Best-of-N host times per position. Every episode rewinds to the same
/// checkpoint, so step k of every episode is the identical simulated work
/// (every sweep likewise); differences between repetitions are host noise.
/// On a shared machine that noise only adds time: co-tenants contending for
/// the last-level cache slow whole stretches of a run by up to 1.7x. The
/// fastest repetition of each position is the work's cost with the least
/// interference, and it varies far less from run to run than the median of
/// the repetitions does (README.md gives the measured spreads).
class BestTimes {
 public:
  explicit BestTimes(std::size_t positions)
      : best_(positions, std::numeric_limits<double>::infinity()) {}

  void add(const std::vector<double>& ms) {
    for (std::size_t i = 0; i < best_.size() && i < ms.size(); ++i) {
      best_[i] = std::min(best_[i], ms[i]);
    }
    ++reps_;
  }
  std::int64_t reps() const { return reps_; }
  const std::vector<double>& best() const { return best_; }
  double total() const {
    double sum = 0.0;
    for (double ms : best_) sum += ms;
    return reps_ > 0 ? sum : 0.0;
  }

 private:
  std::vector<double> best_;
  std::int64_t reps_ = 0;
};

double best_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// -- result -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident memory of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launcher's memory is not counted.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// Offered load / capacity per tier, from the profile and config: a closed
/// population of N users with think time Z offers at most N/Z requests per
/// second, each needing the stationary mix's mean demand at the tier.
std::vector<std::pair<std::string, double>> load_factors(const testbed::RubbosTestbed& bed) {
  const testbed::TestbedConfig& c = bed.config();
  const double rate =
      static_cast<double>(c.num_users) / to_seconds(bed.profile().think_time_mean);
  const std::vector<std::string> names = bed.tier_names();
  const queueing::TierConfig* tiers[] = {&c.apache, &c.tomcat, &c.mysql};
  std::vector<std::pair<std::string, double>> rho;
  for (std::size_t i = 0; i < names.size() && i < 3; ++i) {
    rho.emplace_back(names[i], rate * bed.profile().mean_demand_us(i) /
                                   (1e6 * static_cast<double>(tiers[i]->workers)));
  }
  return rho;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

int usage(const char* why) {
  std::cerr << "simbench: " << why
            << "\nusage: simbench --workload <paper-exact|cohort-served|cohort-overload|"
               "sweep-observed> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  return 2;
}

int run(const Options& opt, const Workload& w) {
  SpanLog log;
  log.set_recording(opt.trace);
  std::vector<Metric> e2e, layer;
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  Setup setup = set_up(w, log);
  testbed::RubbosTestbed& bed = *setup.world;
  failed += setup.mismatches;
  if (setup.mismatches > 0) failures.push_back("warm digest differs between builds");
  const double construct_ms = median(setup.construct_ms);
  const double warmup_ms = median(setup.warmup_ms);
  e2e.push_back({"setup_s", (construct_ms + warmup_ms) / 1000.0, "s"});
  layer.push_back({"testbed.construct_ms", construct_ms, "ms"});
  layer.push_back({"testbed.warmup_ms", warmup_ms, "ms"});
  layer.push_back({"snapshot.capture_ms", median(setup.capture_ms), "ms"});

  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(opt.seconds * 1e6));
  // The traced run alternates span recording per operation; operations
  // without spans give the untraced baseline for bench.trace_overhead.
  const int min_ops = opt.trace ? 2 * kMinOps : kMinOps;
  auto recording_for = [&opt](int i) { return opt.trace && i % 2 == 1; };

  // Hand-driven episodes on the checkpointed world. sweep-observed drives
  // two (for its layer counters) only in the traced run.
  const std::size_t positions =
      w.is_sweep ? 1 : static_cast<std::size_t>(w.episode_slices * w.steps_per_slice);
  BestTimes untraced(positions), traced(positions);
  std::optional<Episode> first_episode;
  double rollback_us = std::numeric_limits<double>::infinity();
  const int episode_target = w.is_sweep ? (opt.trace ? 2 : 0) : -1;
  for (int i = 0; episode_target < 0 ? (i < min_ops || Clock::now() < deadline)
                                     : i < episode_target;
       ++i) {
    log.set_recording(w.is_sweep ? opt.trace : recording_for(i));
    Episode ep = run_episode(w, bed, log, !first_episode);
    attempted += w.episode_slices;
    failed += ep.failed_slices;
    for (const std::string& f : ep.failures) failures.push_back(f);
    if (first_episode && !(ep.digest == first_episode->digest)) {
      ++failed;
      failures.push_back("episode digest differs from the first episode's");
    }
    rollback_us = std::min(rollback_us, ep.rollback_us);
    if (!w.is_sweep) (ep.traced ? traced : untraced).add(ep.step_ms);
    if (!first_episode) first_episode = std::move(ep);
  }

  // Sweeps: the measured operation on sweep-observed, a probe elsewhere.
  std::optional<Sweep> first_sweep;
  std::vector<double> sweep_wall_ms, merge_ms, report_ms, serial_wall_ms, plain_wall_ms;
  auto account = [&](Sweep& s) {
    attempted += s.cells;
    failed += s.failed_cells;
    for (const std::string& f : s.failures) failures.push_back(f);
    if (first_sweep && s.cell_digests != first_sweep->cell_digests) {
      ++failed;
      failures.push_back("sweep digest differs from the first sweep's");
    }
    if (!first_sweep) first_sweep = std::move(s);
  };
  auto observed_sweep = [&](bool measured) {
    Sweep s = run_sweep(w.name, w.grid, kSweepWorkers, log);
    if (measured) (s.traced ? traced : untraced).add({s.wall_ms});
    // Kept only while they stay few: the probe and the traced run.
    if (!measured || opt.trace) {
      sweep_wall_ms.push_back(s.wall_ms);
      merge_ms.push_back(s.merge_ms);
      report_ms.push_back(s.report_ms);
    }
    account(s);
  };
  if (w.is_sweep) {
    for (int i = 0; i < min_ops || Clock::now() < deadline; ++i) {
      log.set_recording(recording_for(i));
      observed_sweep(true);
    }
  }
  if (opt.trace) {
    log.set_recording(true);
    const std::vector<testbed::AttackLabConfig> plain = without_observability(w.grid);
    const int reps = w.is_sweep ? 3 : 1;
    for (int i = 0; i < reps; ++i) {
      if (!w.is_sweep) observed_sweep(false);
      Sweep serial = run_sweep(w.name, w.grid, 1, log);
      serial_wall_ms.push_back(serial.wall_ms);
      account(serial);
      Sweep unobserved = run_sweep(w.name, plain, kSweepWorkers, log);
      plain_wall_ms.push_back(unobserved.wall_ms);
      attempted += unobserved.cells;
      failed += unobserved.failed_cells;
    }
  }

  // -- end-to-end metrics (untraced operations only) --
  // The measured window: one episode, or one sweep's cells.
  double window_sim_s = 0.0, window_completions = 0.0, window_slices = 0.0;
  if (w.is_sweep) {
    window_sim_s = first_sweep->cell_sim_s;
    window_completions = static_cast<double>(first_sweep->completions);
    window_slices = static_cast<double>(first_sweep->cell_slices);
  } else {
    window_sim_s = to_seconds(first_episode->end.now - first_episode->start.now);
    window_completions = static_cast<double>(first_episode->end.client_completed -
                                             first_episode->start.client_completed);
    window_slices = w.episode_slices;
  }
  const double ms_per_sim_s = untraced.total() / window_sim_s;
  e2e.push_back({"ms_per_sim_s", ms_per_sim_s, "ms"});
  if (w.is_sweep) {
    // One sweep is one timing: every cell-slice costs the same share of it.
    e2e.push_back({"slice_ms.p50", untraced.total() / window_slices, "ms"});
    e2e.push_back({"slice_ms.p90", untraced.total() / window_slices, "ms"});
  } else {
    std::vector<double> slice_ms(static_cast<std::size_t>(w.episode_slices), 0.0);
    for (std::size_t i = 0; i < untraced.best().size(); ++i) {
      slice_ms[i / static_cast<std::size_t>(w.steps_per_slice)] += untraced.best()[i];
    }
    e2e.push_back({"slice_ms.p50", quantile(slice_ms, 0.50), "ms"});
    e2e.push_back({"slice_ms.p90", quantile(slice_ms, 0.90), "ms"});
  }
  e2e.push_back({"us_per_completion", 1000.0 * untraced.total() / window_completions, "us"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  // -- per-layer metrics --
  if (first_episode) {
    const Episode& ep0 = *first_episode;
    const Counters& a = ep0.start;
    const Counters& b = ep0.end;
    const double window_s = to_seconds(b.now - a.now);
    const double completions = static_cast<double>(b.client_completed - a.client_completed);
    const double events = static_cast<double>(b.events - a.events);
    auto boundary_mean = [&ep0](auto field) {
      std::vector<double> v;
      for (const Counters& c : ep0.boundaries) v.push_back(static_cast<double>(field(c)));
      return mean(v);
    };
    const Simulator& sim = bed.sim();
    layer.push_back({"sim.events_per_sim_s", events / window_s, "1/s"});
    // Best episode window; on sweep-observed both driven episodes are traced.
    const double host_ms = w.is_sweep ? ep0.window_ms : untraced.total();
    layer.push_back({"sim.host_ns_per_event", 1e6 * host_ms / events, "ns"});
    layer.push_back({"sim.events_per_completion", ratio(events, completions), "count"});
    layer.push_back(
        {"sim.pending_high_water", static_cast<double>(sim.pending_high_water()), "count"});
    layer.push_back({"sim.pool_slots", static_cast<double>(sim.pool_slots()), "count"});
    layer.push_back({"sim.wheel_pending.mean",
                     boundary_mean([](const Counters& c) { return c.wheel_pending; }),
                     "count"});
    layer.push_back({"sim.cancelled_pending.mean",
                     boundary_mean([](const Counters& c) { return c.cancelled_pending; }),
                     "count"});
    const std::vector<std::string> names = bed.tier_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const TierCounters& t0 = a.tiers[i];
      const TierCounters& t1 = b.tiers[i];
      const std::string p = "queueing." + names[i] + ".";
      const queueing::TierServer& tier = bed.system().tier(i);
      layer.push_back({p + "completed_per_sim_s",
                       static_cast<double>(t1.completed - t0.completed) / window_s, "1/s"});
      layer.push_back({p + "rejected_per_sim_s",
                       static_cast<double>(t1.rejected - t0.rejected) / window_s, "1/s"});
      layer.push_back({p + "admit_ratio",
                       ratio(static_cast<double>(t1.admitted - t0.admitted),
                             static_cast<double>(t1.offered - t0.offered)),
                       "ratio"});
      layer.push_back({p + "utilization",
                       (t1.busy_us - t0.busy_us) /
                           (static_cast<double>(tier.workers()) * window_s * 1e6),
                       "ratio"});
      layer.push_back({p + "waiting.mean",
                       boundary_mean([i](const Counters& c) { return c.tiers[i].waiting; }),
                       "count"});
      layer.push_back({p + "residence_p99_ms",
                       static_cast<double>(tier.residence_time().quantile(0.99)) / 1000.0,
                       "ms"});
    }
    layer.push_back(
        {"queueing.pool_slots", static_cast<double>(bed.system().pool().slots()), "count"});
    layer.push_back({"queueing.in_flight.mean",
                     boundary_mean([](const Counters& c) { return c.in_flight; }), "count"});
    const workload::ClosedLoopClients& clients = bed.clients();
    const double dropped = static_cast<double>(b.client_dropped - a.client_dropped);
    layer.push_back({"workload.completed_per_sim_s", completions / window_s, "1/s"});
    layer.push_back({"workload.dropped_per_sim_s", dropped / window_s, "1/s"});
    layer.push_back({"workload.failed_per_sim_s",
                     static_cast<double>(b.client_failed - a.client_failed) / window_s, "1/s"});
    layer.push_back(
        {"workload.served_fraction", ratio(completions, completions + dropped), "ratio"});
    layer.push_back({"workload.retransmitted_share",
                     ratio(static_cast<double>(b.client_retransmitted - a.client_retransmitted),
                           completions),
                     "ratio"});
    layer.push_back({"workload.rto_backlog.mean",
                     boundary_mean([](const Counters& c) { return c.rto_backlog; }), "count"});
    layer.push_back({"workload.bytes_per_user",
                     static_cast<double>(clients.memory_bytes()) /
                         static_cast<double>(bed.config().num_users),
                     "B"});
    layer.push_back({"workload.user_slots_high_water",
                     static_cast<double>(clients.user_slots().high_water()), "count"});
    layer.push_back({"workload.client_p50_ms", ep0.client_p50_ms, "ms"});
    layer.push_back({"workload.client_p99_ms", ep0.client_p99_ms, "ms"});
    layer.push_back({"core.bursts_per_sim_s",
                     static_cast<double>(b.bursts - a.bursts) / window_s, "1/s"});
    layer.push_back({"snapshot.rollback_us", rollback_us, "us"});
  }
  if (first_sweep) {
    const Sweep& s0 = *first_sweep;
    const double wall = best_of(sweep_wall_ms);
    layer.push_back({"sweep.cells_per_s", 1000.0 * s0.cells / wall, "1/s"});
    layer.push_back({"sweep.parallel_efficiency",
                     ratio(best_of(serial_wall_ms), kSweepWorkers * wall), "ratio"});
    layer.push_back({"sweep.observability_overhead",
                     plain_wall_ms.empty() ? 0.0 : wall / best_of(plain_wall_ms) - 1.0,
                     "ratio"});
    layer.push_back({"metrics.merge_ms", best_of(merge_ms), "ms"});
    layer.push_back({"metrics.report_build_ms", best_of(report_ms), "ms"});
    layer.push_back({"flightrec.incidents_per_cell",
                     static_cast<double>(s0.incidents) / s0.cells, "count"});
    layer.push_back({"trace.tail_requests_per_cell",
                     static_cast<double>(s0.tail_requests) / s0.cells, "count"});
    layer.push_back({"trace.retrans_dominated_share",
                     ratio(static_cast<double>(s0.tail_retrans_dominated),
                           static_cast<double>(s0.tail_requests)),
                     "ratio"});
  }
  layer.push_back({"bench.trace_overhead",
                   traced.reps() == 0 ? 0.0 : traced.total() / untraced.total() - 1.0,
                   "ratio"});

  // -- regime, digest, trace file, result --
  JsonObject rho;
  for (const auto& [tier, value] : load_factors(bed)) rho.num(tier, value);
  const testbed::TestbedConfig& c = bed.config();
  JsonObject regime;
  regime.str("workload", w.name)
      .integer("seed", static_cast<std::int64_t>(c.seed))
      .str("client_mode", workload::to_string(c.client_mode))
      .integer("quantum_us", c.service_quantum_us)
      .str("bottleneck", w.is_sweep ? "fifo+oltp" : testbed::to_string(c.bottleneck))
      .integer("users", c.num_users)
      .raw("rho", rho.done())
      .str("build", "release")
      .num("slice_s", to_seconds(kSlice))
      .num("warmup_s", to_seconds(kWarmup))
      .str("operation", w.is_sweep ? "cell" : "slice")
      .integer("episode_slices", w.episode_slices)
      .integer("steps_per_slice", w.steps_per_slice)
      .integer("measured_ops", untraced.reps())
      .integer("slice_positions", static_cast<std::int64_t>(window_slices))
      .integer("setups", static_cast<std::int64_t>(setup.construct_ms.size()))
      .integer("sweep_workers", kSweepWorkers)
      .integer("threads_available", std::thread::hardware_concurrency());
  std::cout << "regime " << regime.done() << "\n";

  JsonObject digest;
  if (w.is_sweep) {
    JsonObject cells;
    for (std::size_t i = 0; i < first_sweep->cell_digests.size(); ++i) {
      cells.raw(std::to_string(i), first_sweep->cell_digests[i].json());
    }
    digest.raw("cells", cells.done());
  } else {
    digest.raw("episode", first_episode->digest.json());
  }
  std::cout << "digest " << digest.done() << "\n";

  for (std::size_t i = 0; i < failures.size() && i < 8; ++i) {
    std::cerr << "simbench: check failed: " << failures[i] << "\n";
  }

  if (opt.trace && !opt.trace_out.empty()) {
    if (!log.write_chrome_json(opt.trace_out, regime.done())) {
      std::cerr << "simbench: cannot write " << opt.trace_out << "\n";
      return 1;
    }
    std::cerr << "simbench: wrote " << log.span_count() << " spans and " << log.counter_rows()
              << " counter rows to " << opt.trace_out << "\n";
  }

  failed = std::min(failed, attempted);
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  const std::vector<Metric>& shown = opt.trace ? layer : e2e;
  for (std::size_t i = 0; i < shown.size(); ++i) {
    out << (i ? ", " : "") << "\"" << shown[i].name
        << "\": {\"value\": " << number(shown[i].value)
        << ", \"unit\": \"" << shown[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "simbench: refusing to measure a debug build (NDEBUG is not defined); "
               "configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  // The benchmark fixes its own regime: drop the per-process overrides of
  // client mode, service quantum and sweep threading.
  for (const char* name : {"MEMCA_CLIENT_MODE", "MEMCA_SERVICE_QUANTUM", "MEMCA_SWEEP_THREADS",
                           "MEMCA_SWEEP_AFFINITY"}) {
    unsetenv(name);
  }
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0)) return usage("--seconds out of range");
  const std::optional<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) return usage(("unknown workload '" + opt.workload + "'").c_str());
  return run(opt, *w);
}
