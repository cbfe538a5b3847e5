// Differential check of the event engine's firing order. Seeded random
// interleavings drive every path an entry can take through the engine:
// schedule_at/schedule_in with zero delays, sub-wheel delays, wheel-range
// delays and delays past the wheel horizon (with many same-instant ties),
// cancel, cancel_bulk, run_until steps of random length and the occasional
// run_all. Each run is replayed twice from a mid-run capture. The fired
// sequence must equal a reference built outside the engine: every scheduled,
// never-cancelled event sorted by (time, seq).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/simulator.h"

namespace memca {
namespace {

TEST(EventQueueOrder, RunAllPastTrailingCancelledEventKeepsOrder) {
  // run_all() ends by draining a cancelled entry later than the last live
  // event. The queue must not stay keyed on that entry's time: events
  // scheduled between now() and it would be filed into the wrong buckets
  // and fire out of order.
  Simulator sim;
  std::vector<SimTime> fired;
  const auto record = [&sim, &fired] { fired.push_back(sim.now()); };
  sim.schedule_at(usec(10), record);
  EventHandle late = sim.schedule_at(usec(20), record);
  late.cancel();
  sim.run_all();
  EXPECT_EQ(sim.now(), usec(10));
  sim.schedule_at(usec(15), record);
  sim.schedule_at(usec(16), record);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<SimTime>{usec(10), usec(15), usec(16)}));
  EXPECT_EQ(sim.now(), usec(16));
}

// Everything the test tracks besides the engine, copied whole at the
// capture point so a replay restarts from identical inputs.
struct FuzzState {
  std::mt19937_64 rng;
  struct Record {
    SimTime time;
    EventHandle handle;
    bool cancelled;
  };
  /// Index == scheduling order, which is the engine's seq order.
  std::vector<Record> records;
  std::vector<std::uint32_t> fired;
  /// Set while run_all drains: callbacks then schedule nothing.
  bool quiet = false;
};

class OrderFuzz {
 public:
  static constexpr std::size_t kBudget = 3000;  // events scheduled per run

  explicit OrderFuzz(std::uint64_t seed) { st_.rng.seed(seed); }

  /// Runs until the budget is spent and the queue is empty, capturing once
  /// half-way through the budget; then replays from the capture twice.
  /// Returns the fired sequences.
  std::vector<std::vector<std::uint32_t>> run_with_replays() {
    for (int i = 0; i < 40; ++i) act();
    Simulator::Snapshot snap;
    FuzzState saved;
    bool captured = false;
    std::vector<std::vector<std::uint32_t>> runs;
    while (!done()) {
      if (!captured && st_.records.size() >= kBudget / 2) {
        sim_.capture(snap);
        saved = st_;
        captured = true;
      }
      advance_clock();
    }
    EXPECT_TRUE(captured);
    runs.push_back(finish());
    for (int replay = 0; replay < 2; ++replay) {
      sim_.restore(snap);
      st_ = saved;
      while (!done()) advance_clock();
      runs.push_back(finish());
    }
    return runs;
  }

 private:
  std::uint64_t draw(std::uint64_t n) { return st_.rng() % n; }

  /// A delay from one of the engine's routing classes. Coarse grids make
  /// distinct schedules collide on one instant.
  SimTime random_delay() {
    SimTime d = 0;
    switch (draw(7)) {
      case 0: return 0;
      case 1: d = static_cast<SimTime>(draw(msec(131))); break;  // queue
      case 2: d = static_cast<SimTime>(draw(msec(20))); break;   // queue
      case 3: d = msec(131) + static_cast<SimTime>(draw(msec(200))); break;  // wheel
      case 4: d = msec(131) + static_cast<SimTime>(draw(sec(std::int64_t{30}))); break;
      case 5:  // upper wheel levels, up to the ~4.77 h horizon
        d = msec(131) + static_cast<SimTime>(draw(sec(std::int64_t{17000})));
        break;
      default:  // past the horizon
        d = sec(std::int64_t{17200}) + static_cast<SimTime>(draw(sec(std::int64_t{3600})));
        break;
    }
    switch (draw(3)) {
      case 0: return d - d % msec(1);
      case 1: return d - d % msec(50);
      default: return d;
    }
  }

  /// An absolute time at or after now: a fresh delay, or a tie with a
  /// recently scheduled instant that has not passed — often one close enough
  /// that the tie goes to the queue while its elder may sit in the wheel.
  SimTime random_when() {
    if (draw(3) == 0) {
      std::vector<SimTime> ahead, near;
      const std::size_t n = st_.records.size();
      for (std::size_t i = n > 64 ? n - 64 : 0; i < n; ++i) {
        const SimTime t = st_.records[i].time;
        if (t < sim_.now()) continue;
        ahead.push_back(t);
        if (t - sim_.now() < msec(131)) near.push_back(t);
      }
      if (!near.empty() && draw(2) == 0) return near[draw(near.size())];
      if (!ahead.empty()) return ahead[draw(ahead.size())];
    }
    return sim_.now() + random_delay();
  }

  void schedule_one(SimTime when) {
    const auto id = static_cast<std::uint32_t>(st_.records.size());
    const auto fn = [this, id] { on_fire(id); };
    const EventHandle h = draw(2) == 0 ? sim_.schedule_at(when, fn)
                                       : sim_.schedule_in(when - sim_.now(), fn);
    st_.records.push_back({when, h, false});
  }

  void cancel_one(std::uint32_t id) {
    FuzzState::Record& r = st_.records[id];
    if (!r.handle.pending()) return;
    r.cancelled = true;
    r.handle.cancel();
  }

  /// One random engine operation (a no-op once the budget is spent).
  void act() {
    if (st_.records.size() >= kBudget) return;
    if (st_.records.empty()) {
      schedule_one(random_when());
      return;
    }
    switch (draw(8)) {
      case 0:
      case 1:
      case 2:
        schedule_one(random_when());
        break;
      case 3: {  // several ties at one instant
        const SimTime when = random_when();
        for (std::uint64_t i = 0, n = 2 + draw(4); i < n; ++i) schedule_one(when);
        break;
      }
      case 4:
      case 5:
        cancel_one(static_cast<std::uint32_t>(draw(st_.records.size())));
        break;
      case 6: {
        std::vector<EventHandle> handles;
        for (std::uint64_t i = 0, n = 1 + draw(8); i < n; ++i) {
          FuzzState::Record& r = st_.records[draw(st_.records.size())];
          if (r.handle.pending()) r.cancelled = true;
          handles.push_back(r.handle);
        }
        handles.push_back(EventHandle{});  // inert handles are skipped
        sim_.cancel_bulk(handles.data(), handles.size());
        break;
      }
      default:
        schedule_one(sim_.now());  // same-instant follow-up
        break;
    }
  }

  void on_fire(std::uint32_t id) {
    const FuzzState::Record& r = st_.records[id];
    ASSERT_FALSE(r.cancelled);
    ASSERT_EQ(sim_.now(), r.time);
    st_.fired.push_back(id);
    if (st_.quiet) return;
    for (std::uint64_t i = 0, n = draw(3); i < n; ++i) act();
  }

  bool done() const {
    return sim_.pending_events() == 0 && st_.records.size() >= kBudget;
  }

  void advance_clock() {
    if (sim_.pending_events() == 0 || draw(4) == 0) act();
    if (draw(32) == 0) {
      // Drains everything, cancelled stragglers included (callbacks stay
      // quiet so the budget outlives it); then schedule from outside any
      // callback at the clock run_all left behind.
      st_.quiet = true;
      sim_.run_all();
      st_.quiet = false;
      for (std::uint64_t i = 0, n = 1 + draw(4); i < n; ++i) act();
      return;
    }
    const SimTime step = draw(5) == 0
                             ? static_cast<SimTime>(draw(sec(std::int64_t{20000})))
                             : static_cast<SimTime>(draw(msec(300)));
    sim_.run_until(sim_.now() + step);
  }

  bool before(std::uint32_t a, std::uint32_t b) const {
    const SimTime ta = st_.records[a].time;
    const SimTime tb = st_.records[b].time;
    return ta != tb ? ta < tb : a < b;
  }

  /// Checks the finished run against the reference and returns its order.
  std::vector<std::uint32_t> finish() {
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(sim_.cancelled_pending(), 0u);
    EXPECT_EQ(sim_.wheel_pending(), 0u);
    std::vector<std::uint32_t> reference;
    for (std::uint32_t id = 0; id < st_.records.size(); ++id) {
      if (!st_.records[id].cancelled) reference.push_back(id);
    }
    std::sort(reference.begin(), reference.end(),
              [this](std::uint32_t a, std::uint32_t b) { return before(a, b); });
    EXPECT_EQ(st_.fired, reference);
    return st_.fired;
  }

  Simulator sim_;
  FuzzState st_;
};

TEST(EventQueueOrder, RandomInterleavingsFireInTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    OrderFuzz fuzz(seed);
    const std::vector<std::vector<std::uint32_t>> runs = fuzz.run_with_replays();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[1], runs[0]);
    EXPECT_EQ(runs[2], runs[0]);
  }
}

}  // namespace
}  // namespace memca
