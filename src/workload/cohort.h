// SoA building blocks for cohort-batched client populations.
//
// A cohort groups statistically identical users (same Markov chain, think
// time, retry policy). Idle members carry no per-user state at all — only a
// per-page-class count — so the population costs O(pages) per think tick
// instead of O(users) timers. Individual identity exists only while a user
// has a request or an RTO in flight, and comes from two POD-lane structures:
//
//  * UserSlotAllocator hands out compact user ids bounded by the *concurrent*
//    in-flight population, not the total one, so downstream user-indexed
//    tables (trace marks, the flight recorder's cutoff table) stay small at
//    3.5M users.
//  * RtoLedger aggregates RFC 6298 retransmission timers: drops that share a
//    (deadline, attempt) — e.g. every member of one same-instant arrival
//    batch bounced off a full front queue — park in one group behind a
//    single simulator timer instead of one timer each. When the timer
//    fires, drain_while() hands entries out until the front tier refuses
//    one; repark() then moves the rest of the chain into the next attempt's
//    group in one relinking walk (no entry is freed or copied), leaving the
//    ledger exactly as re-parking them one by one would, and drain() walks
//    it instead when the retries are exhausted.
//
// Both are grow-only POD lanes, so memca_snapshot capture/restore extends
// naturally: capture copies lanes aside (reusing snapshot capacity), restore
// copies them back without allocating.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca::workload {

/// Compact id allocator for cohort members that need individual identity.
/// LIFO free list; ids are dense in [0, high_water).
class UserSlotAllocator {
 public:
  std::uint32_t alloc() {
    ++live_;
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      return id;
    }
    return high_water_++;
  }

  void release(std::uint32_t id) {
    MEMCA_DCHECK(live_ > 0);
    MEMCA_DCHECK(id < high_water_);
    --live_;
    free_.push_back(id);
  }

  /// Ids ever handed out — the size any user-indexed side table needs.
  std::uint32_t high_water() const { return high_water_; }
  /// Currently allocated ids (users with a request or RTO in flight).
  std::int64_t live() const { return live_; }

  std::size_t memory_bytes() const { return free_.capacity() * sizeof(std::uint32_t); }

  /// POD-lane checkpoint. Lanes only grow, so restoring a snapshot into the
  /// allocator it came from never allocates.
  struct Snapshot {
    std::vector<std::uint32_t> free;
    std::uint32_t high_water = 0;
    std::int64_t live = 0;
  };

  void capture(Snapshot& out) const {
    out.free.assign(free_.begin(), free_.end());
    out.high_water = high_water_;
    out.live = live_;
  }

  void restore(const Snapshot& snap) {
    free_.resize(snap.free.size());
    std::copy(snap.free.begin(), snap.free.end(), free_.begin());
    high_water_ = snap.high_water;
    live_ = snap.live;
  }

 private:
  std::vector<std::uint32_t> free_;
  std::uint32_t high_water_ = 0;
  std::int64_t live_ = 0;
};

/// Aggregated RFC 6298 retransmission ledger. Parked retransmissions live in
/// entry lanes chained into per-(deadline, attempt) groups; the client arms
/// one simulator timer per *group* and drains the chain when it fires. Under
/// a millibottleneck burst, hundreds of same-instant drops collapse into a
/// handful of groups — the timer population scales with distinct drop
/// instants, not with dropped users.
class RtoLedger {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Parked {
    std::uint32_t group = kNone;
    /// True when this park opened the group: the caller owns scheduling the
    /// group's (single) fire timer.
    bool opened = false;
  };

  /// Parks one pending retransmission. Joins the open group for `attempt`
  /// when its deadline matches exactly; opens a new group otherwise.
  Parked park(int attempt, SimTime deadline, std::int32_t page, SimTime first_sent,
              std::uint32_t user);

  SimTime deadline(std::uint32_t group) const {
    return group_deadline_[group];
  }
  int attempt(std::uint32_t group) const {
    return static_cast<int>(group_attempt_[group]);
  }

  /// Pops every entry of `group` (newest first — LIFO chain order, which is
  /// deterministic), invoking fn(page, first_sent, user), then frees the
  /// group.
  template <typename F>
  void drain(std::uint32_t group, F&& fn) {
    drain_while(group, [&fn](std::int32_t page, SimTime first_sent, std::uint32_t user) {
      fn(page, first_sent, user);
      return true;
    });
  }

  /// As drain(), but stops at the first entry for which fn(page,
  /// first_sent, user) returns false. That entry and the rest of the chain
  /// stay in `group`, which is no longer joinable and whose timer has
  /// fired; the caller must hand them to repark() or drain() before its
  /// callback returns. Returns true iff the group was emptied and freed.
  template <typename F>
  bool drain_while(std::uint32_t group, F&& fn) {
    MEMCA_DCHECK(group_attempt_[group] >= 0);
    const auto att = static_cast<std::size_t>(group_attempt_[group]);
    if (att < open_group_.size() && open_group_[att] == group) open_group_[att] = kNone;
    std::uint32_t e = group_head_[group];
    while (e != kNone) {
      if (!fn(entry_page_[e], entry_first_sent_[e], entry_user_[e])) {
        group_head_[group] = e;
        return false;
      }
      const std::uint32_t next = entry_next_[e];
      --backlog_;
      entry_next_[e] = entry_free_;
      entry_free_ = e;
      e = next;
    }
    free_group(group);
    return true;
  }

  /// Moves the entries drain_while() left in `group` into the group for
  /// (`attempt`, `deadline`) and frees `group`, leaving the ledger as
  /// parking each entry in drain order would: the open group for `attempt`
  /// is joined when its deadline matches (a new one opens otherwise) and
  /// each entry goes to the head of its chain, so the moved run ends up
  /// reversed. One walk that relinks entry_next_ only; fn(page, first_sent,
  /// user) sees each entry in drain order. backlog() does not change.
  template <typename F>
  Parked repark(std::uint32_t group, int attempt, SimTime deadline, F&& fn) {
    const Parked parked = open_group_for(attempt, deadline);
    MEMCA_DCHECK(parked.group != group);
    std::uint32_t head = group_head_[parked.group];
    std::uint32_t e = group_head_[group];
    while (e != kNone) {
      const std::uint32_t next = entry_next_[e];
      fn(entry_page_[e], entry_first_sent_[e], entry_user_[e]);
      entry_next_[e] = head;
      head = e;
      e = next;
    }
    group_head_[parked.group] = head;
    free_group(group);
    return parked;
  }

  /// Timers armed but not yet fired (parked retransmissions).
  int backlog() const { return backlog_; }

  std::size_t memory_bytes() const;

  /// POD-lane checkpoint (entries, groups, free chains, open-group table).
  struct Snapshot {
    std::vector<std::int32_t> entry_page;
    std::vector<SimTime> entry_first_sent;
    std::vector<std::uint32_t> entry_user;
    std::vector<std::uint32_t> entry_next;
    std::uint32_t entry_free = kNone;
    std::vector<SimTime> group_deadline;
    std::vector<std::int32_t> group_attempt;
    std::vector<std::uint32_t> group_head;
    std::uint32_t group_free = kNone;
    std::vector<std::uint32_t> open_group;
    int backlog = 0;
  };

  void capture(Snapshot& out) const;
  void restore(const Snapshot& snap);

 private:
  std::uint32_t alloc_entry();
  std::uint32_t alloc_group();
  /// The joinable group for (attempt, deadline), opened if needed.
  Parked open_group_for(int attempt, SimTime deadline);
  void free_group(std::uint32_t group) {
    group_attempt_[group] = -1;
    group_head_[group] = group_free_;
    group_free_ = group;
  }

  // Entry lanes; entry_next_ doubles as the free chain.
  std::vector<std::int32_t> entry_page_;
  std::vector<SimTime> entry_first_sent_;
  std::vector<std::uint32_t> entry_user_;
  std::vector<std::uint32_t> entry_next_;
  std::uint32_t entry_free_ = kNone;

  // Group lanes; a freed group has attempt -1 and its head threads the group
  // free chain.
  std::vector<SimTime> group_deadline_;
  std::vector<std::int32_t> group_attempt_;
  std::vector<std::uint32_t> group_head_;
  std::uint32_t group_free_ = kNone;

  /// Open (still-joinable) group per attempt number, grown on demand.
  std::vector<std::uint32_t> open_group_;
  int backlog_ = 0;
};

}  // namespace memca::workload
