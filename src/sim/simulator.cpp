#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

namespace memca {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_event(slot_, seq_);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->event_pending(slot_, seq_);
}

void Simulator::run_until(SimTime end) {
  MEMCA_CHECK_MSG(end >= now_, "cannot run backwards");
  drain(end);
  now_ = end;
}

void Simulator::run_all() {
  drain(std::numeric_limits<SimTime>::max());
  // The last entries drained may have been cancelled ones later than the last
  // live event: popping them committed their time as queue_last_ while now()
  // stayed put. The queue is empty here, so re-base it on now() — a later
  // schedule_at(t) with now() <= t must never sit below queue_last_.
  MEMCA_DCHECK(queue_entries_ == 0 && wheel_entries_ == 0);
  queue_last_ = now_;
}

void Simulator::drain(SimTime limit) {
  for (;;) {
    const SimTime next = queue_min_time();
    if (wheel_entries_ > 0) {
      // Every wheel event at or before the next firing instant must be
      // queued before that event fires; if the wheel flushed a bucket,
      // re-pick — it may hold the new earliest event. The cached
      // earliest-bucket start turns the common "wheel owes nothing yet" case
      // into a single compare instead of a per-event level scan. Peeking
      // (rather than popping) first matters: queue_pop() commits the next
      // instant as queue_last_, and no wheel entry may reach bucket 0 after
      // that.
      const SimTime target = next < limit ? next : limit;
      if (wheel_next_ <= target && advance_wheel(target)) continue;
    }
    if (queue_entries_ == 0 || next > limit) return;
    fire(queue_pop());
  }
}

Simulator::Event Simulator::queue_pop() {
  MEMCA_DCHECK(queue_entries_ > 0);
  if ((queue_occupied_ & 1u) == 0) {
    // Bucket 0 is used up: commit the lowest bucket's minimum as the new
    // queue_last_. Buckets above it keep their index (the new key shares
    // every bit above that bucket's with the old one), so only its own
    // entries move, each into a strictly lower bucket.
    const int b = std::countr_zero(queue_occupied_);
    std::vector<Event>& src = queue_[static_cast<std::size_t>(b)];
    queue_last_ = queue_min_[static_cast<std::size_t>(b)];
    queue_min_[static_cast<std::size_t>(b)] = std::numeric_limits<SimTime>::max();
    queue_occupied_ &= ~(std::uint64_t{1} << b);
    for (const Event& ev : src) {
      const unsigned to = static_cast<unsigned>(
          std::bit_width(static_cast<std::uint64_t>(ev.time ^ queue_last_)));
      MEMCA_DCHECK(to < static_cast<unsigned>(b));
      queue_[to].push_back(ev);
      if (ev.time < queue_min_[to]) queue_min_[to] = ev.time;
      queue_occupied_ |= std::uint64_t{1} << to;
    }
    src.clear();
    // The bucket interleaved entries from several sources — direct schedules
    // in seq order, wheel flushes carrying older seqs, earlier refills — so
    // the ties now in bucket 0 need their seq order restored. Usually they
    // are a single entry or already ordered, and the check is one pass.
    std::vector<Event>& ties = queue_[0];
    const auto by_seq = [](const Event& x, const Event& y) { return x.seq < y.seq; };
    if (!std::is_sorted(ties.begin(), ties.end(), by_seq)) {
      std::sort(ties.begin(), ties.end(), by_seq);
    }
  }
  const Event ev = queue_[0][queue_head_];
  queue_drop_head();
  return ev;
}

bool Simulator::fire(const Event& ev) {
  Slot& s = slot(ev.slot);
  if (s.seq_live != occupant_key(ev.seq)) {
    MEMCA_DCHECK(cancelled_pending_ > 0);
    --cancelled_pending_;
    return false;
  }
  // The closure runs in place in its slot: chunked storage guarantees the
  // slot never relocates even if the callback grows the pool. Clearing the
  // live bit first makes a self-cancel from inside the callback a no-op, and
  // the slot only joins the free stack afterwards, so events scheduled by
  // the callback cannot reuse it while its closure is still executing.
  s.seq_live &= ~std::uint64_t{1};
  --live_pending_;
  ++executed_;
  now_ = ev.time;
  s.fn();
  s.fn.reset();
  free_slots_.push_back(ev.slot);
  return true;
}

void Simulator::add_chunk() {
  chunks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(
      sizeof(Slot) << kChunkShift));
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn.reset();  // destroy the capture eagerly
  s.seq_live &= ~std::uint64_t{1};
  free_slots_.push_back(index);
}

void Simulator::reset_pending_closures() {
  // Only live slots hold a closure (firing, cancelling, and releasing all
  // reset the slot's callback), and every live slot has exactly one matching
  // queue entry — so walking the queues touches the pending events instead
  // of sweeping the whole arena. Empty InlineCallback destructors are
  // no-ops, so the remaining Slot objects need no teardown.
  for (const std::vector<Event>& bucket : queue_) {
    for (const Event& ev : bucket) {
      Slot& s = slot(ev.slot);
      if (s.seq_live == occupant_key(ev.seq)) s.fn.reset();
    }
  }
  if (wheel_entries_ > 0) {
    for (const std::vector<Event>& bucket : wheel_buckets_) {
      for (const Event& ev : bucket) {
        Slot& s = slot(ev.slot);
        if (s.seq_live == occupant_key(ev.seq)) s.fn.reset();
      }
    }
  }
}

Simulator::~Simulator() { reset_pending_closures(); }

void Simulator::capture(Snapshot& out) const {
  out.now = now_;
  out.next_seq = next_seq_;
  out.executed = executed_;
  out.live_pending = live_pending_;
  out.pending_high_water = pending_high_water_;
  out.cancelled_pending = cancelled_pending_;
  out.queue[0].assign(queue_[0].begin() + static_cast<std::ptrdiff_t>(queue_head_),
                      queue_[0].end());
  for (std::size_t b = 1; b < kQueueBuckets; ++b) {
    out.queue[b].assign(queue_[b].begin(), queue_[b].end());
  }
  out.queue_min = queue_min_;
  out.queue_occupied = queue_occupied_;
  out.queue_last = queue_last_;
  out.queue_entries = queue_entries_;
  out.free_slots.assign(free_slots_.begin(), free_slots_.end());
  out.num_slots = num_slots_;
  // Every live closure must survive a byte copy: the restore path memcpys
  // chunk bytes back without running constructors, so a heap-owning or
  // non-trivially-destructible capture would be duplicated or leaked.
  for (std::uint32_t i = 0; i < num_slots_; ++i) {
    const Slot& s = slot(i);
    if ((s.seq_live & 1u) != 0) {
      MEMCA_CHECK_MSG(s.fn.is_trivially_relocatable(),
                      "cannot checkpoint a live closure that is not trivially "
                      "relocatable (heap-allocated or non-trivial capture)");
    }
  }
  constexpr std::size_t kChunkBytes = sizeof(Slot) << kChunkShift;
  const std::size_t used_chunks =
      (static_cast<std::size_t>(num_slots_) + kChunkMask) >> kChunkShift;
  while (out.chunks.size() < used_chunks) {
    out.chunks.push_back(std::make_unique_for_overwrite<unsigned char[]>(kChunkBytes));
  }
  out.chunks.resize(used_chunks);
  for (std::size_t i = 0; i < used_chunks; ++i) {
    std::memcpy(out.chunks[i].get(), chunks_[i].get(), kChunkBytes);
  }
  for (std::size_t b = 0; b < wheel_buckets_.size(); ++b) {
    out.wheel_buckets[b].assign(wheel_buckets_[b].begin(), wheel_buckets_[b].end());
  }
  out.wheel_occupied = wheel_occupied_;
  out.wheel_time = wheel_time_;
  out.wheel_next = wheel_next_;
  out.wheel_entries = wheel_entries_;
}

void Simulator::restore(const Snapshot& snap) {
  MEMCA_CHECK_MSG(snap.num_slots <= num_slots_ &&
                      snap.chunks.size() <= chunks_.size(),
                  "a Snapshot only restores into the simulator it captured");
  // Closures scheduled after the capture may be non-trivial; destroy them
  // through their managers before checkpoint bytes overwrite the arena.
  reset_pending_closures();
  constexpr std::size_t kChunkBytes = sizeof(Slot) << kChunkShift;
  for (std::size_t i = 0; i < snap.chunks.size(); ++i) {
    std::memcpy(chunks_[i].get(), snap.chunks[i].get(), kChunkBytes);
  }
  num_slots_ = snap.num_slots;
  free_slots_.assign(snap.free_slots.begin(), snap.free_slots.end());
  now_ = snap.now;
  next_seq_ = snap.next_seq;
  executed_ = snap.executed;
  live_pending_ = snap.live_pending;
  pending_high_water_ = snap.pending_high_water;
  cancelled_pending_ = snap.cancelled_pending;
  // Each bucket's capacity only grows, and a captured bucket held no more
  // than its live counterpart did at capture time, so these assigns never
  // allocate.
  for (std::size_t b = 0; b < kQueueBuckets; ++b) {
    queue_[b].assign(snap.queue[b].begin(), snap.queue[b].end());
  }
  queue_min_ = snap.queue_min;
  queue_occupied_ = snap.queue_occupied;
  queue_last_ = snap.queue_last;
  queue_head_ = 0;
  queue_entries_ = snap.queue_entries;
  for (std::size_t b = 0; b < wheel_buckets_.size(); ++b) {
    wheel_buckets_[b].assign(snap.wheel_buckets[b].begin(),
                             snap.wheel_buckets[b].end());
  }
  wheel_occupied_ = snap.wheel_occupied;
  wheel_time_ = snap.wheel_time;
  wheel_next_ = snap.wheel_next;
  wheel_entries_ = snap.wheel_entries;
}

void Simulator::wheel_insert(const Event& ev) {
  if (wheel_entries_ == 0) {
    // The frontier can be arbitrarily stale after the wheel sat empty; snap
    // it to the current tick so the delta-based level choice below sees a
    // fresh window. All buckets are empty, so no cascade state is skipped.
    wheel_time_ = (now_ >> kWheelShift0) << kWheelShift0;
  }
  MEMCA_DCHECK(ev.time >= wheel_time_);
  // Level selection must use bucket-tick distance, not the raw time delta:
  // the frontier is only level-0 aligned, so a delta just under a level's
  // window can still span kWheelBuckets ticks at that level, wrapping the
  // absolute-time index onto the frontier's own bucket — a bucket the
  // advance loop would then (wrongly) treat as already due. Distance in
  // tick space keeps the level and the index consistent for any alignment.
  for (int level = 0; level < kWheelLevels; ++level) {
    const int shift = kWheelShift0 + level * kWheelLevelBits;
    if ((ev.time >> shift) - (wheel_time_ >> shift) < SimTime{kWheelBuckets}) {
      const std::uint32_t idx =
          static_cast<std::uint32_t>(ev.time >> shift) & (kWheelBuckets - 1);
      wheel_buckets_[(static_cast<std::uint32_t>(level) << kWheelLevelBits) + idx]
          .push_back(ev);
      wheel_occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << idx;
      ++wheel_entries_;
      const SimTime start = (ev.time >> shift) << shift;
      if (start < wheel_next_) wheel_next_ = start;
      return;
    }
  }
  queue_push(ev);  // beyond the wheel horizon (~4.77 simulated hours)
}

// Absolute start time of the earliest occupied bucket across levels. The
// occupancy window of each level starts at the frontier's bucket, so rotating
// the bitmap there turns "next occupied bucket" into a count-trailing-zeros.
SimTime Simulator::wheel_earliest_start() const {
  SimTime best = std::numeric_limits<SimTime>::max();
  for (int level = 0; level < kWheelLevels; ++level) {
    const std::uint64_t occ = wheel_occupied_[static_cast<std::size_t>(level)];
    if (occ == 0) continue;
    const int shift = kWheelShift0 + level * kWheelLevelBits;
    const std::uint64_t cur_tick = static_cast<std::uint64_t>(wheel_time_) >> shift;
    const std::uint64_t rot =
        std::rotr(occ, static_cast<int>(cur_tick & (kWheelBuckets - 1)));
    const int steps = std::countr_zero(rot);
    const SimTime start = static_cast<SimTime>(
        (cur_tick + static_cast<std::uint64_t>(steps)) << shift);
    if (start < best) best = start;
  }
  return best;
}

bool Simulator::advance_wheel(SimTime limit) {
  while (wheel_entries_ > 0) {
    // Earliest occupied bucket across levels, by absolute start time. The
    // occupancy window of each level starts at the frontier's bucket, so
    // rotating the bitmap there turns "next occupied bucket" into a
    // count-trailing-zeros.
    SimTime best_start = std::numeric_limits<SimTime>::max();
    int best_level = -1;
    for (int level = 0; level < kWheelLevels; ++level) {
      const std::uint64_t occ = wheel_occupied_[static_cast<std::size_t>(level)];
      if (occ == 0) continue;
      const int shift = kWheelShift0 + level * kWheelLevelBits;
      const std::uint64_t cur_tick = static_cast<std::uint64_t>(wheel_time_) >> shift;
      const std::uint64_t rot =
          std::rotr(occ, static_cast<int>(cur_tick & (kWheelBuckets - 1)));
      const int steps = std::countr_zero(rot);
      const SimTime start = static_cast<SimTime>(
          (cur_tick + static_cast<std::uint64_t>(steps)) << shift);
      if (start < best_start) {
        best_start = start;
        best_level = level;
      }
    }
    MEMCA_DCHECK(best_level >= 0);
    if (best_start > limit) {
      wheel_next_ = best_start;
      break;
    }

    const int shift = kWheelShift0 + best_level * kWheelLevelBits;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(best_start >> shift) & (kWheelBuckets - 1);
    std::vector<Event>& bucket =
        wheel_buckets_[(static_cast<std::uint32_t>(best_level) << kWheelLevelBits) + idx];
    wheel_occupied_[static_cast<std::size_t>(best_level)] &= ~(std::uint64_t{1} << idx);
    wheel_entries_ -= bucket.size();

    if (best_level == 0) {
      // Frontier reached a level-0 bucket: file its live entries into the
      // radix queue. Every one is later than queue_last_ (wheel timers are
      // armed at least two ticks ahead of now), so none lands in bucket 0.
      for (const Event& ev : bucket) {
        if (slot(ev.slot).seq_live == occupant_key(ev.seq)) {
          queue_push(ev);
        } else {
          MEMCA_DCHECK(cancelled_pending_ > 0);
          --cancelled_pending_;  // cancelled while parked; drop here
        }
      }
      bucket.clear();
      wheel_time_ = best_start + (SimTime{1} << kWheelShift0);
      wheel_next_ = wheel_entries_ > 0 ? wheel_earliest_start()
                                       : std::numeric_limits<SimTime>::max();
      return true;
    }

    // Higher-level bucket: advance the frontier to its start and cascade its
    // entries one step down (their delta now fits the lower level's window).
    // Staged through a scratch vector because reinsertion targets other
    // buckets of this same wheel. The storage is swapped back below so each
    // bucket's capacity stays monotone — restore() relies on that to refill
    // buckets from a Snapshot without allocating.
    wheel_time_ = best_start;
    wheel_scratch_.clear();
    std::swap(wheel_scratch_, bucket);
    bool fed_queue = false;
    for (const Event& ev : wheel_scratch_) {
      if (slot(ev.slot).seq_live != occupant_key(ev.seq)) {
        MEMCA_DCHECK(cancelled_pending_ > 0);
        --cancelled_pending_;
        continue;
      }
      // Same tick-distance level choice as wheel_insert (the frontier now
      // sits on a level-best_level boundary, so a lower level always fits a
      // bucket's worth of cascade range).
      bool refiled = false;
      for (int level = 0; level < best_level; ++level) {
        const int lshift = kWheelShift0 + level * kWheelLevelBits;
        if ((ev.time >> lshift) - (wheel_time_ >> lshift) < SimTime{kWheelBuckets}) {
          const std::uint32_t lidx =
              static_cast<std::uint32_t>(ev.time >> lshift) & (kWheelBuckets - 1);
          wheel_buckets_[(static_cast<std::uint32_t>(level) << kWheelLevelBits) + lidx]
              .push_back(ev);
          wheel_occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << lidx;
          ++wheel_entries_;
          refiled = true;
          break;
        }
      }
      // A mis-filed entry must never vanish: if no lower level accepts it
      // (impossible under the invariant above, but cheap to guard), fire it
      // through the queue at its correct time instead of dropping it.
      if (!refiled) {
        MEMCA_DCHECK(false);
        queue_push(ev);
        fed_queue = true;
      }
    }
    // The cascade only refiles into *lower* levels, so the drained bucket is
    // still empty: hand its storage back and keep the capacities home.
    std::swap(wheel_scratch_, bucket);
    bucket.clear();
    if (fed_queue) {
      // The caller's candidate instant may be stale; recompute the earliest
      // bucket and report so it re-picks.
      wheel_next_ = wheel_entries_ > 0 ? wheel_earliest_start()
                                       : std::numeric_limits<SimTime>::max();
      return true;
    }
  }
  // Nothing at or before `limit` remains parked; pull the frontier up to the
  // limit's tick (every bucket in between is empty) so the next insert and
  // advance start from a fresh window.
  if (wheel_entries_ == 0) wheel_next_ = std::numeric_limits<SimTime>::max();
  const SimTime snapped = (limit >> kWheelShift0) << kWheelShift0;
  if (snapped > wheel_time_) wheel_time_ = snapped;
  return false;
}

void Simulator::cancel_event(std::uint32_t index, std::uint64_t seq) {
  if (!event_pending(index, seq)) return;
  release_slot(index);
  --live_pending_;
  ++cancelled_pending_;  // its queue entry is now stale
  maybe_compact();
}

void Simulator::cancel_bulk(const EventHandle* handles, std::size_t n) {
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const EventHandle& h = handles[i];
    if (h.sim_ == nullptr || !event_pending(h.slot_, h.seq_)) continue;
    MEMCA_DCHECK(h.sim_ == this);
    release_slot(h.slot_);
    ++cancelled;
  }
  if (cancelled == 0) return;
  live_pending_ -= cancelled;
  cancelled_pending_ += cancelled;
  maybe_compact();
}

void Simulator::maybe_compact() {
  const std::size_t entries = queue_entries_ + wheel_entries_;
  if (entries < kCompactionMinimum || cancelled_pending_ * 2 <= entries) {
    return;
  }
  const auto stale = [this](const Event& ev) {
    return slot(ev.slot).seq_live != occupant_key(ev.seq);
  };
  // Drop bucket 0's consumed head along with the stale entries; erase_if
  // keeps the relative order, so the ties stay in seq order.
  queue_[0].erase(queue_[0].begin(),
                  queue_[0].begin() + static_cast<std::ptrdiff_t>(queue_head_));
  queue_head_ = 0;
  std::uint64_t occ = queue_occupied_;
  while (occ != 0) {
    const int b = std::countr_zero(occ);
    occ &= occ - 1;
    std::vector<Event>& bucket = queue_[static_cast<std::size_t>(b)];
    queue_entries_ -= std::erase_if(bucket, stale);
    SimTime earliest = std::numeric_limits<SimTime>::max();
    for (const Event& ev : bucket) earliest = std::min(earliest, ev.time);
    queue_min_[static_cast<std::size_t>(b)] = earliest;
    if (bucket.empty()) queue_occupied_ &= ~(std::uint64_t{1} << b);
  }
  // Wheel buckets hold the bulk of the stale population in an RTO-heavy
  // workload (most retransmission timers are cancelled by the reply); sweep
  // them too so the zeroed counter below stays truthful.
  if (wheel_entries_ > 0) {
    for (int level = 0; level < kWheelLevels; ++level) {
      std::uint64_t occ = wheel_occupied_[static_cast<std::size_t>(level)];
      while (occ != 0) {
        const int idx = std::countr_zero(occ);
        occ &= occ - 1;
        std::vector<Event>& bucket =
            wheel_buckets_[(static_cast<std::uint32_t>(level) << kWheelLevelBits) +
                           static_cast<std::uint32_t>(idx)];
        const std::size_t before = bucket.size();
        std::erase_if(bucket, stale);
        wheel_entries_ -= before - bucket.size();
        if (bucket.empty()) {
          wheel_occupied_[static_cast<std::size_t>(level)] &=
              ~(std::uint64_t{1} << idx);
        }
      }
    }
    wheel_next_ = wheel_entries_ > 0 ? wheel_earliest_start()
                                     : std::numeric_limits<SimTime>::max();
  }
  cancelled_pending_ = 0;
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime period, InlineCallback fn,
                           bool fire_immediately)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  MEMCA_CHECK_MSG(period_ > 0, "period must be positive");
  MEMCA_CHECK_MSG(static_cast<bool>(fn_), "PeriodicTask needs a callback");
  arm(fire_immediately ? 0 : period_);
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

void PeriodicTask::set_period(SimTime period) {
  MEMCA_CHECK_MSG(period > 0, "period must be positive");
  period_ = period;
}

void PeriodicTask::arm(SimTime delay) {
  next_ = sim_.schedule_in(delay, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm(period_);
  });
}

}  // namespace memca
