#include "workload/cohort.h"

#include <algorithm>

namespace memca::workload {

std::uint32_t RtoLedger::alloc_entry() {
  if (entry_free_ != kNone) {
    const std::uint32_t e = entry_free_;
    entry_free_ = entry_next_[e];
    return e;
  }
  const auto e = static_cast<std::uint32_t>(entry_page_.size());
  entry_page_.push_back(0);
  entry_first_sent_.push_back(0);
  entry_user_.push_back(0);
  entry_next_.push_back(kNone);
  return e;
}

std::uint32_t RtoLedger::alloc_group() {
  if (group_free_ != kNone) {
    const std::uint32_t g = group_free_;
    group_free_ = group_head_[g];
    return g;
  }
  const auto g = static_cast<std::uint32_t>(group_deadline_.size());
  group_deadline_.push_back(0);
  group_attempt_.push_back(-1);
  group_head_.push_back(kNone);
  return g;
}

RtoLedger::Parked RtoLedger::open_group_for(int attempt, SimTime deadline) {
  MEMCA_DCHECK(attempt >= 0);
  const auto a = static_cast<std::size_t>(attempt);
  if (a >= open_group_.size()) open_group_.resize(a + 1, kNone);

  Parked parked;
  std::uint32_t g = open_group_[a];
  // Deadlines for a given attempt grow strictly with time, so an open group
  // whose deadline differs can never be joined again; replace it.
  if (g == kNone || group_deadline_[g] != deadline) {
    g = alloc_group();
    group_deadline_[g] = deadline;
    group_attempt_[g] = attempt;
    group_head_[g] = kNone;
    open_group_[a] = g;
    parked.opened = true;
  }
  parked.group = g;
  return parked;
}

RtoLedger::Parked RtoLedger::park(int attempt, SimTime deadline, std::int32_t page,
                                  SimTime first_sent, std::uint32_t user) {
  const Parked parked = open_group_for(attempt, deadline);
  const std::uint32_t g = parked.group;
  const std::uint32_t e = alloc_entry();
  entry_page_[e] = page;
  entry_first_sent_[e] = first_sent;
  entry_user_[e] = user;
  entry_next_[e] = group_head_[g];
  group_head_[g] = e;
  ++backlog_;
  return parked;
}

std::size_t RtoLedger::memory_bytes() const {
  return entry_page_.capacity() * sizeof(std::int32_t) +
         entry_first_sent_.capacity() * sizeof(SimTime) +
         entry_user_.capacity() * sizeof(std::uint32_t) +
         entry_next_.capacity() * sizeof(std::uint32_t) +
         group_deadline_.capacity() * sizeof(SimTime) +
         group_attempt_.capacity() * sizeof(std::int32_t) +
         group_head_.capacity() * sizeof(std::uint32_t) +
         open_group_.capacity() * sizeof(std::uint32_t);
}

void RtoLedger::capture(Snapshot& out) const {
  out.entry_page.assign(entry_page_.begin(), entry_page_.end());
  out.entry_first_sent.assign(entry_first_sent_.begin(), entry_first_sent_.end());
  out.entry_user.assign(entry_user_.begin(), entry_user_.end());
  out.entry_next.assign(entry_next_.begin(), entry_next_.end());
  out.entry_free = entry_free_;
  out.group_deadline.assign(group_deadline_.begin(), group_deadline_.end());
  out.group_attempt.assign(group_attempt_.begin(), group_attempt_.end());
  out.group_head.assign(group_head_.begin(), group_head_.end());
  out.group_free = group_free_;
  out.open_group.assign(open_group_.begin(), open_group_.end());
  out.backlog = backlog_;
}

namespace {

/// Lanes only grow between a capture and its restore, so shrinking back to
/// the captured size stays within capacity — no allocation.
template <typename T>
void restore_lane(std::vector<T>& lane, const std::vector<T>& snap) {
  MEMCA_CHECK(snap.size() <= lane.capacity() || snap.size() <= lane.size());
  lane.resize(snap.size());
  std::copy(snap.begin(), snap.end(), lane.begin());
}

}  // namespace

void RtoLedger::restore(const Snapshot& snap) {
  restore_lane(entry_page_, snap.entry_page);
  restore_lane(entry_first_sent_, snap.entry_first_sent);
  restore_lane(entry_user_, snap.entry_user);
  restore_lane(entry_next_, snap.entry_next);
  entry_free_ = snap.entry_free;
  restore_lane(group_deadline_, snap.group_deadline);
  restore_lane(group_attempt_, snap.group_attempt);
  restore_lane(group_head_, snap.group_head);
  group_free_ = snap.group_free;
  restore_lane(open_group_, snap.open_group);
  backlog_ = snap.backlog;
}

}  // namespace memca::workload
