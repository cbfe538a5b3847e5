#include "trace/recorder.h"

#include <array>

#include "trace/trace_event.h"

namespace memca::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kComplete:
      return "complete";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kAbandon:
      return "abandon";
    case EventKind::kTierSpan:
      return "tier-span";
    case EventKind::kDrop:
      return "drop";
    case EventKind::kCapacity:
      return "capacity";
    case EventKind::kBurstOn:
      return "burst-on";
    case EventKind::kBurstOff:
      return "burst-off";
    case EventKind::kLockWaitSpan:
      return "lock-wait-span";
  }
  return "?";
}

namespace {

// Retired arena chunks, parked per thread. Handing a warm chunk to the next
// recorder keeps its pages resident: glibc trims freed 80 KB blocks back to
// the OS under load, so without the pool every fresh testbed (one per sweep
// cell, one per benchmark iteration) page-faults its whole arena in again.
// The cap bounds idle memory at ~5 MB per thread.
constexpr std::size_t kPoolMaxChunks = 64;
thread_local std::vector<std::unique_ptr<TraceEvent[]>> chunk_pool;

// Retired ring buffers, parked the same way. A sweep builds one flight
// ring per cell, each a multi-megabyte block that glibc mmaps and hands
// straight back to the OS on free — so without the pool every fresh cell
// pays the allocation, the default-initialisation, and the first-touch
// page faults of the whole ring again. Ring contents are garbage to a new
// recorder by construction (slots are written before they are ever read),
// so reuse is just a pointer handoff.
struct PooledRing {
  std::size_t capacity = 0;
  std::unique_ptr<TraceEvent[]> buf;
};
constexpr std::size_t kPoolMaxRings = 2;
thread_local std::array<PooledRing, kPoolMaxRings> ring_pool;

#ifndef MEMCA_TRACE_DISABLED
std::unique_ptr<TraceEvent[]> take_pooled_ring(std::size_t capacity) {
  for (PooledRing& slot : ring_pool) {
    if (slot.capacity == capacity && slot.buf != nullptr) {
      slot.capacity = 0;
      return std::move(slot.buf);
    }
  }
  return std::make_unique_for_overwrite<TraceEvent[]>(capacity);
}
#endif

void park_pooled_ring(std::size_t capacity, std::unique_ptr<TraceEvent[]> buf) {
  for (PooledRing& slot : ring_pool) {
    if (slot.buf == nullptr) {
      slot.capacity = capacity;
      slot.buf = std::move(buf);
      return;
    }
  }
}

}  // namespace

TraceRecorder::TraceRecorder(Config config) : config_(config) {
#ifndef MEMCA_TRACE_DISABLED
  if (config_.ring_capacity != 0) {
    MEMCA_CHECK(config_.max_events == 0);  // modes are mutually exclusive
    std::size_t cap = 2;
    while (cap < config_.ring_capacity) cap <<= 1;
    ring_ = take_pooled_ring(cap);
    ring_mask_ = cap - 1;
    chunk_begin_ = ring_.get();
    chunk_end_ = chunk_begin_ + cap;
    cursor_ = chunk_begin_;
  }
#endif
}

TraceRecorder::~TraceRecorder() {
  for (auto& chunk : chunks_) {
    if (chunk_pool.size() >= kPoolMaxChunks) break;
    chunk_pool.push_back(std::move(chunk));
  }
  if (ring_ != nullptr) park_pooled_ring(ring_mask_ + 1, std::move(ring_));
}

bool TraceRecorder::next_chunk() {
  if (ring_mask_ != 0) {
    // Wrap in place: the oldest lap is evicted, nothing is allocated.
    base_ += ring_mask_ + 1;
    cursor_ = chunk_begin_;
    return true;
  }
  const std::size_t current = size();
  if (config_.max_events != 0 && current >= config_.max_events) {
    truncated_ = true;
    return false;
  }
  if (used_chunks_ == chunks_.size()) {
    if (!chunk_pool.empty()) {
      chunks_.push_back(std::move(chunk_pool.back()));
      chunk_pool.pop_back();
    } else {
      // for_overwrite: events are written before they are ever read, so the
      // zero-fill of a plain make_unique would be pure overhead.
      chunks_.push_back(std::make_unique_for_overwrite<TraceEvent[]>(kChunkMask + 1));
    }
  }
  chunk_begin_ = chunks_[used_chunks_].get();
  ++used_chunks_;
  base_ = current;
  cursor_ = chunk_begin_;
  std::size_t room = kChunkMask + 1;
  if (config_.max_events != 0 && config_.max_events - current < room) {
    room = config_.max_events - current;
  }
  chunk_end_ = chunk_begin_ + room;
  return true;
}

}  // namespace memca::trace
