#include "src/sim/engine.h"

#include <vector>

#include "src/common/check.h"

namespace varuna {

void SimEngine::HeapPush(SimTime when, const HeapMeta& meta) {
  // 4-ary sift-up: child i has parent (i - 1) / 4. Bubbles a hole instead of
  // swapping, so each level moves one key + one metadata entry.
  size_t i = heap_when_.size();
  heap_when_.push_back(when);
  heap_meta_.push_back(meta);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    const bool entry_earlier =
        when < heap_when_[parent] ||
        (when == heap_when_[parent] && meta.seq < heap_meta_[parent].seq);
    if (!entry_earlier) {
      break;
    }
    heap_when_[i] = heap_when_[parent];
    heap_meta_[i] = heap_meta_[parent];
    i = parent;
  }
  heap_when_[i] = when;
  heap_meta_[i] = meta;
}

void SimEngine::HeapPopTop() {
  const SimTime last_when = heap_when_.back();
  const HeapMeta last_meta = heap_meta_.back();
  heap_when_.pop_back();
  heap_meta_.pop_back();
  const size_t n = heap_when_.size();
  if (n == 0) {
    return;
  }
  // 4-ary sift-down of the hole at the root: children of i are 4i+1 .. 4i+4.
  // The four children's `when` keys are 32 contiguous bytes, so the common
  // (tie-free) comparison round reads a single cache line.
  size_t i = 0;
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (EarlierThan(c, best)) {
        best = c;
      }
    }
    const bool best_earlier =
        heap_when_[best] < last_when ||
        (heap_when_[best] == last_when && heap_meta_[best].seq < last_meta.seq);
    if (!best_earlier) {
      break;
    }
    heap_when_[i] = heap_when_[best];
    heap_meta_[i] = heap_meta_[best];
    i = best;
  }
  heap_when_[i] = last_when;
  heap_meta_[i] = last_meta;
}

void SimEngine::Schedule(SimTime delay, Callback callback) {
  VARUNA_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, callback);
}

void SimEngine::ScheduleAt(SimTime when, Callback callback) {
  VARUNA_CHECK_GE(when, now_);
  VARUNA_CHECK(static_cast<bool>(callback));
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = callback;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(callback);
  }
  HeapPush(when, HeapMeta{next_seq_++, slot});
}

bool SimEngine::Step() {
  if (heap_when_.empty()) {
    return false;
  }
  const SimTime when = heap_when_[0];
  const uint32_t slot = heap_meta_[0].slot;
  HeapPopTop();
  // Self-check: simulated time never goes backwards. ScheduleAt() enforces
  // when >= now() at insertion, so a violation here means heap corruption.
  VARUNA_CHECK_GE(when, now_) << "SimEngine time went backwards";
  now_ = when;
  ++events_processed_;
  // Copy the callback out before invoking: the callback may Schedule() and
  // grow/reuse the pool, so the slot must be released first.
  Callback callback = slots_[slot];
  free_slots_.push_back(slot);
  callback();
  return true;
}

void SimEngine::Run() {
  while (Step()) {
  }
}

void SimEngine::RunUntil(SimTime until) {
  VARUNA_CHECK_GE(until, now_);
  while (!heap_when_.empty() && heap_when_[0] <= until) {
    Step();
  }
  now_ = until;
}

void SimEngine::Reset() {
  heap_when_.clear();
  heap_meta_.clear();
  slots_.clear();  // Keeps capacity.
  free_slots_.clear();
  now_ = 0.0;
  next_seq_ = 1;
  events_processed_ = 0;
}

void SimEngine::CheckInvariants() const {
  VARUNA_CHECK_EQ(heap_when_.size(), heap_meta_.size()) << "SoA heap arrays drifted";
  // Heap order: every child sorts at-or-after its parent under (when, seq).
  for (size_t i = 1; i < heap_when_.size(); ++i) {
    VARUNA_CHECK(!EarlierThan(i, (i - 1) / 4)) << "4-ary heap order violated at index " << i;
  }
  // Queued entries and free-list entries each claim a distinct slot; with
  // the count check below they partition the pool.
  std::vector<unsigned char> claimed(slots_.size(), 0);
  for (const HeapMeta& entry : heap_meta_) {
    VARUNA_CHECK_LT(entry.slot, slots_.size()) << "heap entry points outside the pool";
    VARUNA_CHECK(claimed[entry.slot] == 0) << "slot " << entry.slot << " queued twice";
    VARUNA_CHECK(static_cast<bool>(slots_[entry.slot])) << "queued slot holds no callback";
    claimed[entry.slot] = 1;
  }
  for (const uint32_t slot : free_slots_) {
    VARUNA_CHECK_LT(slot, slots_.size()) << "free list points outside the pool";
    VARUNA_CHECK(claimed[slot] == 0) << "slot " << slot << " both queued and free, or freed twice";
    claimed[slot] = 1;
  }
  VARUNA_CHECK_EQ(heap_meta_.size() + free_slots_.size(), slots_.size())
      << "pool slots neither queued nor free";
}

}  // namespace varuna
