#include "src/sim/engine.h"

#include <utility>

#include "src/common/check.h"

namespace varuna {
namespace {

constexpr uint32_t kSlotMask32 = 0xffffffffu;

uint32_t IdSlot(SimEngine::EventId id) { return static_cast<uint32_t>(id & kSlotMask32); }
uint32_t IdGeneration(SimEngine::EventId id) { return static_cast<uint32_t>(id >> 32); }

}  // namespace

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

void SimEngine::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  ++s.generation;  // Invalidates every outstanding id/heap entry for the slot.
  free_slots_.push_back(slot);
  --live_count_;
}

SimEngine::EventId SimEngine::Schedule(SimTime delay, Callback callback) {
  VARUNA_CHECK_GE(delay, 0.0);
  return ScheduleAt(now_ + delay, std::move(callback));
}

SimEngine::EventId SimEngine::ScheduleAt(SimTime when, Callback callback) {
  VARUNA_CHECK_GE(when, now_);
  VARUNA_CHECK(static_cast<bool>(callback));
  if (!callback.is_inline()) {
    ++callback_heap_fallbacks_;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  s.live = true;
  ++live_count_;
  HeapPush(when, HeapMeta{next_seq_++, slot, s.generation});
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

void SimEngine::Cancel(EventId id) {
  const uint32_t slot = IdSlot(id);
  if (slot >= slots_.size()) {
    return;  // Never-issued id.
  }
  Slot& s = slots_[slot];
  if (!s.live || s.generation != IdGeneration(id)) {
    return;  // Already fired/cancelled, or the slot was reused since.
  }
  s.callback = Callback();  // Release the capture now, not when the tombstone pops.
  FreeSlot(slot);
  // The heap entry stays behind as a tombstone; its generation no longer
  // matches the slot, so Step() drops it in O(1) when it reaches the top.
}

bool SimEngine::Step() {
  while (!heap_when_.empty()) {
    const SimTime when = heap_when_[0];
    const HeapMeta top = heap_meta_[0];
    HeapPopTop();
    Slot& slot = slots_[top.slot];
    if (!slot.live || slot.generation != top.generation) {
      continue;  // Cancelled while queued; tombstone purged here.
    }
    // Self-check: simulated time never goes backwards. ScheduleAt() enforces
    // when >= now() at insertion, so a violation here means heap corruption.
    VARUNA_CHECK_GE(when, now_) << "SimEngine time went backwards";
    now_ = when;
    ++events_processed_;
    // Move the callback out before invoking: the callback may Schedule() and
    // grow/reuse the pool, so the slot must be released first.
    Callback callback = std::move(slot.callback);
    FreeSlot(top.slot);
    callback();
    return true;
  }
  return false;
}

void SimEngine::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void SimEngine::RunUntil(SimTime until) {
  VARUNA_CHECK_GE(until, now_);
  stopped_ = false;
  // The gate reads the earliest *entry* (tombstones included) exactly like the
  // historical lazy-cancel queue did, so traces replay bit-identically.
  while (!stopped_ && !heap_when_.empty() && heap_when_[0] <= until) {
    Step();
  }
  if (!stopped_) {
    now_ = until;
  }
}

void SimEngine::Reset() {
  heap_when_.clear();
  heap_meta_.clear();
  slots_.clear();  // Keeps capacity; per-slot inline callbacks free with them.
  free_slots_.clear();
  now_ = 0.0;
  next_seq_ = 1;
  events_processed_ = 0;
  callback_heap_fallbacks_ = 0;
  live_count_ = 0;
  stopped_ = false;
}

void SimEngine::CheckInvariants() const {
  // Tombstone hygiene: live events can never exceed queued entries (the
  // difference is exactly the cancelled tombstones awaiting their pop).
  VARUNA_CHECK_LE(live_count_, heap_when_.size())
      << "live events without queued entries (pool/heap drift)";
  VARUNA_CHECK_EQ(heap_when_.size(), heap_meta_.size()) << "SoA heap arrays drifted";
  // The queue only holds future (or present) entries.
  if (!heap_when_.empty()) {
    VARUNA_CHECK_GE(heap_when_[0], now_) << "queued event in the past";
  }
  // Heap order: every child sorts at-or-after its parent under (when, seq).
  size_t backed = 0;
  for (size_t i = 0; i < heap_when_.size(); ++i) {
    if (i > 0) {
      const size_t parent = (i - 1) / 4;
      VARUNA_CHECK(!EarlierThan(i, parent)) << "4-ary heap order violated at index " << i;
    }
    const HeapMeta& entry = heap_meta_[i];
    VARUNA_CHECK_LT(entry.slot, slots_.size()) << "heap entry points outside the pool";
    const Slot& slot = slots_[entry.slot];
    if (slot.live && slot.generation == entry.generation) {
      ++backed;  // Current-generation entry backing a live slot.
    }
  }
  // Every live slot is backed by exactly one current-generation heap entry
  // (generations are bumped on free, so two matching entries cannot coexist).
  VARUNA_CHECK_EQ(backed, live_count_) << "live slot without a heap entry";
  // The free list and the live slots partition the pool.
  size_t live_slots = 0;
  for (const Slot& slot : slots_) {
    live_slots += slot.live ? 1 : 0;
  }
  VARUNA_CHECK_EQ(live_slots, live_count_) << "live slot count drifted";
  VARUNA_CHECK_EQ(live_slots + free_slots_.size(), slots_.size())
      << "pool slots neither live nor free";
}

}  // namespace varuna
