// Deterministic discrete-event simulation kernel. Every distributed component
// in Varuna's testbed (pipeline stages, network transfers, the manager, the
// spot market) runs as callbacks scheduled on this engine.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a fixed RNG seed
// yields a bit-identical execution.
//
// Layout (the per-event hot path of every simulator in the repo):
//  * Events live in a slot pool; ids are generation-tagged slot handles, so
//    Cancel() is O(1) with no auxiliary set and a freed slot is reused by the
//    next Schedule() without invalidating stale ids.
//  * Ordering runs through a 4-ary implicit heap stored SoA: the 8-byte
//    `when` keys in one dense array (a sift-down's four-child comparison
//    reads one cache line) and the 16-byte (seq, slot, generation) metadata
//    in a parallel array touched only on moves and ties. The (when, seq)
//    order is exactly the historical (when, id) tie-break, so traces stay
//    bit-identical.
//  * Callbacks are SmallCallback (src/sim/callback.h): captures up to 64
//    bytes stay in the slot inline, so steady-state scheduling performs zero
//    heap allocations once the pool and heap vectors are warm.
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/sim/callback.h"

namespace varuna {

using SimTime = double;  // Seconds since simulation start.

class SimEngine {
 public:
  using Callback = SmallCallback;
  // Generation-tagged slot handle: (generation << 32) | slot. Opaque to
  // callers; a stale or unknown id is always a safe no-op to Cancel().
  using EventId = uint64_t;

  // Schedules `callback` to run `delay` seconds from now. Requires delay >= 0.
  EventId Schedule(SimTime delay, Callback callback);

  // Schedules `callback` at absolute time `when`. Requires when >= now().
  EventId ScheduleAt(SimTime when, Callback callback);

  // Cancels a pending event in O(1). Cancelling an already-fired, already-
  // cancelled or unknown id is a no-op (the generation tag disambiguates a
  // reused slot from the event the caller meant), and the slot is reusable
  // immediately — long sessions accumulate no residue.
  void Cancel(EventId id);

  // Runs events until the queue is empty or Stop() is called.
  void Run();

  // Runs events with timestamp <= `until`, then sets now() == until. The gate
  // reads the earliest queued entry, tombstones included, so a cancelled
  // entry at or before `until` can admit one live event past it: the
  // historical lazy-cancel behaviour, kept for bit-identical replay.
  void RunUntil(SimTime until);

  // Stops the current Run()/RunUntil() after the in-flight callback returns.
  void Stop() { stopped_ = true; }

  // Clears all state (time, counters, pending events) while keeping the pool
  // and heap capacity, so a reused engine reaches steady state with zero
  // allocations. Equivalent to destroying and re-constructing the engine.
  void Reset();

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // Events scheduled but neither fired nor cancelled. After a completed Run()
  // this is 0; the regression tests for Cancel() hygiene key off it.
  size_t pending_events() const { return live_count_; }

  // Scheduled callbacks whose captures overflowed the SmallCallback inline
  // buffer onto the heap. The executor's zero-alloc contract asserts this
  // stays 0 for its workload.
  uint64_t callback_heap_fallbacks() const { return callback_heap_fallbacks_; }

  // Self-check (varuna-verify): aborts via VARUNA_CHECK if the engine state is
  // inconsistent — the heap must be a valid 4-ary min-heap on (when, seq),
  // every live slot must be backed by exactly one current-generation heap
  // entry, and the queue may only hold events at or after now(). O(queue) —
  // call from tests and validators, not hot loops (Step() enforces the same
  // invariants incrementally in O(1)).
  void CheckInvariants() const;

 private:
  struct Slot {
    Callback callback;
    // Bumped every time the slot is freed (fire or cancel); a heap entry or
    // EventId carrying an older generation is stale.
    uint32_t generation = 0;
    bool live = false;
  };
  // Heap metadata parallel to heap_when_: what a sift moves but rarely reads
  // (seq only breaks when-ties, slot/generation resolve on pop).
  struct HeapMeta {
    uint64_t seq = 0;  // Tie-breaker: lower seq fires first (schedule order).
    uint32_t slot = 0;
    uint32_t generation = 0;
  };

  // (when, seq) strict weak order over heap indices.
  bool EarlierThan(size_t a, size_t b) const {
    if (heap_when_[a] != heap_when_[b]) {
      return heap_when_[a] < heap_when_[b];
    }
    return heap_meta_[a].seq < heap_meta_[b].seq;
  }

  void HeapPush(SimTime when, const HeapMeta& meta);
  void HeapPopTop();

  // Releases `slot` back to the free list (bumps the generation).
  void FreeSlot(uint32_t slot);

  // Pops and runs the next live event. Returns false if the queue is empty.
  bool Step();

  // 4-ary implicit min-heap on (when, seq), stored SoA: dense keys + metadata.
  std::vector<SimTime> heap_when_;
  std::vector<HeapMeta> heap_meta_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t callback_heap_fallbacks_ = 0;
  size_t live_count_ = 0;
  bool stopped_ = false;
};

}  // namespace varuna

#endif  // SRC_SIM_ENGINE_H_
