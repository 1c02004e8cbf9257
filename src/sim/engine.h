// Deterministic discrete-event simulation kernel. Every distributed component
// in Varuna's testbed (pipeline stages, network transfers, the manager, the
// spot market) runs as callbacks scheduled on this engine.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a fixed RNG seed
// yields a bit-identical execution.
//
// Events are fire-once: scheduling returns no handle and nothing can be
// withdrawn, so everything the queue holds will fire. Callers that need to
// retire a pending event guard it with their own epoch counter.
//
// Layout (the per-event hot path of every simulator in the repo):
//  * Callbacks live in a slot pool; a fired slot goes onto a free list and is
//    reused by the next Schedule().
//  * Ordering runs through a 4-ary implicit heap stored SoA: the 8-byte
//    `when` keys in one dense array (a sift-down's four-child comparison
//    reads one cache line) and the (seq, slot) metadata in a parallel array
//    touched only on moves and ties.
//  * Callbacks are SmallCallback (src/sim/callback.h), whose captures are
//    inline by type, so steady-state scheduling performs zero heap
//    allocations once the pool and heap vectors are warm.
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

  // Schedules `callback` to run `delay` seconds from now. Requires delay >= 0.
  void Schedule(SimTime delay, Callback callback);

  // Schedules `callback` at absolute time `when`. Requires when >= now().
  void ScheduleAt(SimTime when, Callback callback);

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamp <= `until`, then sets now() == until.
  void RunUntil(SimTime until);

  // Clears all state (time, counters, pending events) while keeping the pool
  // and heap capacity, so a reused engine reaches steady state with zero
  // allocations. Equivalent to destroying and re-constructing the engine.
  void Reset();

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // Events scheduled but not yet fired; 0 after a completed Run().
  size_t pending_events() const { return heap_when_.size(); }

  // Elements of retained capacity across the slot pool, free list and heap.
  // Reset() keeps it, so it grows only when a run holds more events in flight
  // than any run before it; the executor's zero-alloc contract watches it.
  size_t capacity() const {
    return slots_.capacity() + free_slots_.capacity() + heap_when_.capacity() +
           heap_meta_.capacity();
  }

  // Self-check (varuna-verify): aborts via VARUNA_CHECK if the engine state is
  // inconsistent — the heap must be a valid 4-ary min-heap on (when, seq),
  // every queued entry must name a distinct occupied slot, and the free list
  // plus the occupied slots must partition the pool. O(pool) — call from
  // tests and validators, not hot loops.
  void CheckInvariants() const;

 private:
  // Heap metadata parallel to heap_when_: what a sift moves but rarely reads
  // (seq only breaks when-ties, slot resolves on pop).
  struct HeapMeta {
    uint64_t seq = 0;  // Tie-breaker: lower seq fires first (schedule order).
    uint32_t slot = 0;
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

  // Pops and runs the next event. Returns false if the queue is empty.
  bool Step();

  // 4-ary implicit min-heap on (when, seq), stored SoA: dense keys + metadata.
  std::vector<SimTime> heap_when_;
  std::vector<HeapMeta> heap_meta_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
};

}  // namespace varuna

#endif  // SRC_SIM_ENGINE_H_
