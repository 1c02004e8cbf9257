// The process's one schedule table, behind GenerateSchedule() (schedule.h).
// A miss builds, validates and compiles a schedule from scratch, O(P * Nm)
// work: a few milliseconds at (kVaruna, 36, 2048) on a shared 4-thread
// x86-64 host, 1–2 ms of it validation (the schedule_miss_P36 and
// validate_P36 rows of BENCH_config_search.json). Yet the sweep and the
// manager keep asking for the same shapes: every morph event regenerates
// (kVaruna, P, Nm) for each candidate depth, a spot trace revisits the same
// cluster sizes for hours, and every elastic session owns a fresh search. The
// memo keys on (kind, depth, num_microbatches) — the complete input of
// generation — so each shape is generated, validated and compiled once per
// process.
//
// The index is a flat sorted vector of packed 64-bit keys (the sweep hot path
// may not touch node-based containers — varuna_analyze rule "hot-path"). Entries
// are heap-allocated and never evicted, so returned references stay valid for
// the life of the process. Thread-safe: a miss generates under the mutex, so
// misses equals the number of generations.
#ifndef SRC_PIPELINE_SCHEDULE_CACHE_H_
#define SRC_PIPELINE_SCHEDULE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/pipeline/schedule.h"

namespace varuna {

struct ScheduleCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // Shapes generated and validated.
};

class ScheduleCache {
 public:
  // The process-wide instance.
  static ScheduleCache& Process();

  // Returns the schedule for the shape, generating, validating and compiling
  // it on first use. The reference is valid for the life of the process.
  const Schedule& Get(ScheduleKind kind, int depth, int num_microbatches);

  ScheduleCacheStats stats() const;

 private:
  ScheduleCache() = default;

  struct Entry {
    uint64_t key = 0;  // PackKey(kind, depth, num_microbatches).
    std::unique_ptr<Schedule> schedule;
  };

  // depth and num_microbatches are bounded below 2^30 (depth <= cut-point
  // count, Nm <= M_total <= kMaxTotalBatch), so the packing is collision-free.
  static uint64_t PackKey(ScheduleKind kind, int depth, int num_microbatches);

  // The miss path (generate, validate, compile eval_order); defined beside the
  // generators in schedule.cc.
  static Schedule Generate(ScheduleKind kind, int depth, int num_microbatches);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // Sorted ascending by key.
  ScheduleCacheStats stats_;
};

}  // namespace varuna

#endif  // SRC_PIPELINE_SCHEDULE_CACHE_H_
