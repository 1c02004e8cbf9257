#include "src/pipeline/schedule_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace varuna {

ScheduleCache& ScheduleCache::Process() {
  // Append-only, synchronized memo of a pure function: its only observable effect is time.
  static ScheduleCache instance;  // varuna-analyze: allow(global-state)
  return instance;
}

uint64_t ScheduleCache::PackKey(ScheduleKind kind, int depth, int num_microbatches) {
  VARUNA_CHECK_GT(depth, 0);
  VARUNA_CHECK_GT(num_microbatches, 0);
  VARUNA_CHECK_LT(depth, 1 << 30);
  VARUNA_CHECK_LT(num_microbatches, 1 << 30);
  return (static_cast<uint64_t>(kind) << 60) |
         (static_cast<uint64_t>(static_cast<uint32_t>(depth)) << 30) |
         static_cast<uint64_t>(static_cast<uint32_t>(num_microbatches));
}

const Schedule& ScheduleCache::Get(ScheduleKind kind, int depth, int num_microbatches) {
  const uint64_t key = PackKey(kind, depth, num_microbatches);
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& entry, uint64_t probe) { return entry.key < probe; });
  if (it != entries_.end() && it->key == key) {
    ++stats_.hits;
    return *it->schedule;
  }
  // Generate under the lock: each shape is generated and validated exactly once.
  ++stats_.misses;
  auto fresh = std::make_unique<Schedule>(Generate(kind, depth, num_microbatches));
  return *entries_.insert(it, Entry{key, std::move(fresh)})->schedule;
}

ScheduleCacheStats ScheduleCache::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace varuna
