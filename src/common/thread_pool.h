// Deterministic fan-out/join thread pool — the only place in the tree that may
// create threads (enforced by varuna_analyze rule "threading").
//
// The pool exists for one pattern: evaluate N independent work items and join
// before anything observes the results. Determinism is preserved by contract,
// not by luck:
//   * ParallelFor(n, fn) runs fn(item, worker) for every item in [0, n) and
//     blocks until all items finished — no work escapes the call.
//   * fn's result for an item must be a pure function of `item` (any RNG it
//     uses must be seeded from the item, never shared). The `worker` index
//     (in [0, num_threads())) exists only to address per-worker scratch
//     buffers whose contents are fully overwritten per item.
//   * Which worker runs which item is scheduling-dependent; callers therefore
//     write results into an item-indexed slot and merge in item order, making
//     the output bit-identical to a serial loop over the same fn.
//
// The calling thread participates as worker 0, so ThreadPool(1) spawns no
// threads and degenerates to an inline serial loop — serial and pooled
// executions share one code path.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace varuna {

class ThreadPool {
 public:
  // `num_threads` total workers including the calling thread; clamped to >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total workers (spawned threads + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Hardware concurrency, clamped to >= 1 (hardware_concurrency() may be 0).
  static int DefaultThreadCount();

  // Runs fn(item, worker) for every item in [0, num_items), blocking until all
  // items complete. The calling thread is worker 0 and claims items alongside
  // the pool threads. Not reentrant: fn must not call ParallelFor on this
  // pool. fn must not throw (contract failures abort via VARUNA_CHECK).
  void ParallelFor(int num_items, const std::function<void(int item, int worker)>& fn);

 private:
  void WorkerLoop(int worker);
  // Claims and runs items until the current batch is exhausted. Caller must
  // hold `mutex_`; the lock is released around each fn invocation.
  void DrainBatch(int worker, std::unique_lock<std::mutex>* lock);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // Workers: a new batch is available.
  std::condition_variable done_cv_;  // Caller: the batch completed.
  const std::function<void(int, int)>* task_ = nullptr;
  int num_items_ = 0;
  int next_item_ = 0;
  int items_done_ = 0;
  uint64_t batch_id_ = 0;  // Bumped per ParallelFor so workers detect new work.
  bool shutdown_ = false;
};

}  // namespace varuna

#endif  // SRC_COMMON_THREAD_POOL_H_
