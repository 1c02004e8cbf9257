#include "src/pipeline/executor.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/sim/engine.h"

namespace varuna {

// Reusable working set. Every container is grow-only: Run() resizes upward
// when the workload shape grows and otherwise reuses the retained capacity,
// so a steady-state mini-batch performs no heap allocations.
struct ExecutorScratch {
  // State of one (replica, stage) worker following its per-stage op list.
  // The per-op / per-micro-batch flags are byte spans carved out of `flags`
  // (one shared arena instead of three vector<bool> per worker).
  struct Worker {
    int replica = 0;
    int stage = 0;
    GpuId gpu = -1;
    double slow_factor = 1.0;  // Snapshot: cluster state is frozen during Run().
    const std::vector<PipeOp>* ops = nullptr;
    unsigned char* done = nullptr;          // ops->size() entries
    unsigned char* act_arrived = nullptr;   // num_microbatches entries
    unsigned char* grad_arrived = nullptr;  // num_microbatches entries
    size_t cursor = 0;
    bool busy = false;
    // Rule 2: after a recompute completes the stage is committed to that
    // micro-batch's backward; at most one opportunistic forward may run while
    // the gradient is late (tracked by opportunistic_debt).
    int committed_backward = -1;
    bool opportunistic_debt = false;
    double busy_seconds = 0.0;
    double finish_time = 0.0;
    bool finished = false;
  };

  SimEngine engine;
  std::vector<Worker> workers;
  std::vector<unsigned char> flags;  // Arena backing the per-worker flag spans.
  // Job GPUs sharing each node's NIC, indexed by NodeId; only the entries for
  // the current placement's nodes are maintained (others may hold stale
  // counts from earlier placements and are never read).
  std::vector<int> node_flows;
  std::vector<double> stage_end;
  std::vector<GpuId> ring;   // Reused StageRing buffer (no alloc per allreduce).
  std::vector<GpuId> group;  // Reused shared-state sync pair.
  uint64_t growths = 0;      // Runs that had to grow any of the above.

  // Retained element capacity of every container above, the engine's pool
  // and heap included: a rise across one run means that run allocated.
  size_t Capacity() const {
    return engine.capacity() + workers.capacity() + flags.capacity() + node_flows.capacity() +
           stage_end.capacity() + ring.capacity() + group.capacity();
  }
};

namespace {

// Host<->GPU bandwidth the CPU-offloaded optimizer state moves at.
constexpr double kPcieBandwidthBps = 12.0e9;

using Worker = ExecutorScratch::Worker;

class MinibatchRun {
 public:
  MinibatchRun(const Cluster* cluster, Rng* rng, ExecutorScratch* scratch,
      const Schedule& schedule, const Placement& placement,
      const std::vector<StageTiming>& timings, int microbatch_size,
      const ExecutorOptions& options)
      : cluster_(cluster),
        rng_(rng),
        scratch_(*scratch),
        engine_(scratch->engine),
        workers_(scratch->workers),
        schedule_(schedule),
        placement_(placement),
        timings_(timings),
        microbatch_size_(microbatch_size),
        options_(options) {}

  MinibatchResult Execute();

 private:
  int depth() const { return schedule_.depth; }
  int replicas() const { return placement_.data_parallel; }
  bool IsLast(int stage) const { return stage == depth() - 1; }

  Worker& WorkerAt(int replica, int stage) {
    return workers_[static_cast<size_t>(replica) * depth() + static_cast<size_t>(stage)];
  }

  void PrepareScratch();

  double OpDuration(const Worker& worker, const PipeOp& op) const;
  // Sampled or mean network prices, as options_.sample_network says.
  double TransferTime(GpuId src, GpuId dst, double bytes) const;
  double AllReduceTime(const std::vector<GpuId>& members, double bytes, int concurrent) const;
  int ConcurrentFlows(GpuId gpu) const;

  bool Runnable(const Worker& worker, const PipeOp& op) const;
  void TryDispatch(Worker* worker);
  void StartOp(Worker* worker, size_t index);
  void FinishOp(Worker* worker, size_t index);

  const Cluster* cluster_;
  Rng* rng_;
  ExecutorScratch& scratch_;
  SimEngine& engine_;
  std::vector<Worker>& workers_;
  const Schedule& schedule_;
  const Placement& placement_;
  const std::vector<StageTiming>& timings_;
  int microbatch_size_;
  const ExecutorOptions& options_;

  MinibatchResult result_;
};

double MinibatchRun::OpDuration(const Worker& worker, const PipeOp& op) const {
  const StageTiming& timing = timings_[static_cast<size_t>(worker.stage)];
  double base = 0.0;
  switch (op.type) {
    case PipeOpType::kForward:
      base = timing.forward_s;
      break;
    case PipeOpType::kRecompute:
      base = timing.recompute_s;
      break;
    case PipeOpType::kBackward:
      base = timing.backward_s;
      break;
    case PipeOpType::kIdleForward:
      return timing.forward_s;  // Idle slots burn nominal time; no noise.
    case PipeOpType::kIdleBackward:
      return timing.recompute_s + timing.backward_s;
  }
  base *= worker.slow_factor;
  if (options_.compute_noise_sigma > 0.0) {
    base = rng_->LogNormalMedian(base, options_.compute_noise_sigma);
  }
  return base;
}

int MinibatchRun::ConcurrentFlows(GpuId gpu) const {
  // Only placement GPUs reach here, and PrepareScratch() refreshed exactly
  // their nodes' counts.
  const int flows = scratch_.node_flows[static_cast<size_t>(
      cluster_->topology().NodeOfFast(gpu))];
  return flows > 1 ? flows : 1;
}

double MinibatchRun::TransferTime(GpuId src, GpuId dst, double bytes) const {
  const int flows = std::max(ConcurrentFlows(src), ConcurrentFlows(dst));
  if (options_.sample_network) {
    return cluster_->network().SampleTransferTime(src, dst, bytes, flows, rng_);
  }
  return cluster_->network().MeanTransferTime(src, dst, bytes, flows);
}

double MinibatchRun::AllReduceTime(const std::vector<GpuId>& members, double bytes,
                                   int concurrent) const {
  if (options_.sample_network) {
    return cluster_->network().SampleAllReduceTime(members, bytes, concurrent, rng_);
  }
  return cluster_->network().MeanAllReduceTime(members, bytes, concurrent);
}

bool MinibatchRun::Runnable(const Worker& worker, const PipeOp& op) const {
  switch (op.type) {
    case PipeOpType::kForward:
      return worker.stage == 0 || worker.act_arrived[static_cast<size_t>(op.microbatch)] != 0;
    case PipeOpType::kRecompute:
      return true;  // Stashed input activation is local (list order guarantees F ran).
    case PipeOpType::kBackward:
      // A backward runs only from the cursor (opportunistic dispatch starts
      // forwards alone), so every op before it, its R(m) included (the
      // validator's R-then-B rule), has finished.
      return worker.grad_arrived[static_cast<size_t>(op.microbatch)] != 0;
    case PipeOpType::kIdleForward:
    case PipeOpType::kIdleBackward:
      return true;
  }
  return false;
}

void MinibatchRun::StartOp(Worker* worker, size_t index) {
  const PipeOp& op = (*worker->ops)[index];
  worker->busy = true;
  if (op.type == PipeOpType::kBackward) {
    worker->committed_backward = -1;
    worker->opportunistic_debt = false;
  }
  const double duration = OpDuration(*worker, op);
  worker->busy_seconds += duration;
  const double start = engine_.now();
  engine_.Schedule(duration, [this, worker, index, start] {
    const PipeOp& finished = (*worker->ops)[index];
    if (options_.record_trace && worker->replica == 0) {
      result_.trace.push_back(ExecTraceOp{worker->stage, finished, start, engine_.now()});
    }
    FinishOp(worker, index);
  });
}

void MinibatchRun::FinishOp(Worker* worker, size_t index) {
  const PipeOp op = (*worker->ops)[index];
  worker->busy = false;
  worker->done[index] = 1;
  double blocking_send = 0.0;  // Non-overlapped implementations stall here.

  switch (op.type) {
    case PipeOpType::kForward: {
      if (IsLast(worker->stage)) {
        // Loss gradient is local; backward is ready and activations are live.
        worker->grad_arrived[static_cast<size_t>(op.microbatch)] = 1;
      } else {
        // Ship the activation to the next stage (overlapped with compute).
        Worker* next = &WorkerAt(worker->replica, worker->stage + 1);
        const double bytes = timings_[static_cast<size_t>(worker->stage)].send_activation_bytes;
        const double delay = TransferTime(worker->gpu, next->gpu, bytes);
        if (!options_.overlap_communication) {
          blocking_send = std::max(blocking_send, delay);
        }
        engine_.Schedule(delay, [this, next, op] {
          next->act_arrived[static_cast<size_t>(op.microbatch)] = 1;
          TryDispatch(next);
        });
      }
      break;
    }
    case PipeOpType::kRecompute:
      worker->committed_backward = op.microbatch;  // Rule 2.
      break;
    case PipeOpType::kBackward: {
      if (worker->stage > 0) {
        Worker* previous = &WorkerAt(worker->replica, worker->stage - 1);
        // The gradient w.r.t. the stage input has the same shape as the
        // activation the previous stage sent.
        const double bytes =
            timings_[static_cast<size_t>(worker->stage) - 1].send_activation_bytes;
        const double delay = TransferTime(worker->gpu, previous->gpu, bytes);
        if (!options_.overlap_communication) {
          blocking_send = std::max(blocking_send, delay);
        }
        engine_.Schedule(delay, [this, previous, op] {
          previous->grad_arrived[static_cast<size_t>(op.microbatch)] = 1;
          TryDispatch(previous);
        });
      }
      break;
    }
    case PipeOpType::kIdleForward:
    case PipeOpType::kIdleBackward:
      break;
  }

  // Advance past completed ops; detect worker completion.
  while (worker->cursor < worker->ops->size() && worker->done[worker->cursor] != 0) {
    ++worker->cursor;
  }
  if (worker->cursor >= worker->ops->size()) {
    worker->finished = true;
    worker->finish_time = engine_.now();
    return;
  }
  if (blocking_send > 0.0) {
    // The stage's compute thread is parked until the synchronous send drains.
    worker->busy = true;
    worker->busy_seconds += blocking_send;
    engine_.Schedule(blocking_send, [this, worker] {
      worker->busy = false;
      TryDispatch(worker);
    });
    return;
  }
  TryDispatch(worker);
}

void MinibatchRun::TryDispatch(Worker* worker) {
  if (worker->busy || worker->finished) {
    return;
  }
  // Skip already-completed ops (possible after opportunistic deviation).
  while (worker->cursor < worker->ops->size() && worker->done[worker->cursor] != 0) {
    ++worker->cursor;
  }
  if (worker->cursor >= worker->ops->size()) {
    return;
  }
  const PipeOp& next = (*worker->ops)[worker->cursor];
  if (Runnable(*worker, next)) {
    StartOp(worker, worker->cursor);
    return;
  }
  // Opportunistic deviation (§3.2): "the schedule for stage k may indicate
  // that the backward pass for micro-batch m must be scheduled, but the
  // gradients for m may not have arrived yet; in those cases, Varuna deviates
  // from the schedule and opportunistically schedules another ready task
  // (e.g., forward pass)". While committed to a post-recompute backward
  // (rule 2) at most one forward may slip in — its working set briefly
  // coexists with the recomputed activations, which the working-set budget
  // tolerates; an unbounded run-ahead would not be.
  if (!schedule_.opportunistic) {
    return;
  }
  if (worker->committed_backward >= 0 && worker->opportunistic_debt) {
    return;
  }
  for (size_t i = worker->cursor; i < worker->ops->size(); ++i) {
    if (worker->done[i] != 0) {
      continue;
    }
    const PipeOp& op = (*worker->ops)[i];
    if (op.type != PipeOpType::kForward) {
      continue;
    }
    if (Runnable(*worker, op)) {
      worker->opportunistic_debt = worker->committed_backward >= 0;
      StartOp(worker, i);
    }
    // Forwards must stay in order: only the first pending forward qualifies.
    break;
  }
}

void MinibatchRun::PrepareScratch() {
  engine_.Reset();

  // How many job GPUs share each node's NIC (flow-concurrency estimate).
  // Zero exactly the placement's nodes (other entries are stale, never read),
  // then count.
  const Topology& topology = cluster_->topology();
  if (scratch_.node_flows.size() < static_cast<size_t>(topology.num_nodes())) {
    scratch_.node_flows.resize(static_cast<size_t>(topology.num_nodes()), 0);
  }
  for (int r = 0; r < replicas(); ++r) {
    for (int s = 0; s < depth(); ++s) {
      scratch_.node_flows[static_cast<size_t>(topology.NodeOfFast(placement_.At(r, s)))] = 0;
    }
  }
  for (int r = 0; r < replicas(); ++r) {
    for (int s = 0; s < depth(); ++s) {
      ++scratch_.node_flows[static_cast<size_t>(topology.NodeOfFast(placement_.At(r, s)))];
    }
  }

  // Carve all per-worker flag spans out of one zeroed arena.
  const size_t microbatches = static_cast<size_t>(schedule_.num_microbatches);
  size_t flag_bytes = 0;
  for (int s = 0; s < depth(); ++s) {
    flag_bytes += schedule_.ops[static_cast<size_t>(s)].size() + 2 * microbatches;
  }
  flag_bytes *= static_cast<size_t>(replicas());
  if (scratch_.flags.size() < flag_bytes) {
    scratch_.flags.resize(flag_bytes);
  }
  std::memset(scratch_.flags.data(), 0, flag_bytes);

  workers_.resize(static_cast<size_t>(replicas()) * depth());
  unsigned char* arena = scratch_.flags.data();
  for (int r = 0; r < replicas(); ++r) {
    for (int s = 0; s < depth(); ++s) {
      Worker& worker = WorkerAt(r, s);
      worker = Worker{};
      worker.replica = r;
      worker.stage = s;
      worker.gpu = placement_.At(r, s);
      worker.slow_factor = cluster_->SlowFactor(worker.gpu);
      worker.ops = &schedule_.ops[static_cast<size_t>(s)];
      worker.done = arena;
      arena += worker.ops->size();
      worker.act_arrived = arena;
      arena += microbatches;
      worker.grad_arrived = arena;
      arena += microbatches;
    }
  }

  scratch_.stage_end.assign(static_cast<size_t>(depth()), 0.0);
}

MinibatchResult MinibatchRun::Execute() {
  VARUNA_CHECK_EQ(schedule_.depth, placement_.pipeline_depth);
  VARUNA_CHECK_EQ(static_cast<int>(timings_.size()), schedule_.depth);

  // Bracket the whole run, not just PrepareScratch(): the engine's pool and
  // heap and the collective buffers grow while the run is in flight.
  const size_t capacity_before = scratch_.Capacity();
  PrepareScratch();

  for (auto& worker : workers_) {
    TryDispatch(&worker);
  }
  engine_.Run();

  double pipeline_end = 0.0;
  double busy_fraction_sum = 0.0;
  std::vector<double>& stage_end = scratch_.stage_end;
  for (const auto& worker : workers_) {
    VARUNA_CHECK(worker.finished) << "pipeline deadlock: replica " << worker.replica
                                  << " stage " << worker.stage << " stalled at op "
                                  << worker.cursor;
    pipeline_end = std::max(pipeline_end, worker.finish_time);
    stage_end[static_cast<size_t>(worker.stage)] =
        std::max(stage_end[static_cast<size_t>(worker.stage)], worker.finish_time);
    busy_fraction_sum += worker.busy_seconds;
  }

  // End-of-mini-batch collectives. Each stage's data-parallel ring allreduce
  // starts once all its replicas finished; rings of co-located stages run
  // concurrently, which the k-flows NIC sharing inside Network captures.
  double collectives_end = pipeline_end;
  result_.allreduce_time_s = 0.0;
  std::vector<GpuId>& ring = scratch_.ring;
  for (int s = 0; s < depth(); ++s) {
    ring.clear();
    for (int r = 0; r < replicas(); ++r) {
      ring.push_back(placement_.At(r, s));
    }
    const double time = AllReduceTime(ring, timings_[static_cast<size_t>(s)].grad_allreduce_bytes,
                                      ConcurrentFlows(ring[0]));
    result_.allreduce_time_s = std::max(result_.allreduce_time_s, time);
    collectives_end = std::max(collectives_end, stage_end[static_cast<size_t>(s)] + time);
  }

  // Cross-partition shared-state sync over each pipeline's process group
  // (first and last stage hold the tied embedding).
  double sync = 0.0;
  if (options_.shared_state_sync_bytes > 0.0 && depth() > 1) {
    std::vector<GpuId>& group = scratch_.group;
    group.resize(2);
    for (int r = 0; r < replicas(); ++r) {
      group[0] = placement_.At(r, 0);
      group[1] = placement_.At(r, depth() - 1);
      sync = std::max(sync, AllReduceTime(group, options_.shared_state_sync_bytes, 1));
    }
  }
  if (options_.cpu_offload_optimizer && options_.cpu_offload_bytes_per_stage > 0.0) {
    // Optimizer state shuttles GPU->CPU->GPU over PCIe at mini-batch end.
    sync += 2.0 * options_.cpu_offload_bytes_per_stage / kPcieBandwidthBps;
  }
  result_.sync_time_s = sync;

  result_.pipeline_time_s = pipeline_end;
  result_.total_time_s = collectives_end + sync;
  result_.examples = static_cast<double>(microbatch_size_) * schedule_.num_microbatches *
                     replicas();
  result_.mean_busy_fraction =
      pipeline_end > 0.0
          ? busy_fraction_sum / (static_cast<double>(workers_.size()) * pipeline_end)
          : 0.0;
  if (scratch_.Capacity() > capacity_before) {
    ++scratch_.growths;
  }
  if (options_.record_trace) {
    result_.trace_allreduce_start = pipeline_end;
    result_.trace_allreduce_end = result_.total_time_s;
    std::sort(result_.trace.begin(), result_.trace.end(),
              [](const ExecTraceOp& a, const ExecTraceOp& b) { return a.start < b.start; });
  }
  return result_;
}

}  // namespace

PipelineExecutor::PipelineExecutor(const Cluster* cluster, Rng* rng)
    : cluster_(cluster), rng_(rng), scratch_(new ExecutorScratch()) {}

PipelineExecutor::~PipelineExecutor() = default;

uint64_t PipelineExecutor::scratch_growths() const { return scratch_->growths; }

MinibatchResult PipelineExecutor::Run(const Schedule& schedule, const Placement& placement,
                                      const std::vector<StageTiming>& timings,
                                      int microbatch_size, const ExecutorOptions& options) {
  MinibatchRun run(cluster_, rng_, scratch_.get(), schedule, placement, timings,
                   microbatch_size, options);
  MinibatchResult result = run.Execute();
  events_processed_ += scratch_->engine.events_processed();
  return result;
}

}  // namespace varuna
