// Scale-invariant calibration (§4.3, Table 2). A one-time profiling step
// measures primitive, mutually-orthogonal parameters on a *small sample* of
// the cluster — per-cut-point compute times F_i(m)/B_i(m), activation and
// gradient transfer latencies (intra- and cross-node, including jitter), and
// a ring-allreduce model fitted from a few ring sizes. The parameters are
// independent of the total GPU count G, so they are measured once at job
// start and reused across every morphing decision.
#ifndef SRC_MORPH_CALIBRATION_H_
#define SRC_MORPH_CALIBRATION_H_

#include <cmath>
#include <cstdint>
#include <variant>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/model/cutpoints.h"

namespace varuna {

// Measurements for one cut-point section C_i. Every table is indexed like
// Calibration::microbatch_sizes(): entry k is the time at the k-th profiled
// micro-batch size.
struct SectionCalibration {
  // Measured seconds (mean over profiling runs).
  std::vector<double> forward_s;
  std::vector<double> backward_s;
  // Activation/gradient transfer time for this section's boundary.
  // Cross-node times include mean latency and jitter (Table 2 note).
  std::vector<double> send_intra_s;
  std::vector<double> send_inter_s;
  double params = 0.0;
};

// Ring-allreduce model fitted from profiled runs at two ring sizes:
//   AR(D, S) = 2 (D-1) (S / (D * bw) + lat0 + stall_mean * (1 - (1-p)^D)).
// The last term is the tail amplification: each synchronous step waits on the
// slowest of D concurrent hops, so per-message stalls (probability p,
// profiled from the transfer micro-benchmarks) hit nearly every step once D
// is large — the cost that makes wide data parallelism expensive on
// commodity networks (Observation 2).
struct AllReduceModel {
  double bandwidth_bps = 1.0;
  double step_latency_s = 0.0;
  double stall_probability = 0.0;
  double stall_mean_s = 0.0;

  double StepTail(int ring_size) const {
    if (stall_probability <= 0.0) {
      return 0.0;
    }
    // 0.35: fraction of a stall a chunk-pipelined ring cannot hide (matches
    // the testbed's ring model).
    return 0.35 * stall_mean_s *
           (1.0 - std::pow(1.0 - stall_probability, static_cast<double>(ring_size)));
  }

  double Predict(double bytes, int ring_size) const {
    if (ring_size <= 1 || bytes <= 0.0) {
      return 0.0;
    }
    const double d = ring_size;
    return 2.0 * (d - 1.0) *
           (bytes / (d * bandwidth_bps) + step_latency_s + StepTail(ring_size));
  }
};

// Tail behaviour of cross-node transfers: with probability `probability` a
// transfer takes an extra `mean_s` (TCP retransmission timeouts). Profiled
// from the same micro-benchmarks; the fast simulator replays the tail because
// stalls on the gradient-dependency chain do not average out (Table 2: times
// "include mean latency and jitter").
struct SendStallModel {
  double probability = 0.0;
  double mean_s = 0.0;  // Mean excess of a detected stall.
  // Detected stalls decompose as detection-threshold offset + an exponential
  // tail; replaying the exact conditional distribution matters because path
  // impact is convex in stall size.
  double offset_s = 0.0;
  double scale_s = 0.0;
};

// Both knobs stay options because CalibrationGoldenTest's small rows profile
// fewer sizes with fewer network samples.
struct CalibrationOptions {
  std::vector<int> microbatch_sizes = {1, 2, 4, 8, 16};
  // Network micro-benchmarks are cheap; more samples pin down the tail.
  int network_samples = 200;

  // Rejects an empty, duplicated or non-positive `microbatch_sizes` and
  // `network_samples < 1`; each message starts with the field's name.
  Result<std::monostate> Validate() const;
};

// The profiled parameters, immutable once built: only `Calibrate` constructs
// a populated one, and callers see const views. A whole calibration can still
// be replaced by assignment (a recalibration), which carries the new
// fingerprint with it.
class Calibration {
 public:
  // An empty calibration (no sections); `Calibrate` builds real ones.
  Calibration();

  const std::vector<SectionCalibration>& sections() const { return sections_; }
  const AllReduceModel& allreduce() const { return allreduce_; }
  // Micro-batch sizes that were profiled (ascending, distinct).
  const std::vector<int>& microbatch_sizes() const { return microbatch_sizes_; }
  const SendStallModel& send_stall() const { return send_stall_; }

  // Linear interpolation/extension over the profiled m values.
  double ForwardTime(int section, int m) const;
  double BackwardTime(int section, int m) const;
  double SendTime(int section, int m, bool cross_node) const;

  // FNV-1a over every calibrated scalar (doubles hashed via their IEEE-754
  // bits), computed once at construction. Memoized search results are keyed
  // on this, so *any* recalibration — even one changing a single profiled
  // point — invalidates them.
  uint64_t Fingerprint() const { return fingerprint_; }

 private:
  friend Result<Calibration> Calibrate(const ModelSections& sections, const Cluster& cluster,
                                       const CalibrationOptions& options, Rng* rng);

  Calibration(std::vector<SectionCalibration> sections, const AllReduceModel& allreduce,
              std::vector<int> microbatch_sizes, const SendStallModel& send_stall);

  uint64_t ComputeFingerprint() const;

  std::vector<SectionCalibration> sections_;
  AllReduceModel allreduce_;
  std::vector<int> microbatch_sizes_;
  SendStallModel send_stall_;
  uint64_t fingerprint_ = 0;
};

// Runs the calibration micro-benchmarks against the cluster sample. Needs at
// least 4 active GPUs (2 nodes) to measure cross-node paths and fit the
// allreduce model; fails otherwise. Also fails, before drawing anything, on
// options that CalibrationOptions::Validate rejects.
Result<Calibration> Calibrate(const ModelSections& sections, const Cluster& cluster,
                              const CalibrationOptions& options, Rng* rng);

}  // namespace varuna

#endif  // SRC_MORPH_CALIBRATION_H_
