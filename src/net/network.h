// Point-to-point transfer timing and ring-allreduce cost model on top of a
// Topology. Two entry points per quantity:
//   * Sample...  — draws jitter/stalls from an Rng; used by the DES testbed.
//   * Mean...    — expectation only; used by analytical baselines.
// Varuna's own fast simulator uses neither directly: it consumes values that
// the calibrator *measured* on the sampled testbed (§4.3).
//
// Performance: the testbed executor prices a ring for every mini-batch
// allreduce. Each call walks the ring's D hops once through
// Topology::PairClass (two flat loads per hop) to find the slowest hop; the
// jitter/stall amplification of the per-step latency is computed only by the
// analytic MeanAllReduceTime. Network holds nothing but the topology pointer,
// so a const Network is read-only and safe to share across threads.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/net/topology.h"

namespace varuna {

class Network {
 public:
  // Cross-node flows from one node share its NIC. The `concurrent_flows`
  // argument to the transfer functions says how many flows the caller expects
  // to be in flight on the same NIC (the §4.3 calibration micro-benchmark
  // measures allreduce with k concurrent rings).
  explicit Network(const Topology* topology) : topology_(topology) {}

  // Effective bandwidth for one flow between the two GPUs, with
  // `concurrent_flows` flows sharing each NIC involved (>= 1).
  double FlowBandwidth(GpuId src, GpuId dst, int concurrent_flows) const;

  // Mean one-way latency between the two GPUs.
  double MeanLatency(GpuId src, GpuId dst) const;

  // Expected transfer time of `bytes` between the GPUs.
  double MeanTransferTime(GpuId src, GpuId dst, double bytes, int concurrent_flows) const;

  // Transfer time with sampled latency jitter and tail stalls. Requires
  // concurrent_flows >= 1.
  double SampleTransferTime(GpuId src, GpuId dst, double bytes, int concurrent_flows,
                            Rng* rng) const;
  // Fills `out` with out.size() SampleTransferTime draws, in order and bit for
  // bit, resolving the link class and serialization time once. Batches of
  // eight or more cross-node draws walk the stream first and evaluate libm
  // after (GaussianBatch, src/common/rng.h); so do SampleAllReduceTime's hops.
  void SampleTransferTimes(GpuId src, GpuId dst, double bytes, int concurrent_flows, Rng* rng,
                           std::span<double> out) const;

  // Bandwidth-optimal ring allreduce of `bytes` across `members` (Patarasuk &
  // Yuan): 2(D-1) steps, each moving bytes/D over the slowest ring link.
  // `concurrent_rings` models k allreduces in flight sharing NICs (§4.3).
  // With a single member this is free.
  double MeanAllReduceTime(const std::vector<GpuId>& members, double bytes,
                           int concurrent_rings) const;
  // Draw-stream contract: rings with more than 64 members fall back to the
  // analytic mean and consume ZERO draws from `rng` — the per-step explicit
  // max over D hop samples is O(D^2) draws and only the evaluation-scale
  // rings warrant it. Callers may therefore change a ring's size across the
  // threshold without perturbing any downstream consumer of the same Rng
  // beyond the draws of the <= 64 case itself.
  double SampleAllReduceTime(const std::vector<GpuId>& members, double bytes,
                             int concurrent_rings, Rng* rng) const;

 private:
  // Slowest link time parameters around the ring formed by `members` in order.
  struct RingStep {
    double bandwidth = 0.0;   // bytes/sec of the slowest hop
    double latency_s = 0.0;   // mean latency (seconds) of the slowest hop
    bool crosses_node = false;
  };

  // One walk over the ring's hops. The tie-break is value-canonical (lowest
  // bandwidth, then highest latency, then crosses_node), so rotations,
  // reversals and same-spec substitutions of a ring price bit-identically.
  // Same-GPU hops move no data and are skipped; a ring whose members are all
  // one GPU reports that GPU's intra-node link.
  RingStep SlowestHop(const std::vector<GpuId>& members, int concurrent_rings) const;

  const Topology* topology_;
};

}  // namespace varuna

#endif  // SRC_NET_NETWORK_H_
