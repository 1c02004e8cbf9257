#include "src/net/network.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace varuna {

// Fraction of a tail stall that a chunk-pipelined ring collective cannot
// hide (the rest overlaps with other chunks' transfers).
constexpr double kRingStallExposure = 0.35;

double Network::FlowBandwidth(GpuId src, GpuId dst, int concurrent_flows) const {
  VARUNA_CHECK_GE(concurrent_flows, 1);
  if (src == dst) {
    // Loopback copies are not modelled; treat as effectively instantaneous by
    // giving them intra-node bandwidth.
    return topology_->Node(topology_->NodeOf(src)).intra_bandwidth_bps;
  }
  const LinkClass link =
      topology_->PairClass(topology_->NodeOfFast(src), topology_->NodeOfFast(dst));
  if (!link.crosses_node) {
    return link.bandwidth_bps;
  }
  // Both NICs split across the concurrent flows; the fabric caps each flow.
  const double nic_share = link.bandwidth_bps / concurrent_flows;
  return std::min(nic_share, topology_->fabric().per_flow_bandwidth_bps);
}

double Network::MeanLatency(GpuId src, GpuId dst) const {
  if (src == dst) {
    return 0.0;
  }
  return topology_->PairClass(topology_->NodeOfFast(src), topology_->NodeOfFast(dst))
      .latency_s;
}

double Network::MeanTransferTime(GpuId src, GpuId dst, double bytes,
                                 int concurrent_flows) const {
  VARUNA_CHECK_GE(bytes, 0.0);
  if (src == dst) {
    return 0.0;
  }
  return MeanLatency(src, dst) + bytes / FlowBandwidth(src, dst, concurrent_flows);
}

double Network::MeanParallelTransferTime(
    const std::vector<std::pair<GpuId, GpuId>>& flows, double flow_bytes) const {
  double slowest = 0.0;
  const int concurrent = static_cast<int>(flows.size());
  for (const auto& [src, dst] : flows) {
    slowest = std::max(slowest, MeanTransferTime(src, dst, flow_bytes, concurrent));
  }
  return slowest;
}

double Network::SampleTransferTime(GpuId src, GpuId dst, double bytes, int concurrent_flows,
                                   Rng* rng) const {
  double time = 0.0;
  SampleTransferTimes(src, dst, bytes, concurrent_flows, rng, std::span<double>(&time, 1));
  return time;
}

void Network::SampleTransferTimes(GpuId src, GpuId dst, double bytes, int concurrent_flows,
                                  Rng* rng, std::span<double> out) const {
  VARUNA_CHECK_GE(bytes, 0.0);
  VARUNA_CHECK_GE(concurrent_flows, 1);
  if (src == dst) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const LinkClass link =
      topology_->PairClass(topology_->NodeOfFast(src), topology_->NodeOfFast(dst));
  if (!link.crosses_node) {
    std::fill(out.begin(), out.end(), link.latency_s + bytes / link.bandwidth_bps);
    return;
  }
  const double bandwidth =
      std::min(link.bandwidth_bps / concurrent_flows, topology_->fabric().per_flow_bandwidth_bps);
  const double serialization = bytes / bandwidth;
  const FabricSpec& fabric = topology_->fabric();
  for (double& time : out) {
    double latency = fabric.jitter_sigma > 0.0
                         ? rng->LogNormalMedian(fabric.base_latency_s, fabric.jitter_sigma)
                         : fabric.base_latency_s;
    if (fabric.stall_probability > 0.0 && rng->Bernoulli(fabric.stall_probability)) {
      latency += rng->Exponential(fabric.stall_mean_s);
    }
    time = latency + serialization;
  }
}

Network::RingStep Network::SlowestHop(const std::vector<GpuId>& members,
                                      int concurrent_rings) const {
  VARUNA_CHECK_GE(concurrent_rings, 1);
  RingStep slowest;
  bool seeded = false;
  for (size_t i = 0; i < members.size(); ++i) {
    const GpuId a = members[i];
    const GpuId b = members[(i + 1) % members.size()];
    if (a == b) {
      continue;
    }
    const LinkClass link =
        topology_->PairClass(topology_->NodeOfFast(a), topology_->NodeOfFast(b));
    RingStep step;
    step.crosses_node = link.crosses_node;
    step.latency_s = link.latency_s;
    // Both NICs split across the concurrent rings; the fabric caps each flow.
    step.bandwidth = link.crosses_node ? std::min(link.bandwidth_bps / concurrent_rings,
                                                  topology_->fabric().per_flow_bandwidth_bps)
                                       : link.bandwidth_bps;
    const bool slower =
        !seeded || step.bandwidth < slowest.bandwidth ||
        (step.bandwidth == slowest.bandwidth &&
         (step.latency_s > slowest.latency_s ||
          (step.latency_s == slowest.latency_s && step.crosses_node &&
           !slowest.crosses_node)));
    if (slower) {
      seeded = true;
      slowest = step;
    }
  }
  if (!seeded) {
    // Every member is the same GPU: no hop ever moves data.
    const NodeSpec& node = topology_->Node(topology_->NodeOf(members[0]));
    slowest.bandwidth = node.intra_bandwidth_bps;
    slowest.latency_s = node.intra_latency_s;
  }
  return slowest;
}

double Network::MeanAllReduceTime(const std::vector<GpuId>& members, double bytes,
                                  int concurrent_rings) const {
  VARUNA_CHECK(!members.empty());
  if (members.size() == 1 || bytes <= 0.0) {
    return 0.0;
  }
  const double d = static_cast<double>(members.size());
  const RingStep hop = SlowestHop(members, concurrent_rings);
  // Each synchronous ring step completes when the *slowest* of the D
  // concurrent hop messages lands, so latency jitter and tail stalls amplify
  // with ring size — the reason large data-parallel widths are expensive on
  // commodity networks (Observation 2).
  double step_latency = hop.latency_s;
  if (hop.crosses_node) {
    const FabricSpec& fabric = topology_->fabric();
    // E[max of D log-normal latencies] ~ median * exp(sigma * sqrt(2 ln D)).
    double latency = fabric.base_latency_s;
    if (fabric.jitter_sigma > 0.0 && d >= 2.0) {
      latency *= std::exp(fabric.jitter_sigma * std::sqrt(2.0 * std::log(d)));
    }
    double stall = 0.0;
    if (fabric.stall_probability > 0.0) {
      // NCCL-style rings pipeline many chunks, so a stalled message overlaps
      // with other chunks' progress; only ~kRingStallExposure of each stall
      // reaches the critical path.
      stall = kRingStallExposure *
              (1.0 - std::pow(1.0 - fabric.stall_probability, d)) * fabric.stall_mean_s;
    }
    step_latency = latency + stall;
  }
  const double steps = 2.0 * (d - 1.0);
  return steps * (bytes / d / hop.bandwidth + step_latency);
}

double Network::SampleAllReduceTime(const std::vector<GpuId>& members, double bytes,
                                    int concurrent_rings, Rng* rng) const {
  VARUNA_CHECK(!members.empty());
  if (members.size() == 1 || bytes <= 0.0) {
    return 0.0;
  }
  const double d = static_cast<double>(members.size());
  const RingStep hop = SlowestHop(members, concurrent_rings);
  const int steps = static_cast<int>(2.0 * (d - 1.0));
  const double bytes_term = bytes / d / hop.bandwidth;
  if (!hop.crosses_node) {
    return steps * (bytes_term + hop.latency_s);
  }
  const FabricSpec& fabric = topology_->fabric();
  // Draw each step's slowest hop explicitly: O(D^2) draws, fine for the ring
  // sizes the evaluation uses; fall back to the analytic mean for huge rings.
  // Contract (see header): this branch consumes ZERO draws from `rng`.
  if (d > 64.0) {
    return MeanAllReduceTime(members, bytes, concurrent_rings);
  }
  double total = 0.0;
  for (int step = 0; step < steps; ++step) {
    double slowest = 0.0;
    for (int hop_index = 0; hop_index < static_cast<int>(d); ++hop_index) {
      double latency = fabric.jitter_sigma > 0.0
                           ? rng->LogNormalMedian(fabric.base_latency_s, fabric.jitter_sigma)
                           : fabric.base_latency_s;
      if (fabric.stall_probability > 0.0 && rng->Bernoulli(fabric.stall_probability)) {
        latency += kRingStallExposure * rng->Exponential(fabric.stall_mean_s);
      }
      slowest = std::max(slowest, latency);
    }
    total += bytes_term + slowest;
  }
  return total;
}

}  // namespace varuna
