#include "src/net/network.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/check.h"

namespace varuna {
namespace {

// Fraction of a tail stall that a chunk-pipelined ring collective cannot
// hide (the rest overlaps with other chunks' transfers). A point-to-point
// transfer waits out its whole stall.
constexpr double kRingStallExposure = 0.35;
constexpr double kTransferStallExposure = 1.0;

// Latency batches shorter than this draw one message at a time: the two-pass
// bookkeeping costs more than grouping the libm work saves on a few draws
// (measured on commodity-fabric draws: per draw wins at 4, two passes at 8).
constexpr size_t kMinBatchLatencies = 8;

// The per-message latency expression, shared by the per-draw and two-pass
// paths: the fabric's base latency with log-normal jitter from the Gaussian
// `g`, and a stall of `stall_exposure` times Exponential(stall_mean_s) from
// the NextLogUniform() draw `stall_u`.
double JitteredLatency(const FabricSpec& fabric, double g) {
  return Rng::LogNormalOf(fabric.base_latency_s, fabric.jitter_sigma, g);
}
double StallDelay(const FabricSpec& fabric, double stall_exposure, double stall_u) {
  return stall_exposure * Rng::ExponentialOf(fabric.stall_mean_s, stall_u);
}

// One cross-node message's latency, drawn in stream order: the jitter's
// Gaussian (when jitter_sigma > 0), the stall's Bernoulli (when
// stall_probability > 0) and, when it stalls, the stall's uniform.
double SampleLatency(const FabricSpec& fabric, double stall_exposure, Rng* rng) {
  double latency =
      fabric.jitter_sigma > 0.0 ? JitteredLatency(fabric, rng->Gaussian()) : fabric.base_latency_s;
  if (fabric.stall_probability > 0.0 && rng->Bernoulli(fabric.stall_probability)) {
    latency += StallDelay(fabric, stall_exposure, rng->NextLogUniform());
  }
  return latency;
}

// SampleLatency for `count` <= GaussianBatch::kCapacity messages, in two
// passes: the first walks the stream in SampleLatency's order and records the
// draws; the second evaluates the jitter and stall terms in flat loops and
// hands each latency, in order, to `sink`. kJittered and kStalling say
// whether jitter_sigma and stall_probability are positive; as template
// arguments they keep the per-draw loop free of tests.
template <bool kJittered, bool kStalling, typename Sink>
void SampleLatencyChunk(const FabricSpec& shared_fabric, double stall_exposure, Rng* rng,
                        size_t count, Sink& sink) {
  // A local copy: no store through the sink can alias it, so its fields stay
  // in registers.
  const FabricSpec fabric = shared_fabric;
  GaussianBatch jitter;
  std::array<uint8_t, GaussianBatch::kCapacity> stalled;
  std::array<double, GaussianBatch::kCapacity> stall_u;
  size_t stalls = 0;
  for (size_t i = 0; i < count; ++i) {
    if constexpr (kJittered) {
      jitter.Draw(*rng);
    }
    if constexpr (kStalling) {
      if (rng->Bernoulli(fabric.stall_probability)) {
        stalled[stalls] = static_cast<uint8_t>(i);
        stall_u[stalls++] = rng->NextLogUniform();
      }
    }
  }
  std::array<double, GaussianBatch::kCapacity> latency;
  if constexpr (kJittered) {
    const std::span<const double> g = jitter.Evaluate(*rng);
    for (size_t i = 0; i < count; ++i) {
      latency[i] = JitteredLatency(fabric, g[i]);
    }
  } else {
    std::fill_n(latency.begin(), count, fabric.base_latency_s);
  }
  for (size_t s = 0; s < stalls; ++s) {
    latency[stalled[s]] += StallDelay(fabric, stall_exposure, stall_u[s]);
  }
  for (size_t i = 0; i < count; ++i) {
    sink(latency[i]);
  }
}

// Draws `count` SampleLatency values, in order and bit for bit, and hands
// each to `sink`: one at a time below kMinBatchLatencies, else in two-pass
// chunks of GaussianBatch::kCapacity.
template <typename Sink>
void SampleLatencies(const FabricSpec& fabric, double stall_exposure, Rng* rng, size_t count,
                     Sink&& sink) {
  if (count < kMinBatchLatencies) {
    for (size_t i = 0; i < count; ++i) {
      sink(SampleLatency(fabric, stall_exposure, rng));
    }
    return;
  }
  const bool jittered = fabric.jitter_sigma > 0.0;
  const bool stalling = fabric.stall_probability > 0.0;
  for (size_t left = count; left > 0;) {
    const size_t chunk = std::min<size_t>(GaussianBatch::kCapacity, left);
    if (jittered && stalling) {
      SampleLatencyChunk<true, true>(fabric, stall_exposure, rng, chunk, sink);
    } else if (jittered) {
      SampleLatencyChunk<true, false>(fabric, stall_exposure, rng, chunk, sink);
    } else if (stalling) {
      SampleLatencyChunk<false, true>(fabric, stall_exposure, rng, chunk, sink);
    } else {
      SampleLatencyChunk<false, false>(fabric, stall_exposure, rng, chunk, sink);
    }
    left -= chunk;
  }
}

}  // namespace

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
  double* time = out.data();
  SampleLatencies(topology_->fabric(), kTransferStallExposure, rng, out.size(),
                  [&](double latency) { *time++ = latency + serialization; });
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
  // Step-major hop latencies: each step adds its slowest hop, in step order.
  const size_t hops = members.size();
  double total = 0.0;
  double slowest = 0.0;
  size_t hop_index = 0;
  SampleLatencies(fabric, kRingStallExposure, rng, static_cast<size_t>(steps) * hops,
                  [&](double latency) {
                    slowest = std::max(slowest, latency);
                    if (++hop_index == hops) {
                      total += bytes_term + slowest;
                      slowest = 0.0;
                      hop_index = 0;
                    }
                  });
  return total;
}

}  // namespace varuna
