#include "src/net/network.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace varuna {

// Fraction of a tail stall that a chunk-pipelined ring collective cannot
// hide (the rest overlaps with other chunks' transfers).
constexpr double kRingStallExposure = 0.35;

size_t Network::ShapeKeyHash::HashParts(uint32_t size, int rings, int degenerate_class,
                                        const uint64_t* profile, size_t profile_size) {
  // FNV-1a over the scalar fields then the sorted hop-class profile.
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(size));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(rings)));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(degenerate_class)));
  for (size_t i = 0; i < profile_size; ++i) {
    mix(profile[i]);
  }
  return static_cast<size_t>(hash);
}

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

int Network::InternHopClass(int class_lo, int class_hi, bool crosses_node) const {
  for (size_t i = 0; i < hop_classes_.size(); ++i) {
    const HopClass& hop = hop_classes_[i];
    if (hop.class_lo == class_lo && hop.class_hi == class_hi &&
        hop.crosses_node == crosses_node) {
      return static_cast<int>(i);
    }
  }
  hop_classes_.push_back(HopClass{class_lo, class_hi, crosses_node});
  hop_counts_.push_back(0);
  return static_cast<int>(hop_classes_.size()) - 1;
}

Network::RingCosts Network::ComputeShapeCosts(const ShapeKeyView& key, int num_members) const {
  RingCosts costs;
  if (key.profile_size == 0) {
    // Degenerate ring (every member is the same GPU): no hop ever moves data;
    // report the member's intra-node link.
    const NodeSpec& node = topology_->LinkClassSpec(key.degenerate_class);
    costs.hop.bandwidth = node.intra_bandwidth_bps;
    costs.hop.latency_s = node.intra_latency_s;
    costs.mean_step_latency_s = costs.hop.latency_s;
    return costs;
  }
  // Slowest hop over the hop-class set. The tie-break is *value-canonical* —
  // lowest bandwidth, then highest latency, then crosses_node — so the result
  // depends only on the shape key, never on member walk order (a walk-order
  // first-min would make shape keying unsound under rotation/reversal).
  bool seeded = false;
  for (size_t i = 0; i < key.profile_size; ++i) {
    const HopClass& hop = hop_classes_[static_cast<size_t>(key.profile[i] >> 32)];
    RingStep step;
    step.crosses_node = hop.crosses_node;
    if (hop.crosses_node) {
      const NodeSpec& lo = topology_->LinkClassSpec(hop.class_lo);
      const NodeSpec& hi = topology_->LinkClassSpec(hop.class_hi);
      const double nic = lo.nic_bandwidth_bps < hi.nic_bandwidth_bps ? lo.nic_bandwidth_bps
                                                                     : hi.nic_bandwidth_bps;
      // Both NICs split across the concurrent rings; the fabric caps each flow.
      step.bandwidth = std::min(nic / key.concurrent_rings,
                                topology_->fabric().per_flow_bandwidth_bps);
      step.latency_s = topology_->fabric_mean_latency_s();
    } else {
      const NodeSpec& node = topology_->LinkClassSpec(hop.class_lo);
      step.bandwidth = node.intra_bandwidth_bps;
      step.latency_s = node.intra_latency_s;
    }
    const bool slower =
        !seeded || step.bandwidth < costs.hop.bandwidth ||
        (step.bandwidth == costs.hop.bandwidth &&
         (step.latency_s > costs.hop.latency_s ||
          (step.latency_s == costs.hop.latency_s && step.crosses_node &&
           !costs.hop.crosses_node)));
    if (slower) {
      seeded = true;
      costs.hop = step;
    }
  }
  // Each synchronous ring step completes when the *slowest* of the D
  // concurrent hop messages lands, so latency jitter and tail stalls amplify
  // with ring size — the reason large data-parallel widths are expensive on
  // commodity networks (Observation 2).
  costs.mean_step_latency_s = costs.hop.latency_s;
  if (costs.hop.crosses_node) {
    const double d = static_cast<double>(num_members);
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
    costs.mean_step_latency_s = latency + stall;
  }
  return costs;
}

const Network::RingCosts& Network::RingCostsFor(const std::vector<GpuId>& members,
                                                int concurrent_rings) const {
  VARUNA_CHECK_GE(concurrent_rings, 1);
  // Walk the ring once to build the canonical shape profile: count real hops
  // per hop class (same-GPU hops move no data and are skipped), then emit the
  // sorted (class_id << 32 | count) multiset into the reused scratch.
  touched_classes_.clear();
  for (size_t i = 0; i < members.size(); ++i) {
    const GpuId a = members[i];
    const GpuId b = members[(i + 1) % members.size()];
    if (a == b) {
      continue;
    }
    const NodeId node_a = topology_->NodeOfFast(a);
    const NodeId node_b = topology_->NodeOfFast(b);
    const int class_a = topology_->LinkClassOfFast(node_a);
    int hop_id;
    if (node_a == node_b) {
      hop_id = InternHopClass(class_a, class_a, false);
    } else {
      const int class_b = topology_->LinkClassOfFast(node_b);
      hop_id = InternHopClass(class_a < class_b ? class_a : class_b,
                              class_a < class_b ? class_b : class_a, true);
    }
    if (hop_counts_[static_cast<size_t>(hop_id)]++ == 0) {
      touched_classes_.push_back(hop_id);
    }
  }
  ShapeKeyView view;
  view.size = static_cast<uint32_t>(members.size());
  view.concurrent_rings = concurrent_rings;
  profile_scratch_.clear();
  if (touched_classes_.empty()) {
    view.degenerate_class = topology_->LinkClassOfFast(topology_->NodeOfFast(members[0]));
  } else {
    for (const int hop_id : touched_classes_) {
      profile_scratch_.push_back((static_cast<uint64_t>(static_cast<uint32_t>(hop_id)) << 32) |
                                 hop_counts_[static_cast<size_t>(hop_id)]);
      hop_counts_[static_cast<size_t>(hop_id)] = 0;
    }
    std::sort(profile_scratch_.begin(), profile_scratch_.end());
  }
  view.profile = profile_scratch_.data();
  view.profile_size = profile_scratch_.size();

  auto it = ring_cache_.find(view);
  if (it != ring_cache_.end()) {
    ++ring_cache_hits_;
    return it->second;
  }
  ++ring_cache_misses_;
  const RingCosts costs = ComputeShapeCosts(view, static_cast<int>(members.size()));
  ShapeKey key;
  key.size = view.size;
  key.concurrent_rings = view.concurrent_rings;
  key.degenerate_class = view.degenerate_class;
  key.profile.assign(view.profile, view.profile + view.profile_size);
  auto inserted = ring_cache_.emplace(std::move(key), costs);
  return inserted.first->second;
}

double Network::MeanAllReduceTime(const std::vector<GpuId>& members, double bytes,
                                  int concurrent_rings) const {
  VARUNA_CHECK(!members.empty());
  if (members.size() == 1 || bytes <= 0.0) {
    return 0.0;
  }
  const double d = static_cast<double>(members.size());
  const RingCosts& costs = RingCostsFor(members, concurrent_rings);
  const double steps = 2.0 * (d - 1.0);
  return steps * (bytes / d / costs.hop.bandwidth + costs.mean_step_latency_s);
}

double Network::SampleAllReduceTime(const std::vector<GpuId>& members, double bytes,
                                    int concurrent_rings, Rng* rng) const {
  VARUNA_CHECK(!members.empty());
  if (members.size() == 1 || bytes <= 0.0) {
    return 0.0;
  }
  const double d = static_cast<double>(members.size());
  const RingCosts& costs = RingCostsFor(members, concurrent_rings);
  const int steps = static_cast<int>(2.0 * (d - 1.0));
  const double bytes_term = bytes / d / costs.hop.bandwidth;
  if (!costs.hop.crosses_node) {
    return steps * (bytes_term + costs.hop.latency_s);
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
