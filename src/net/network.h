// Point-to-point transfer timing and ring-allreduce cost model on top of a
// Topology. Two entry points per quantity:
//   * Sample...  — draws jitter/stalls from an Rng; used by the DES testbed.
//   * Mean...    — expectation only; used by analytical baselines.
// Varuna's own fast simulator uses neither directly: it consumes values that
// the calibrator *measured* on the sampled testbed (§4.3).
//
// Performance: the testbed executor resolves a ring's slowest-hop parameters
// for every mini-batch allreduce, and re-walking the ring is O(D) pair
// resolutions each time. Since the topology is append-only (node specs never
// change once added), the slowest hop and the derived per-step latency are
// memoized by canonical ring *shape class*: the multiset of hop link classes
// (Topology::LinkClassOf vocabulary), the member count, and concurrent_rings
// (plus the sole member's node class for degenerate all-same-GPU rings).
// Every quantity in RingCosts is a function of exactly those inputs, so
// rotations, reversals, and substitutions of same-class GPUs all map to one
// entry — morphed rings re-hit instead of re-paying the walk. Entries never
// invalidate. The memo is deliberately unsynchronized: the cost models run on
// the session's single DES thread (the pooled config sweep consumes
// calibrated values through FastSimulator instead).
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
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

  // Expected completion time of `flows` point-to-point transfers of
  // `flow_bytes` each, all in flight at once and sharing NICs with each
  // other: the max over flows, each priced with concurrent_flows =
  // flows.size(). The recovery path prices peer-restore shard pulls and
  // live-handoff streams this way. Empty `flows` is free.
  double MeanParallelTransferTime(const std::vector<std::pair<GpuId, GpuId>>& flows,
                                  double flow_bytes) const;

  // Transfer time with sampled latency jitter and tail stalls. Requires
  // concurrent_flows >= 1.
  double SampleTransferTime(GpuId src, GpuId dst, double bytes, int concurrent_flows,
                            Rng* rng) const;
  // Fills `out` with out.size() SampleTransferTime draws, in order and bit for
  // bit, resolving the link class and serialization time once.
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

  // Ring-cost memo counters (SessionStats mirrors these into the bench JSON).
  uint64_t ring_cache_hits() const { return ring_cache_hits_; }
  uint64_t ring_cache_misses() const { return ring_cache_misses_; }

 private:
  // Slowest link time parameters around the ring formed by `members` in order.
  struct RingStep {
    double bandwidth = 0.0;   // bytes/sec of the slowest hop
    double latency_s = 0.0;   // mean latency (seconds) of the slowest hop
    bool crosses_node = false;
  };
  // Everything about a ring that does not depend on the payload size: the
  // slowest hop and the jitter/stall-amplified expected per-step latency.
  struct RingCosts {
    RingStep hop;
    double mean_step_latency_s = 0.0;
  };

  // A *hop class* is the link-class pair an adjacent ring hop resolves to:
  // intra-node hops carry the node's link class, cross-node hops the unordered
  // pair of endpoint classes (the cost model only reads min NIC + fabric).
  // Classes are interned per Network in first-encounter order; the ids are
  // private to this instance's memo and never observable in any output.
  struct HopClass {
    int class_lo = 0;
    int class_hi = 0;
    bool crosses_node = false;
  };

  // Canonical ring shape key. Two rings with the same key have bit-identical
  // RingCosts: the slowest hop is a value-canonical min over the hop-class
  // set, the bytes term divides by `size`, and the jitter/stall amplification
  // reads only `size` and crosses_node. `profile` is the sorted multiset of
  // (hop_class_id << 32 | hop count); same-GPU hops move no data and are
  // excluded, so an all-same-GPU ring has an empty profile and is keyed by
  // its sole member's node link class instead.
  struct ShapeKey {
    uint32_t size = 0;  // member count D
    int concurrent_rings = 0;
    int degenerate_class = -1;
    std::vector<uint64_t> profile;
  };
  struct ShapeKeyView {
    uint32_t size = 0;
    int concurrent_rings = 0;
    int degenerate_class = -1;
    const uint64_t* profile = nullptr;
    size_t profile_size = 0;
  };
  struct ShapeKeyHash {
    using is_transparent = void;
    static size_t HashParts(uint32_t size, int rings, int degenerate_class,
                            const uint64_t* profile, size_t profile_size);
    size_t operator()(const ShapeKey& key) const {
      return HashParts(key.size, key.concurrent_rings, key.degenerate_class,
                       key.profile.data(), key.profile.size());
    }
    size_t operator()(const ShapeKeyView& key) const {
      return HashParts(key.size, key.concurrent_rings, key.degenerate_class, key.profile,
                       key.profile_size);
    }
  };
  struct ShapeKeyEq {
    using is_transparent = void;
    static bool Eq(const ShapeKey& a, uint32_t size, int rings, int degenerate_class,
                   const uint64_t* profile, size_t profile_size) {
      if (a.size != size || a.concurrent_rings != rings ||
          a.degenerate_class != degenerate_class || a.profile.size() != profile_size) {
        return false;
      }
      for (size_t i = 0; i < profile_size; ++i) {
        if (a.profile[i] != profile[i]) {
          return false;
        }
      }
      return true;
    }
    bool operator()(const ShapeKey& a, const ShapeKey& b) const {
      return Eq(a, b.size, b.concurrent_rings, b.degenerate_class, b.profile.data(),
                b.profile.size());
    }
    bool operator()(const ShapeKeyView& a, const ShapeKey& b) const {
      return Eq(b, a.size, a.concurrent_rings, a.degenerate_class, a.profile, a.profile_size);
    }
    bool operator()(const ShapeKey& a, const ShapeKeyView& b) const { return operator()(b, a); }
  };

  // Interns the hop class, growing the table on first encounter. Linear scan:
  // real clusters have a handful of VM types, so the table stays tiny.
  int InternHopClass(int class_lo, int class_hi, bool crosses_node) const;

  // Computes RingCosts from a shape key (slowest hop with the value-canonical
  // tie-break, then the jitter/stall-amplified per-step latency).
  RingCosts ComputeShapeCosts(const ShapeKeyView& key, int num_members) const;

  // Memoized (slowest hop + expected per-step latency) for the ring.
  const RingCosts& RingCostsFor(const std::vector<GpuId>& members, int concurrent_rings) const;

  const Topology* topology_;
  mutable std::unordered_map<ShapeKey, RingCosts, ShapeKeyHash, ShapeKeyEq> ring_cache_;
  mutable std::vector<HopClass> hop_classes_;
  // Reused per-call scratch for the shape walk (counts indexed by hop class).
  mutable std::vector<uint32_t> hop_counts_;
  mutable std::vector<int> touched_classes_;
  mutable std::vector<uint64_t> profile_scratch_;
  mutable uint64_t ring_cache_hits_ = 0;
  mutable uint64_t ring_cache_misses_ = 0;
};

}  // namespace varuna

#endif  // SRC_NET_NETWORK_H_
