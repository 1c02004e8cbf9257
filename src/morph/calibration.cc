#include "src/morph/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace varuna {
namespace {

// Piecewise-linear lookup over the profiled (sizes[k], seconds[k]) points;
// linear extrapolation from the outermost segment.
double Interpolate(const std::vector<int>& sizes, const std::vector<double>& seconds, int m) {
  VARUNA_CHECK(!sizes.empty());
  if (sizes.size() == 1) {
    // Single point: assume proportionality in m.
    return seconds[0] * m / sizes[0];
  }
  const size_t upper = std::clamp<size_t>(
      static_cast<size_t>(std::lower_bound(sizes.begin(), sizes.end(), m) - sizes.begin()), 1,
      sizes.size() - 1);
  const size_t lower = upper - 1;
  const double x0 = sizes[lower];
  const double y0 = seconds[lower];
  const double x1 = sizes[upper];
  const double y1 = seconds[upper];
  return y0 + (y1 - y0) * (m - x0) / (x1 - x0);
}

}  // namespace

Calibration::Calibration() : Calibration({}, AllReduceModel(), {}, SendStallModel()) {}

Calibration::Calibration(std::vector<SectionCalibration> sections,
                         const AllReduceModel& allreduce, std::vector<int> microbatch_sizes,
                         const SendStallModel& send_stall)
    : sections_(std::move(sections)),
      allreduce_(allreduce),
      microbatch_sizes_(std::move(microbatch_sizes)),
      send_stall_(send_stall),
      fingerprint_(ComputeFingerprint()) {}

double Calibration::ForwardTime(int section, int m) const {
  return Interpolate(microbatch_sizes_, sections_[static_cast<size_t>(section)].forward_s, m);
}

double Calibration::BackwardTime(int section, int m) const {
  return Interpolate(microbatch_sizes_, sections_[static_cast<size_t>(section)].backward_s, m);
}

double Calibration::SendTime(int section, int m, bool cross_node) const {
  const SectionCalibration& calib = sections_[static_cast<size_t>(section)];
  return Interpolate(microbatch_sizes_, cross_node ? calib.send_inter_s : calib.send_intra_s, m);
}

Result<Calibration> Calibrate(const ModelSections& sections, const Cluster& cluster,
                              const CalibrationOptions& options, Rng* rng) {
  std::vector<int> microbatch_sizes = options.microbatch_sizes;
  std::sort(microbatch_sizes.begin(), microbatch_sizes.end());
  if (microbatch_sizes.empty()) {
    return Result<Calibration>::Error("calibration needs at least one micro-batch size");
  }
  if (microbatch_sizes.front() <= 0) {
    return Result<Calibration>::Error("calibration micro-batch sizes must be positive");
  }
  if (std::adjacent_find(microbatch_sizes.begin(), microbatch_sizes.end()) !=
      microbatch_sizes.end()) {
    return Result<Calibration>::Error("calibration micro-batch sizes must be distinct");
  }
  if (options.samples < 1 || options.network_samples < 1) {
    return Result<Calibration>::Error("calibration needs samples and network_samples >= 1");
  }
  if (sections.num_sections() < 1) {
    return Result<Calibration>::Error("calibration needs a model with at least one section");
  }
  const std::vector<GpuId> pool = cluster.ActiveGpus();
  if (pool.size() < 4) {
    return Result<Calibration>::Error("calibration needs at least 4 active GPUs");
  }
  // Pick a cross-node GPU pair for network micro-benchmarks.
  GpuId local = pool[0];
  GpuId remote = -1;
  GpuId neighbor = -1;  // Same node as `local`, if the node has several GPUs.
  for (const GpuId gpu : pool) {
    if (gpu == local) {
      continue;
    }
    if (cluster.topology().SameNode(local, gpu)) {
      neighbor = gpu;
    } else if (remote < 0) {
      remote = gpu;
    }
  }
  if (remote < 0) {
    return Result<Calibration>::Error("calibration needs GPUs on at least two nodes");
  }
  const int gpus_per_node = cluster.topology().Node(cluster.topology().NodeOf(local)).num_gpus;
  const GpuSpec& gpu = cluster.Gpu(local);

  int64_t stall_count = 0;
  int64_t transfer_count = 0;
  double stall_excess_sum = 0.0;
  double stall_threshold_sum = 0.0;
  const size_t num_sizes = microbatch_sizes.size();
  std::vector<SectionCalibration> calibrated(static_cast<size_t>(sections.num_sections()));
  // One section's network samples, size-major and in draw order within each
  // size, plus each size's summary: median, stall threshold and body mean
  // over `body_count` samples.
  const size_t batch = static_cast<size_t>(options.network_samples);
  std::vector<double> samples(num_sizes * batch);
  std::vector<double> typical(num_sizes);
  std::vector<double> stall_threshold(num_sizes);
  std::vector<double> body_mean(num_sizes);
  std::vector<int64_t> body_count(num_sizes);

  // --- F_i(m), B_i(m): run a few mocked micro-batches per section (random
  // inputs standing in for the previous stage, §4.3) and average. These are
  // measurements of the *testbed's* noisy execution, not formula lookups.
  for (int i = 0; i < sections.num_sections(); ++i) {
    SectionCalibration& section = calibrated[static_cast<size_t>(i)];
    section.params = sections.params[static_cast<size_t>(i)];
    section.forward_s.resize(num_sizes);
    section.backward_s.resize(num_sizes);
    section.send_intra_s.resize(num_sizes);
    section.send_inter_s.resize(num_sizes);
    for (size_t k = 0; k < num_sizes; ++k) {
      const int m = microbatch_sizes[k];
      RunningStats fwd;
      RunningStats bwd;
      for (int run = 0; run < options.samples; ++run) {
        const double fwd_base = gpu.ComputeTime(sections.fwd_flops[static_cast<size_t>(i)] * m);
        const double bwd_base =
            gpu.ComputeTime(2.0 * sections.fwd_flops[static_cast<size_t>(i)] * m);
        fwd.Add(options.compute_noise_sigma > 0.0
                    ? rng->LogNormalMedian(fwd_base, options.compute_noise_sigma)
                    : fwd_base);
        bwd.Add(options.compute_noise_sigma > 0.0
                    ? rng->LogNormalMedian(bwd_base, options.compute_noise_sigma)
                    : bwd_base);
      }
      section.forward_s[k] = fwd.mean();
      section.backward_s[k] = bwd.mean();
    }

    // --- Act/Grad transfer latencies for the section's boundary activation,
    // measured with the node's k flows in flight (k = GPUs per node). The
    // sample set is split into a typical component (stored per m) and a tail
    // (stall) component pooled across sections.
    const double act_bytes = sections.boundary_activation_bytes[static_cast<size_t>(i)];
    for (size_t k = 0; k < num_sizes; ++k) {
      const int m = microbatch_sizes[k];
      cluster.network().SampleTransferTimes(local, remote, act_bytes * m, gpus_per_node, rng,
                                            std::span(samples).subspan(k * batch, batch));
      if (neighbor >= 0) {
        RunningStats intra;
        for (int run = 0; run < options.samples; ++run) {
          intra.Add(cluster.network().SampleTransferTime(local, neighbor, act_bytes * m,
                                                         gpus_per_node, rng));
        }
        section.send_intra_s[k] = intra.mean();
      }
    }
    for (size_t k = 0; k < num_sizes; ++k) {
      typical[k] = Percentile(std::span(samples).subspan(k * batch, batch), 0.5);
      stall_threshold[k] = 1.5 * typical[k] + 0.05;
    }
    // Body means of every size side by side: the chains are independent, so
    // their divisions overlap instead of queueing behind one another.
    std::fill(body_mean.begin(), body_mean.end(), 0.0);
    std::fill(body_count.begin(), body_count.end(), 0);
    for (size_t j = 0; j < batch; ++j) {
      for (size_t k = 0; k < num_sizes; ++k) {
        const double sample = samples[k * batch + j];
        if (sample <= stall_threshold[k]) {
          body_mean[k] = WelfordMean(body_mean[k], sample, ++body_count[k]);
        }
      }
    }
    for (size_t k = 0; k < num_sizes; ++k) {
      for (size_t j = 0; j < batch; ++j) {
        const double sample = samples[k * batch + j];
        if (sample > stall_threshold[k]) {
          ++stall_count;
          stall_excess_sum += sample - typical[k];
          stall_threshold_sum += stall_threshold[k] - typical[k];
        }
      }
      transfer_count += static_cast<int64_t>(batch);
      section.send_inter_s[k] = body_mean[k];
      if (neighbor < 0) {
        section.send_intra_s[k] = body_mean[k];  // 1-GPU VMs: every hop is cross-node anyway.
      }
    }
  }
  SendStallModel send_stall;
  if (transfer_count > 0 && stall_count > 0) {
    send_stall.probability =
        static_cast<double>(stall_count) / static_cast<double>(transfer_count);
    send_stall.mean_s = stall_excess_sum / static_cast<double>(stall_count);
    send_stall.offset_s = stall_threshold_sum / static_cast<double>(stall_count);
    send_stall.scale_s = std::max(1e-6, send_stall.mean_s - send_stall.offset_s);
  }

  // --- AR_i(D): profile a gradient-sized allreduce at two ring sizes with k
  // rings in flight, then fit the two-parameter ring model so any D can be
  // predicted without further profiling (scale invariance).
  std::vector<GpuId> cross_node_pool;
  NodeId last_node = -1;
  for (const GpuId g : pool) {
    const NodeId node = cluster.topology().NodeOf(g);
    if (node != last_node) {
      cross_node_pool.push_back(g);
      last_node = node;
    }
  }
  if (cross_node_pool.size() < 2) {
    return Result<Calibration>::Error("calibration needs GPUs on at least two nodes");
  }
  const double probe_bytes =
      2.0 * calibrated[static_cast<size_t>(1 % sections.num_sections())].params;
  auto measure_ring = [&](int size) {
    std::vector<GpuId> ring;
    for (int i = 0; i < size; ++i) {
      ring.push_back(cross_node_pool[static_cast<size_t>(i) % cross_node_pool.size()]);
    }
    RunningStats stats;
    for (int run = 0; run < options.samples; ++run) {
      stats.Add(cluster.network().SampleAllReduceTime(ring, probe_bytes, gpus_per_node, rng));
    }
    return stats.mean();
  };
  // The tail term reuses the per-message stall statistics profiled above —
  // a ring step stalls when any of its D messages does.
  AllReduceModel allreduce;
  allreduce.stall_probability = send_stall.probability;
  allreduce.stall_mean_s = send_stall.mean_s;
  const int d1 = 2;
  const int d2 = std::min<int>(4, static_cast<int>(cross_node_pool.size()));
  const double ar1 = measure_ring(d1);
  if (d2 > d1) {
    const double ar2 = measure_ring(d2);
    // Solve AR/(2(D-1)) = S/(D*bw) + lat0 + tail(D) for (bw, lat0).
    const double lhs1 = ar1 / (2.0 * (d1 - 1)) - allreduce.StepTail(d1);
    const double lhs2 = ar2 / (2.0 * (d2 - 1)) - allreduce.StepTail(d2);
    const double inv_bw =
        (lhs1 - lhs2) / (probe_bytes * (1.0 / d1 - 1.0 / d2));
    allreduce.bandwidth_bps = inv_bw > 0.0 ? 1.0 / inv_bw : 1e12;
    allreduce.step_latency_s =
        std::max(0.0, lhs1 - probe_bytes / (d1 * allreduce.bandwidth_bps));
  } else {
    allreduce.bandwidth_bps = probe_bytes / std::max(ar1 / 2.0, 1e-9);
    allreduce.step_latency_s = 0.0;
  }

  return Calibration(std::move(calibrated), allreduce, std::move(microbatch_sizes), send_stall);
}

uint64_t Calibration::ComputeFingerprint() const {
  // FNV-1a, matching the determinism harness's hashing discipline: doubles
  // enter via their raw bit pattern, so two calibrations fingerprint equal
  // iff they are bit-identical. The byte stream is that of the former
  // map-based tables: each table hashes its length, then (m, seconds) pairs.
  uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  const auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  const auto mix_table = [&](const std::vector<double>& seconds) {
    mix(seconds.size());
    for (size_t k = 0; k < seconds.size(); ++k) {
      mix(static_cast<uint64_t>(microbatch_sizes_[k]));
      mix_double(seconds[k]);
    }
  };
  mix(sections_.size());
  for (const SectionCalibration& section : sections_) {
    mix_table(section.forward_s);
    mix_table(section.backward_s);
    mix_table(section.send_intra_s);
    mix_table(section.send_inter_s);
    mix_double(section.params);
  }
  mix_double(allreduce_.bandwidth_bps);
  mix_double(allreduce_.step_latency_s);
  mix_double(allreduce_.stall_probability);
  mix_double(allreduce_.stall_mean_s);
  mix(microbatch_sizes_.size());
  for (const int m : microbatch_sizes_) {
    mix(static_cast<uint64_t>(m));
  }
  mix_double(send_stall_.probability);
  mix_double(send_stall_.mean_s);
  mix_double(send_stall_.offset_s);
  mix_double(send_stall_.scale_s);
  return hash;
}

}  // namespace varuna
