// Per-layer probes of the traced run and the metrics derived from them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace stepbench {

// Timed batches per probe. Each batch is one span; the metrics take the
// median over the batches of rank 0.
inline constexpr int kMinProbeRounds = 15;
inline constexpr int kFactorizePerRound = 5;
inline constexpr int kSuspendReps = 5;
inline constexpr int kCheckpointReps = 3;
inline constexpr int kLeaseReps = 21;
inline constexpr int kLeaseBatch = 64;
inline constexpr int kTaskReps = 21;
inline constexpr int kTaskBatch = 64;

/// Host roofline: single-core STREAM triad over three arrays of at least
/// max(1.2 GiB, 4 x L3) each, and a single-core FMA peak kernel.
struct host_roof {
  double triad_gbs = 0.0;
  double fma_gflops = 0.0;
  double triad_array_mb = 0.0;
  double l3_mb = 0.0;
  /// Attainable GF/s at arithmetic intensity `ai` flop/byte.
  [[nodiscard]] double roof(double ai) const;
};
host_roof probe_host(tracer& tr);

/// Exact counts the kernel probe reads from vmpi::comm_stats, plus sizes.
struct kernel_counts {
  double exchanges_per_step = 0.0;  // alltoallv + pairwise calls, all comms
  double bytes_per_step = 0.0;      // bytes exchanged, summed over ranks
  double stage_bytes_a = 0.0;       // one 5-field CommA stage, per rank
  double stage_bytes_b = 0.0;       // one 5-field CommB stage, per rank
  std::size_t workspace_bytes = 0;  // parallel_fft ping-pong workspace
  double solved_modes = 0.0;        // Fourier modes the implicit stage solves
};

/// Pencil, vmpi, fft and banded probes at the workload's grid, dealiasing
/// and split, run collectively on `world`: every rank probes at once, as
/// in the step, and rank 0's spans give the metrics. The banded probe
/// holds a factored Helmholtz and Poisson operator per solved mode of the
/// rank, as the step's solver arenas do. Construction plans the
/// kernel (the pencil.plan span) and reads the exact per-step exchange
/// counts; each round() records one timed batch per probe. Workloads call
/// round() between their jobs or campaigns, so the probe samples and the
/// step samples they are divided by come from the same stretch of host
/// time.
class kernel_probe {
 public:
  kernel_probe(const pcf::core::channel_config& cfg,
               pcf::vmpi::communicator& world, tracer& tr);
  ~kernel_probe();
  kernel_probe(const kernel_probe&) = delete;
  kernel_probe& operator=(const kernel_probe&) = delete;

  /// One timed batch of every probe (collective).
  void round();
  [[nodiscard]] const kernel_counts& counts() const;

 private:
  struct impl;
  std::unique_ptr<impl> p_;
};

/// Suspend/resume cycles and per-rank checkpoint round trips on a live
/// instance (collective). Each round trip loads into a fresh instance and
/// must reproduce the fingerprint; rank 0 counts the operations in `out`
/// and stores the checkpoint file size in `ckpt_bytes`.
void probe_instance(pcf::core::channel_dns& dns,
                    const pcf::core::channel_config& cfg,
                    pcf::vmpi::communicator& world, tracer& tr,
                    const std::string& scratch, outcome& out,
                    double* ckpt_bytes);

/// The exchange layer on a multi-rank world, for a workload whose own
/// world has one rank (where every exchange is a local forward). Runs a
/// dns32 job on cfg's split, one kernel_probe round and one step per
/// round, with a barrier after each step (the vmpi.barrier span), and
/// checks every step's state into `out`. Spans go to `tr`, which should
/// not be the workload's own tracer: the probe's rank-0 spans share its
/// names. Returns rank 0's exact exchange counts.
kernel_counts probe_exchange(const pcf::core::channel_config& cfg,
                             std::uint64_t seed, tracer& tr, outcome& out);

/// Block-pool acquire+release round trips of `lease_bytes` on a private
/// pool, and thread-pool submit+wait round trips of an empty task.
void probe_util(std::size_t lease_bytes, tracer& tr);

/// Everything a traced run hands to layer_metrics besides the spans.
struct layer_inputs {
  host_roof host;
  kernel_counts kernel;
  // Where the vmpi metrics come from: the workload's own world, or the
  // probe_exchange world of a single-rank workload.
  kernel_counts exchange;
  int exchange_ranks = 1;
  std::vector<double> steps;   // untraced step times of this run
  double traced_step_s = 0.0;  // traced median step time of this run
  double ckpt_bytes = 0.0;
  // Campaign report totals (zero on the dns32 workloads).
  double campaigns = 0.0;
  double evictions = 0.0, readmissions = 0.0;
  double plan_hits = 0.0, plan_lookups = 0.0;
  double memo_hits = 0.0, memo_lookups = 0.0;
  double pool_peak_bytes = 0.0, stranded_blocks = 0.0;
  // Global block-pool deltas over the workload.
  double pool_leases = 0.0, pool_cache_hits = 0.0;
};

/// Append the per-layer metrics derived from the spans and `in` to `out`.
/// The vmpi metrics read `exchange_tr`, every other layer `tr`.
void layer_metrics(const pcf::core::channel_config& cfg,
                   const layer_inputs& in, const tracer& tr,
                   const tracer& exchange_tr, outcome& out);

}  // namespace stepbench
