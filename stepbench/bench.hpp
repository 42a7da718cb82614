// The step benchmark: workloads, correctness checks and layer probes.
//
// Three workloads (README.md says why each was chosen):
//   dns32_serial   32x65x32 Re_tau=180 channel on 1x1 vmpi ranks
//   dns32_2x2      the same problem on 2x2 vmpi ranks (4 rank threads)
//   sweep16_evict  campaign_server over seed-derived 16x33x16 jobs with a
//                  residency cap far below the job count
// An untraced run measures the end-to-end metrics; a traced run records
// spans around each layer's public entry points and derives the per-layer
// metrics from them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "campaign/campaign.hpp"
#include "core/simulation.hpp"
#include "trace.hpp"

namespace stepbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // per-process directory for checkpoints
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one run measured and verified. An operation is one step, one
/// campaign job or one checkpoint round trip.
struct outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the log
  std::vector<metric> metrics;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void fail(const std::string& why);
};

// --- statistics -------------------------------------------------------------

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics; NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Independent 64-bit stream `index` of the run seed (SplitMix64 finalizer).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

// --- workload inputs ----------------------------------------------------------

/// Table-2 grid 32x65x32 at Re_tau=180, dt 1e-4, on pa x pb ranks with one
/// thread per rank and an owned workspace; the default kernel (dealiased,
/// alltoall, max_batch 5, pipeline_depth 1, no autotune).
pcf::core::channel_config dns32_config(int pa, int pb);

/// Initial perturbation amplitude of every dns32 job.
inline constexpr double kDnsPerturbation = 0.1;

/// The jobs of campaign `index` of a sweep run: 16x33x16 Re_tau=180 runs
/// cycling through default, adaptive-CFL, plane Couette and constant flow
/// rate with one passive scalar; initial-condition seeds and queue order
/// come from the run seed.
std::vector<pcf::campaign::job_spec> sweep_jobs(std::uint64_t seed,
                                                int index);

/// The sweep's server settings: 4 workers, residency cap 6, spills under
/// `spill_dir`.
pcf::campaign::campaign_config sweep_campaign(const std::string& spill_dir);

// --- checks -------------------------------------------------------------------

/// Post-step state check (collective): kinetic energy and bulk velocity
/// finite, max_divergence <= 1e-12. On failure `why` names the violation.
bool state_ok(pcf::core::channel_dns& dns, std::string* why);

/// Run `steps` steps of a dns32 job on pa x pb ranks from
/// initialize(kDnsPerturbation, seed) and return its final fingerprint.
pcf::determinism::step_fingerprint dns32_fingerprint(int pa, int pb,
                                                     std::uint64_t seed,
                                                     int steps,
                                                     const std::string& scratch);

/// Run one sweep job alone, exactly as a campaign tenant is configured,
/// and return its final fingerprint.
pcf::determinism::step_fingerprint solo_fingerprint(
    const pcf::campaign::job_spec& job, const std::string& scratch);

// --- workloads ----------------------------------------------------------------

outcome run_dns32(const run_options& opt, int pa, int pb, tracer& tr);
outcome run_sweep(const run_options& opt, tracer& tr);

}  // namespace stepbench
