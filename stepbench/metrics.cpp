// Statistics helpers and the per-layer metrics of a traced run.
//
// Every "computed" GF/s or GB/s below comes from array sizes and nominal
// operation counts (5 N log2 N per complex FFT line, 2.5 N log2 N per real
// one, one real-by-complex multiply-add per stored band entry and RHS),
// divided by a time measured from the spans. A layer's roof_frac places
// that rate under the host roofline at the layer's computed intensity.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/operators.hpp"
#include "pencil/pencil.hpp"
#include "probes.hpp"

namespace stepbench {

void outcome::add(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void layer_metrics(const pcf::core::channel_config& cfg,
                   const layer_inputs& in, const tracer& tr,
                   const tracer& exchange_tr, outcome& out) {
  namespace pencil = pcf::pencil;
  const pencil::grid g{cfg.nx, static_cast<std::size_t>(cfg.ny), cfg.nz};
  const pencil::decomp d(g, pencil::kernel_config{}, cfg.pa, cfg.pb, 0, 0);
  auto med = [&](const char* name) { return median(tr.per_item(name)); };
  auto n_of = [&](const char* name) { return tr.per_item(name).size(); };
  const double step = median(in.steps);

  // The step's tail, from the untraced jobs of this run. It swings with
  // host contention far more than the median, so it is a per-layer number.
  out.add("step_s.p90", quantile(in.steps, 0.9), "s", in.steps.size());

  // host
  out.add("host.triad_gbs", in.host.triad_gbs, "GB/s", 3);
  out.add("host.fma_gflops", in.host.fma_gflops, "GF/s", 3);
  out.add("host.triad_array_mb", in.host.triad_array_mb, "MiB", 1);
  out.add("host.l3_mb", in.host.l3_mb, "MiB", 1);

  // fft: rank 0's lines per field, 3 substeps x (3 + 5) fields per step.
  const double zl = static_cast<double>(d.xs.count * d.yb.count);
  const double xl = static_cast<double>(d.zp.count * d.yb.count);
  const double nz = static_cast<double>(d.nzf), nx = static_cast<double>(d.nxf);
  const double modes_x = static_cast<double>(d.x_line_modes());
  const double t_c2c = med("fft.c2c_z"), t_r2c = med("fft.r2c_x"),
               t_c2r = med("fft.c2r_x");
  const double fft_step = 3.0 * (3.0 * (zl * t_c2c + xl * t_c2r) +
                                 5.0 * (zl * t_c2c + xl * t_r2c));
  const double fft_flops =
      3.0 * 8.0 * (zl * 5.0 * nz * std::log2(nz) + xl * 2.5 * nx * std::log2(nx));
  const double fft_bytes =
      3.0 * 8.0 * (zl * 32.0 * nz + xl * (8.0 * nx + 16.0 * modes_x));
  const double fft_gflops = ratio(fft_flops, fft_step) / 1e9;
  out.add("fft.c2c_z_ns", t_c2c * 1e9, "ns", n_of("fft.c2c_z"));
  out.add("fft.r2c_x_ns", t_r2c * 1e9, "ns", n_of("fft.r2c_x"));
  out.add("fft.c2r_x_ns", t_c2r * 1e9, "ns", n_of("fft.c2r_x"));
  out.add("fft.lines_per_step", 3.0 * 8.0 * (zl + xl), "count", 1);
  out.add("fft.gflops", fft_gflops, "GF/s", n_of("fft.c2c_z"));
  out.add("fft.roof_frac",
          ratio(fft_gflops, in.host.roof(ratio(fft_flops, fft_bytes))), "frac",
          n_of("fft.c2c_z"));
  const double fft_share = ratio(fft_step, step);
  out.add("fft.step_share", fft_share, "frac", n_of("fft.c2c_z"));

  // pencil: one 3-field to_physical and one 5-field to_spectral batch per
  // substep. Its share is self time: the batches minus their FFT lines.
  const double tp = med("pencil.to_physical"), ts = med("pencil.to_spectral");
  const double field_bytes =
      2.0 * (16.0 * static_cast<double>(d.y_pencil_elems() + d.z_pencil_elems() +
                                        d.x_pencil_spec_elems()) +
             8.0 * static_cast<double>(d.x_pencil_real_elems()));
  out.add("pencil.to_physical_ms", tp * 1e3, "ms", n_of("pencil.to_physical"));
  out.add("pencil.to_spectral_ms", ts * 1e3, "ms", n_of("pencil.to_spectral"));
  const double pencil_share = ratio(3.0 * (tp + ts) - fft_step, step);
  out.add("pencil.step_share", pencil_share, "frac", n_of("pencil.to_spectral"));
  out.add("pencil.gbs", ratio(8.0 * field_bytes, tp + ts) / 1e9, "GB/s",
          n_of("pencil.to_spectral"));
  out.add("pencil.workspace_mb",
          static_cast<double>(in.kernel.workspace_bytes) / (1 << 20), "MiB", 1);
  out.add("pencil.plan_ms", med("pencil.plan") * 1e3, "ms", n_of("pencil.plan"));

  // vmpi, from the exchange world.
  const kernel_counts& xc = in.exchange;
  auto xmed = [&](const char* name) { return median(exchange_tr.per_item(name)); };
  auto xn_of = [&](const char* name) { return exchange_tr.per_item(name).size(); };
  out.add("vmpi.alltoallv_a_ms", xmed("vmpi.alltoallv_a") * 1e3, "ms",
          xn_of("vmpi.alltoallv_a"));
  out.add("vmpi.alltoallv_b_ms", xmed("vmpi.alltoallv_b") * 1e3, "ms",
          xn_of("vmpi.alltoallv_b"));
  out.add("vmpi.stage_a_kb", xc.stage_bytes_a / 1024.0, "KiB", 1);
  out.add("vmpi.stage_b_kb", xc.stage_bytes_b / 1024.0, "KiB", 1);
  out.add("vmpi.bytes_per_step", xc.bytes_per_step, "bytes", 1);
  out.add("vmpi.exchanges_per_step", xc.exchanges_per_step, "count", 1);
  // Barrier after each traced step: per step, the mean wait over ranks;
  // then the median over steps. Zero where the exchange world has no such
  // barrier (the sweep's tenants are single-rank worlds).
  std::vector<std::vector<double>> waits;
  for (int r = 0; r < in.exchange_ranks; ++r)
    waits.push_back(exchange_tr.per_item("vmpi.barrier", r));
  std::vector<double> per_step;
  for (std::size_t i = 0; !waits.empty() && i < waits[0].size(); ++i) {
    double s = 0.0;
    for (const auto& w : waits) s += i < w.size() ? w[i] : 0.0;
    per_step.push_back(s / static_cast<double>(waits.size()));
  }
  out.add("vmpi.barrier_wait_ms", per_step.empty() ? 0.0 : median(per_step) * 1e3,
          "ms", per_step.size());

  // banded: per solved mode and substep, one 2-RHS Helmholtz solve and one
  // 1-RHS Poisson solve, each against the mode's own operators.
  const pcf::core::wall_normal_operators ops(cfg.ny, cfg.degree, cfg.stretch);
  const double n = ops.n(), h = ops.A0().half_bandwidth();
  const double t2 = med("banded.solve2");
  const double modes = in.kernel.solved_modes;
  const double flops2 = 2.0 * (4.0 * n * 2.0 * h + 2.0 * n);
  const double bytes2 = 8.0 * n * (2.0 * h + 1.0) + 2.0 * 2.0 * 16.0 * n;
  const double banded_gflops = ratio(flops2, t2) / 1e9;
  out.add("banded.solve_ns", t2 * 1e9, "ns", n_of("banded.solve2"));
  out.add("banded.factorize_us", med("banded.factorize") * 1e6, "us",
          n_of("banded.factorize"));
  out.add("banded.solves_per_step", 3.0 * 2.0 * modes, "count", 1);
  out.add("banded.gflops", banded_gflops, "GF/s", n_of("banded.solve2"));
  out.add("banded.roof_frac",
          ratio(banded_gflops, in.host.roof(ratio(flops2, bytes2))), "frac",
          n_of("banded.solve2"));
  const double banded_share = ratio(3.0 * med("banded.step_solves"), step);
  out.add("banded.step_share", banded_share, "frac", n_of("banded.step_solves"));

  // core, io
  out.add("core.suspend_ms", med("core.suspend") * 1e3, "ms", n_of("core.suspend"));
  out.add("core.resume_ms", med("core.resume") * 1e3, "ms", n_of("core.resume"));
  const double save = med("io.ckpt_save");
  out.add("io.ckpt_save_ms", save * 1e3, "ms", n_of("io.ckpt_save"));
  out.add("io.ckpt_load_ms", med("io.ckpt_load") * 1e3, "ms", n_of("io.ckpt_load"));
  out.add("io.ckpt_mb", in.ckpt_bytes / (1 << 20), "MiB", 1);
  out.add("io.ckpt_gbs", ratio(in.ckpt_bytes, save) / 1e9, "GB/s",
          n_of("io.ckpt_save"));

  // campaign, util
  const auto nc = static_cast<std::size_t>(in.campaigns);
  out.add("campaign.evictions", ratio(in.evictions, in.campaigns), "count", nc);
  out.add("campaign.readmissions", ratio(in.readmissions, in.campaigns), "count", nc);
  out.add("campaign.plan_cache_hit_rate", ratio(in.plan_hits, in.plan_lookups),
          "frac", nc);
  out.add("campaign.tuning_memo_hit_rate", ratio(in.memo_hits, in.memo_lookups),
          "frac", nc);
  out.add("campaign.pool_peak_mb", in.pool_peak_bytes / (1 << 20), "MiB", nc);
  out.add("campaign.stranded_blocks", in.stranded_blocks, "count", nc);
  out.add("block_pool.lease_ns", med("block_pool.lease") * 1e9, "ns",
          n_of("block_pool.lease"));
  out.add("block_pool.cache_hit_rate", ratio(in.pool_cache_hits, in.pool_leases),
          "frac", 1);
  out.add("thread_pool.task_us", med("thread_pool.task") * 1e6, "us",
          n_of("thread_pool.task"));

  // trace
  out.add("trace.overhead_frac", ratio(in.traced_step_s, step) - 1.0, "frac",
          in.steps.size());
  out.add("trace.coverage", fft_share + pencil_share + banded_share, "frac", 1);
}

}  // namespace stepbench
