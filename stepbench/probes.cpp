// Per-layer probes of the traced run. Every probe times calls into one
// layer's public entry points at the workload's own sizes and records a
// span per timed batch; layer_metrics() (metrics.cpp) turns the spans into
// the per-layer metrics.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "banded/compact.hpp"
#include "bench.hpp"
#include "core/operators.hpp"
#include "fft/fft.hpp"
#include "pencil/pencil.hpp"
#include "probes.hpp"
#include "util/block_pool.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/vmpi.hpp"

namespace stepbench {

using pcf::banded::compact_banded;
using cplx = std::complex<double>;

namespace {

/// Deterministic fill in [-1, 1) (inputs only need to be finite and
/// non-trivial; the probes time data movement and arithmetic).
void fill(double* p, std::size_t n, std::uint64_t seed) {
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<double>(derive_seed(seed, i) >> 11) * 0x1.0p-52 - 1.0;
}
void fill(cplx* p, std::size_t n, std::uint64_t seed) {
  fill(reinterpret_cast<double*>(p), 2 * n, seed);
}

std::size_t l3_bytes() {
  // sysfs reports e.g. "300M" or "307200K"; 0 when unknown.
  std::ifstream is("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(is >> s) || s.empty()) return 0;
  std::size_t mult = 1;
  if (s.back() == 'K') mult = 1024;
  if (s.back() == 'M') mult = 1024 * 1024;
  if (mult != 1) s.pop_back();
  try {
    return static_cast<std::size_t>(std::stoull(s)) * mult;
  } catch (...) {
    return 0;
  }
}

// FMA peak: 12 independent accumulator chains hide the FMA latency on
// two FMA ports. Each ISA variant is compiled for its own target and
// picked at run time, so the library's build flags do not cap the roof.
constexpr int kChains = 12;

__attribute__((target("avx512f"))) double fma_avx512(long iters) {
  __m512d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm512_set1_pd(1.0 + k);
  const __m512d m = _mm512_set1_pd(0.999999);
  const __m512d a = _mm512_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = _mm512_fmadd_pd(acc[k], m, a);
  double lanes[8];
  double s = 0.0;
  for (int k = 0; k < kChains; ++k) {
    _mm512_storeu_pd(lanes, acc[k]);
    for (double l : lanes) s += l;
  }
  return s;
}

__attribute__((target("avx2,fma"))) double fma_avx2(long iters) {
  __m256d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm256_set1_pd(1.0 + k);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d a = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, a);
  double lanes[4];
  double s = 0.0;
  for (int k = 0; k < kChains; ++k) {
    _mm256_storeu_pd(lanes, acc[k]);
    s += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return s;
}

double fma_sse2(long iters) {
  __m128d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm_set1_pd(1.0 + k);
  const __m128d m = _mm_set1_pd(0.999999);
  const __m128d a = _mm_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k)
      acc[k] = _mm_add_pd(_mm_mul_pd(acc[k], m), a);
  double lanes[2];
  double s = 0.0;
  for (int k = 0; k < kChains; ++k) {
    _mm_storeu_pd(lanes, acc[k]);
    s += lanes[0] + lanes[1];
  }
  return s;
}

}  // namespace

double host_roof::roof(double ai) const {
  return std::min(fma_gflops, ai * triad_gbs);
}

host_roof probe_host(tracer& tr) {
  host_roof h;
  const std::size_t l3 = l3_bytes();
  const std::size_t min_bytes = static_cast<std::size_t>(1.2 * (1ull << 30));
  const std::size_t bytes = std::max(min_bytes, 4 * l3);
  const std::size_t n = bytes / sizeof(double);
  h.l3_mb = static_cast<double>(l3) / (1 << 20);
  h.triad_array_mb = static_cast<double>(n * sizeof(double)) / (1 << 20);
  {
    std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
        c(new double[n]);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
    const double s = 3.0;
    double best = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
      const double t0 = now_s();
      {
        auto sp = tr.span("host.triad", static_cast<long>(n));
        for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
      }
      best = std::min(best, now_s() - t0);
    }
    if (a[0] != 7.0 || a[n - 1] != 7.0)
      throw std::runtime_error("triad produced a wrong result");
    h.triad_gbs = 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
  }

  double (*kernel)(long) = fma_sse2;
  double lanes = 2.0;  // doubles per vector
  double per_op = 2.0;  // flops per lane per chain step (mul + add or fma)
  if (__builtin_cpu_supports("avx512f")) {
    kernel = fma_avx512;
    lanes = 8.0;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    kernel = fma_avx2;
    lanes = 4.0;
  }
  const long iters = 20'000'000;
  double best = 1e30, sink = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_s();
    {
      auto sp = tr.span("host.fma", iters);
      sink += kernel(iters);
    }
    best = std::min(best, now_s() - t0);
  }
  if (!(sink > 0.0)) throw std::runtime_error("fma kernel produced no result");
  h.fma_gflops = static_cast<double>(iters) * kChains * lanes * per_op / best / 1e9;
  return h;
}

struct kernel_probe::impl {
  impl(const pcf::core::channel_config& c, pcf::vmpi::communicator& w,
       tracer& t)
      : cfg(c),
        tr(t),
        world(w),
        cart(world, c.pa, c.pb),
        ops(c.ny, c.degree, c.stretch),
        M(ops.n(), ops.A0().half_bandwidth()) {}

  pcf::core::channel_config cfg;
  tracer& tr;
  pcf::vmpi::communicator world;
  pcf::vmpi::cart2d cart;
  kernel_counts kc;
  std::unique_ptr<pcf::pencil::parallel_fft> pf;

  // pencil: the step's batch shapes, 3 fields to physical, 5 back.
  static constexpr std::size_t kFields = 5;
  std::vector<std::vector<cplx>> spec;
  std::vector<std::vector<double>> phys;
  cplx* sp_ptr[kFields] = {};
  double* ph_ptr[kFields] = {};

  // vmpi: one 5-field batched stage per sub-communicator.
  struct stage {
    std::vector<std::size_t> cnt, dsp;
    std::vector<cplx> send, recv;
  } stage_a, stage_b;

  // fft: one field's lines of this rank.
  std::unique_ptr<pcf::fft::c2c_plan> zf, zi;
  std::unique_ptr<pcf::fft::r2c_plan> xf;
  std::unique_ptr<pcf::fft::c2r_plan> xi;
  std::size_t zl = 0, nz = 0, xl = 0, nx = 0, modes_x = 0;
  std::vector<cplx> z0, z, xs0, xs;
  std::vector<double> xr;

  // banded: one hot Helmholtz operator (M) for the single-solve numbers,
  // and a factored Helmholtz and Poisson operator per solved mode of this
  // rank for the step's solves. Each mode's right-hand sides are 3 lines:
  // 2 for the Helmholtz, 1 for the Poisson solve.
  pcf::core::wall_normal_operators ops;
  compact_banded M;
  double c_helm = 0.0, k2 = 0.0;
  std::vector<compact_banded> helm, pois;
  std::vector<cplx> rhs0, rhs;

  void substep(bool traced) {
    tracer* t = traced ? &tr : nullptr;
    world.barrier();
    {
      tracer::scope sp(t, "pencil.to_physical", 1);
      pf->to_physical_batch(sp_ptr, ph_ptr, 3);
    }
    world.barrier();
    {
      tracer::scope sp(t, "pencil.to_spectral", 1);
      pf->to_spectral_batch(ph_ptr, sp_ptr, 5);
    }
  }

  void alltoallv(pcf::vmpi::communicator& comm, stage& st, const char* name) {
    world.barrier();
    auto sp = tr.span(name);
    comm.alltoallv(st.send.data(), st.cnt.data(), st.dsp.data(),
                   st.recv.data(), st.cnt.data(), st.dsp.data());
  }
};

kernel_probe::kernel_probe(const pcf::core::channel_config& cfg,
                           pcf::vmpi::communicator& world, tracer& tr)
    : p_(std::make_unique<impl>(cfg, world, tr)) {
  namespace pencil = pcf::pencil;
  impl& s = *p_;
  const pencil::grid g{cfg.nx, static_cast<std::size_t>(cfg.ny), cfg.nz};
  pencil::kernel_config k;  // the DNS default: dealiased, alltoall
  k.max_batch = cfg.max_batch;
  k.pipeline_depth = cfg.pipeline_depth;
  const auto seed = static_cast<std::uint64_t>(s.world.rank());

  s.world.barrier();
  {
    auto sp = tr.span("pencil.plan");
    s.pf = std::make_unique<pencil::parallel_fft>(g, s.cart, k);
  }
  const pencil::decomp& d = s.pf->dec();
  s.kc.workspace_bytes = s.pf->workspace_bytes();
  s.spec.resize(impl::kFields);
  s.phys.resize(impl::kFields);
  for (std::size_t f = 0; f < impl::kFields; ++f) {
    s.spec[f].resize(d.y_pencil_elems());
    s.phys[f].resize(d.x_pencil_real_elems());
    fill(s.spec[f].data(), s.spec[f].size(), derive_seed(seed, f));
    s.sp_ptr[f] = s.spec[f].data();
    s.ph_ptr[f] = s.phys[f].data();
  }
  s.substep(false);  // warm-up
  // Exact exchange counts of one step: 3 substeps, one 3-field and one
  // 5-field batch each, as the nonlinear stage issues them.
  const auto a0 = s.cart.comm_a().stats(), b0 = s.cart.comm_b().stats();
  for (int i = 0; i < 3; ++i) s.substep(false);
  const auto a1 = s.cart.comm_a().stats(), b1 = s.cart.comm_b().stats();
  // Exchanges are counted once per collective, so this rank's two groups
  // give the per-rank count. Bytes are group totals; each rank adds its
  // share of its groups' totals so the sum covers every group once.
  s.kc.exchanges_per_step = static_cast<double>(
      (a1.alltoall_calls - a0.alltoall_calls) +
      (a1.exchange_calls - a0.exchange_calls) +
      (b1.alltoall_calls - b0.alltoall_calls) +
      (b1.exchange_calls - b0.exchange_calls));
  const double share =
      static_cast<double>(a1.bytes_sent - a0.bytes_sent) / s.cart.comm_a().size() +
      static_cast<double>(b1.bytes_sent - b0.bytes_sent) / s.cart.comm_b().size();
  s.world.allreduce_sum(&share, &s.kc.bytes_per_step, 1);

  // vmpi: CommA (z <-> x) carries the nxh kept x modes of this rank's
  // (y, z-physical) lines; CommB (y <-> z) the nz spectral z modes of its
  // (x, y) lines.
  auto make_stage = [&](impl::stage& st, pcf::vmpi::communicator& comm,
                        std::size_t elems) {
    const auto p = static_cast<std::size_t>(comm.size());
    st.cnt.assign(p, elems / p);
    st.cnt[p - 1] += elems % p;
    st.dsp.assign(p, 0);
    for (std::size_t q = 1; q < p; ++q) st.dsp[q] = st.dsp[q - 1] + st.cnt[q - 1];
    st.send.resize(elems);
    st.recv.resize(elems);
    fill(st.send.data(), elems, seed);
    return static_cast<double>(elems * sizeof(cplx));
  };
  s.kc.stage_bytes_a = make_stage(s.stage_a, s.cart.comm_a(),
                                  impl::kFields * g.nxh() * d.yb.count * d.zp.count);
  s.kc.stage_bytes_b = make_stage(s.stage_b, s.cart.comm_b(),
                                  impl::kFields * d.xs.count * d.yb.count * g.nz);

  // fft: the pencil's line transforms through execute_many, exactly as
  // the kernel calls them (z lines in place, x lines out of place).
  namespace fft = pcf::fft;
  s.zl = d.xs.count * d.yb.count;
  s.nz = d.nzf;
  s.xl = d.zp.count * d.yb.count;
  s.nx = d.nxf;
  s.modes_x = d.x_line_modes();
  s.zf = std::make_unique<fft::c2c_plan>(s.nz, fft::direction::forward);
  s.zi = std::make_unique<fft::c2c_plan>(s.nz, fft::direction::inverse);
  s.xf = std::make_unique<fft::r2c_plan>(s.nx);
  s.xi = std::make_unique<fft::c2r_plan>(s.nx);
  s.z0.resize(s.zl * s.nz);
  s.xs0.resize(s.xl * s.modes_x);
  s.xr.resize(s.xl * s.nx);
  fill(s.z0.data(), s.z0.size(), derive_seed(seed, 11));
  fill(s.xs0.data(), s.xs0.size(), derive_seed(seed, 12));

  // banded: operators assembled by helmholtz_into / poisson_into. The hot
  // one sits at a mid-range wavenumber; the per-mode ones at each solved
  // mode's own (kx, kz): the rank's block minus the spanwise Nyquist
  // modes and the mean mode, which the implicit stage skips.
  s.c_helm = 0.2 * cfg.dt / cfg.re_tau;
  const double ax = 2.0 * std::numbers::pi / cfg.lx;
  const double az = 2.0 * std::numbers::pi / cfg.lz;
  s.k2 = std::pow(ax * (cfg.nx / 4.0), 2) + std::pow(az * (cfg.nz / 4.0), 2);
  const int n = s.ops.n(), h = s.ops.A0().half_bandwidth();
  for (std::size_t jx = d.xs.offset; jx < d.xs.offset + d.xs.count; ++jx) {
    for (std::size_t jz = d.zs.offset; jz < d.zs.offset + d.zs.count; ++jz) {
      if (jz == cfg.nz / 2 || (jx == 0 && jz == 0)) continue;
      const double mz = jz < cfg.nz / 2 ? static_cast<double>(jz)
                                        : static_cast<double>(jz) -
                                              static_cast<double>(cfg.nz);
      const double k2 = std::pow(ax * static_cast<double>(jx), 2) +
                        std::pow(az * mz, 2);
      s.ops.helmholtz_into(s.helm.emplace_back(n, h), s.c_helm, k2);
      s.ops.poisson_into(s.pois.emplace_back(n, h), k2);
      s.helm.back().factorize();
      s.pois.back().factorize();
    }
  }
  s.kc.solved_modes = static_cast<double>(s.helm.size());
  s.rhs0.resize(std::max<std::size_t>(1, s.helm.size()) * 3 *
                static_cast<std::size_t>(n));
  fill(s.rhs0.data(), s.rhs0.size(), derive_seed(seed, 13));
  s.world.barrier();
}

kernel_probe::~kernel_probe() = default;

const kernel_counts& kernel_probe::counts() const { return p_->kc; }

void kernel_probe::round() {
  impl& s = *p_;
  tracer& tr = s.tr;
  s.substep(true);
  s.alltoallv(s.cart.comm_a(), s.stage_a, "vmpi.alltoallv_a");
  s.alltoallv(s.cart.comm_b(), s.stage_b, "vmpi.alltoallv_b");

  s.z = s.z0;
  {
    auto sp = tr.span("fft.c2c_z", static_cast<long>(s.zl));
    s.zi->execute_many(s.z.data(), s.nz, s.z.data(), s.nz, s.zl);
  }
  {
    auto sp = tr.span("fft.c2c_z", static_cast<long>(s.zl));
    s.zf->execute_many(s.z.data(), s.nz, s.z.data(), s.nz, s.zl);
  }
  s.xs = s.xs0;
  {
    auto sp = tr.span("fft.c2r_x", static_cast<long>(s.xl));
    s.xi->execute_many(s.xs.data(), s.modes_x, s.xr.data(), s.nx, s.xl);
  }
  {
    auto sp = tr.span("fft.r2c_x", static_cast<long>(s.xl));
    s.xf->execute_many(s.xr.data(), s.nx, s.xs.data(), s.modes_x, s.xl);
  }

  for (int r = 0; r < kFactorizePerRound; ++r) {
    s.ops.helmholtz_into(s.M, s.c_helm, s.k2);
    auto sp = tr.span("banded.factorize");
    s.M.factorize();
  }
  const auto n = static_cast<std::size_t>(s.ops.n());
  const std::size_t modes = s.helm.size();
  const std::size_t hot = std::max<std::size_t>(1, modes);
  s.rhs = s.rhs0;
  {
    auto sp = tr.span("banded.solve2", static_cast<long>(hot));
    for (std::size_t m = 0; m < hot; ++m)
      s.M.solve_many(s.rhs.data() + m * 3 * n, 2, n);
  }
  s.rhs = s.rhs0;
  {
    auto sp = tr.span("banded.step_solves");
    for (std::size_t m = 0; m < modes; ++m) {
      s.helm[m].solve_many(s.rhs.data() + m * 3 * n, 2, n);
      s.pois[m].solve_many(s.rhs.data() + (m * 3 + 2) * n, 1, n);
    }
  }
  s.world.barrier();
}

void probe_instance(pcf::core::channel_dns& dns,
                    const pcf::core::channel_config& cfg,
                    pcf::vmpi::communicator& world, tracer& tr,
                    const std::string& scratch, outcome& out,
                    double* ckpt_bytes) {
  const bool lead = world.rank() == 0;
  // core: suspend / resume cycles. The step after a resume rebuilds the
  // factored solver arenas the suspend dropped.
  for (int r = 0; r < kSuspendReps; ++r) {
    world.barrier();
    {
      auto sp = tr.span("core.suspend");
      dns.suspend();
    }
    world.barrier();
    {
      auto sp = tr.span("core.resume");
      dns.resume();
    }
    {
      auto sp = tr.span("core.step_after_resume");
      dns.step();
    }
    std::string why;
    const bool ok = state_ok(dns, &why);
    if (lead) {
      ++out.attempted;
      if (!ok) out.fail("step after resume: " + why);
    }
  }

  // io: per-rank checkpoint round trips into a fresh instance, checked by
  // fingerprint.
  const std::string fp_path = scratch + "/fingerprint.ckpt";
  const std::string path =
      scratch + "/roundtrip.ckpt." + std::to_string(world.rank());
  const auto before = pcf::determinism::fingerprint(dns, fp_path);
  for (int r = 0; r < kCheckpointReps; ++r) {
    world.barrier();
    {
      auto sp = tr.span("io.ckpt_save");
      dns.save_checkpoint(path);
    }
    pcf::core::channel_dns fresh(cfg, world);
    world.barrier();
    {
      auto sp = tr.span("io.ckpt_load");
      fresh.load_checkpoint(path);
    }
    const auto after = pcf::determinism::fingerprint(fresh, fp_path);
    if (lead) {
      *ckpt_bytes = static_cast<double>(std::filesystem::file_size(path));
      ++out.attempted;
      if (!(after == before)) out.fail("checkpoint round trip changed the state");
    }
  }
  world.barrier();
  std::filesystem::remove(path);
  if (lead) std::filesystem::remove(fp_path);
}

kernel_counts probe_exchange(const pcf::core::channel_config& cfg,
                             std::uint64_t seed, tracer& tr, outcome& out) {
  kernel_counts kc;
  pcf::vmpi::run_world(cfg.pa * cfg.pb, [&](pcf::vmpi::communicator& world) {
    tracer::set_thread_rank(world.rank());
    const bool lead = world.rank() == 0;
    kernel_probe probe(cfg, world, tr);
    pcf::core::channel_dns dns(cfg, world);
    dns.initialize(kDnsPerturbation, seed);
    auto check = [&] {
      std::string why;
      const bool ok = state_ok(dns, &why);
      if (lead) {
        ++out.attempted;
        if (!ok) out.fail("exchange probe: " + why);
      }
    };
    dns.step();  // set-up: builds the factored solver arenas
    check();
    for (int r = 0; r < kMinProbeRounds; ++r) {
      probe.round();
      dns.step();
      {
        auto sp = tr.span("vmpi.barrier");
        world.barrier();
      }
      check();
    }
    if (lead) kc = probe.counts();
  });
  return kc;
}

void probe_util(std::size_t lease_bytes, tracer& tr) {
  {
    pcf::block_pool pool;
    auto warm = pool.acquire(lease_bytes);
    pool.release(warm);
    for (int r = 0; r < kLeaseReps; ++r) {
      auto sp = tr.span("block_pool.lease", kLeaseBatch);
      for (int i = 0; i < kLeaseBatch; ++i) {
        auto l = pool.acquire(lease_bytes);
        pool.release(l);
      }
    }
  }
  {
    pcf::thread_pool tp(2);  // caller + one worker
    for (int r = 0; r < kTaskReps; ++r) {
      auto sp = tr.span("thread_pool.task", kTaskBatch);
      for (int i = 0; i < kTaskBatch; ++i) {
        tp.submit([] {});
        tp.wait_submitted();
      }
    }
  }
}

}  // namespace stepbench
