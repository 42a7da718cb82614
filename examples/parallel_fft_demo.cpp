// Demonstration of the customized parallel FFT kernel (paper Section 4.4).
//
// Runs the spectral <-> physical pipeline on a chosen virtual-MPI process
// grid, reports the per-section time breakdown (communication / on-node
// reorder / FFT), and compares against the P3DFFT-style baseline —
// the same comparison as the paper's Table 6, at laptop scale.
//
//   ./parallel_fft_demo [ranks] [nx] [ny] [nz] [repeats]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "pencil/pencil.hpp"
#include "util/aligned.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using pcf::aligned_buffer;
using namespace pcf::pencil;

namespace {

double run_kernel(int ranks, const grid& g, const kernel_config& cfg,
                  int repeats, double* breakdown) {
  double total = 0.0;
  std::mutex m;
  pcf::vmpi::run_world(ranks, [&](pcf::vmpi::communicator& world) {
    // Factor the rank count into a near-square process grid.
    int pa = 1;
    for (int f = static_cast<int>(std::sqrt(ranks)); f >= 1; --f)
      if (ranks % f == 0) {
        pa = ranks / f;
        break;
      }
    pcf::vmpi::cart2d cart(world, pa, ranks / pa);
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec(d.y_pencil_elems(), cplx{0.01, 0.0});
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    // Warm up once, then time.
    pf.to_physical(spec.data(), phys.data());
    pf.to_spectral(phys.data(), spec.data());
    pf.timer().reset();
    pcf::wall_timer t;
    for (int r = 0; r < repeats; ++r) {
      pf.to_physical(spec.data(), phys.data());
      pf.to_spectral(phys.data(), spec.data());
    }
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lk(m);
      total = t.seconds();
      breakdown[0] = pf.comm_seconds();
      breakdown[1] = pf.reorder_seconds();
      breakdown[2] = pf.fft_seconds();
      breakdown[3] = static_cast<double>(pf.workspace_bytes());
    }
  });
  return total;
}

// Multi-field comparison: three velocity components transformed one at a
// time vs batched through to_physical_batch/to_spectral_batch, which ride
// a single aggregated exchange per transpose stage.
void run_batched_demo(int ranks, const grid& g, int repeats, double* wall,
                      std::uint64_t* exch) {
  std::mutex m;
  pcf::vmpi::run_world(ranks, [&](pcf::vmpi::communicator& world) {
    int pa = 1;
    for (int f = static_cast<int>(std::sqrt(ranks)); f >= 1; --f)
      if (ranks % f == 0) {
        pa = ranks / f;
        break;
      }
    pcf::vmpi::cart2d cart(world, pa, ranks / pa);
    kernel_config cfg;
    cfg.max_batch = 3;
    parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    aligned_buffer<cplx> spec[3];
    aligned_buffer<double> phys[3];
    const cplx* sp[3];
    double* ph[3];
    for (int f = 0; f < 3; ++f) {
      spec[f].reset(d.y_pencil_elems());
      spec[f].fill(cplx{0.01 * (f + 1), 0.0});
      phys[f].reset(d.x_pencil_real_elems());
      sp[f] = spec[f].data();
      ph[f] = phys[f].data();
    }
    pf.to_physical_batch(sp, ph, 3);  // warm-up
    const auto e0 = pf.batching().exchanges;
    pcf::wall_timer t0;
    for (int r = 0; r < repeats; ++r)
      for (int f = 0; f < 3; ++f) pf.to_physical(sp[f], ph[f]);
    const double t_single = t0.seconds();
    const auto e1 = pf.batching().exchanges;
    pcf::wall_timer t1;
    for (int r = 0; r < repeats; ++r) pf.to_physical_batch(sp, ph, 3);
    const double t_batch = t1.seconds();
    const auto e2 = pf.batching().exchanges;
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lk(m);
      wall[0] = t_single;
      wall[1] = t_batch;
      exch[0] = (e1 - e0) / static_cast<std::uint64_t>(repeats);
      exch[1] = (e2 - e1) / static_cast<std::uint64_t>(repeats);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;
  grid g;
  g.nx = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 64;
  g.ny = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 48;
  g.nz = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 64;
  const int repeats = argc > 5 ? std::atoi(argv[5]) : 10;

  std::printf("parallel FFT demo: grid %zu x %zu x %zu, %d virtual ranks, "
              "%d round trips\n\n",
              g.nx, g.ny, g.nz, ranks, repeats);

  kernel_config custom;  // Nyquist dropped, 3/2 dealiasing fused
  kernel_config p3d = kernel_config::p3dfft_mode();

  double bc[4] = {0, 0, 0, 0}, bp[4] = {0, 0, 0, 0};
  const double tc = run_kernel(ranks, g, custom, repeats, bc);
  const double tp = run_kernel(ranks, g, p3d, repeats, bp);

  pcf::text_table t({"kernel", "total", "comm", "reorder", "FFT",
                     "workspace"});
  auto fmt = [](double v) { return pcf::text_table::fmt_time(v); };
  t.add_row({"customized", fmt(tc), fmt(bc[0]), fmt(bc[1]), fmt(bc[2]),
             pcf::text_table::fmt(bc[3] / 1048576.0, 2) + " MiB"});
  t.add_row({"P3DFFT-style", fmt(tp), fmt(bp[0]), fmt(bp[1]), fmt(bp[2]),
             pcf::text_table::fmt(bp[3] / 1048576.0, 2) + " MiB"});
  std::fputs(t.str().c_str(), stdout);
  std::printf("\nnote: the customized kernel also performs the 3/2-rule "
              "dealiasing pad/truncate\nthat P3DFFT does not support "
              "(paper Section 4.4), so it moves more data here.\n");

  double wall[2] = {0, 0};
  std::uint64_t exch[2] = {0, 0};
  run_batched_demo(ranks, g, repeats, wall, exch);
  std::printf("\nbatched multi-field transforms (3 velocity components to "
              "physical, %d repeats):\n", repeats);
  pcf::text_table bt({"mode", "total", "exchanges/cycle"});
  bt.add_row({"per-field", pcf::text_table::fmt_time(wall[0]),
              std::to_string(exch[0])});
  bt.add_row({"batched", pcf::text_table::fmt_time(wall[1]),
              std::to_string(exch[1])});
  std::fputs(bt.str().c_str(), stdout);
  std::printf("\nall fields of a batch share one aggregated alltoall per "
              "transpose stage\n(to_physical_batch / to_spectral_batch); "
              "the DNS advances its 3-field\nvelocity and 5-field product "
              "transforms this way.\n");
  return 0;
}
