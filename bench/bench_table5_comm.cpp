// Paper Table 5: global MPI communication performance as a function of the
// CommA x CommB process-grid split.
//
// Two parts: (1) a *measured* section running the real pencil transposes
// on the virtual-MPI runtime across every split of a small rank count —
// demonstrating the same qualitative ordering (node-local CommB wins); and
// (2) the netsim model regenerating the paper's Mira (8192-core) and
// Lonestar (384-core) numbers.
#include <vector>

#include "bench_common.hpp"
#include "netsim/predictor.hpp"

using namespace pcf::pencil;

int main() {
  pcf::bench::print_header("Table 5",
                           "global communication vs CommA x CommB split");

  // --- measured: 16 virtual ranks, all splits -------------------------------
  grid g{32, 16, 32};
  const int repeats =
      static_cast<int>(pcf::bench::env_long("PCF_BENCH_REPS", 5));
  std::printf("measured on the virtual-MPI runtime (16 ranks, grid %zu x "
              "%zu x %zu, full transpose cycle):\n",
              g.nx, g.ny, g.nz);
  kernel_config cfg;
  cfg.dealias = false;
  pcf::text_table hm({"CommA x CommB", "Elapsed"});
  for (int pb : {1, 2, 4, 8, 16}) {
    const double t =
        pcf::bench::transform_cycle_seconds(16 / pb, pb, g, cfg, repeats);
    hm.add_row({std::to_string(16 / pb) + " x " + std::to_string(pb),
                pcf::text_table::fmt_time(t)});
  }
  std::fputs(hm.str().c_str(), stdout);

  // --- modelled: the paper's configurations ----------------------------------
  using pcf::netsim::job_config;
  using pcf::netsim::machine;
  using pcf::netsim::predictor;

  auto model_table = [](const machine& m, long cores, std::size_t nx,
                        std::size_t ny, std::size_t nz,
                        const std::vector<long>& pbs) {
    predictor p(m);
    std::printf("\nmodelled %s, %ld cores, grid %zu x %zu x %zu:\n",
                m.name.c_str(), cores, nx, ny, nz);
    pcf::text_table t({"CommA x CommB", "Elapsed (s)"});
    for (long pb : pbs) {
      job_config j;
      j.nx = nx;
      j.ny = ny;
      j.nz = nz;
      j.cores = cores;
      j.dealias = false;
      j.pb = pb;
      j.pa = cores / pb;
      t.add_row({std::to_string(j.pa) + " x " + std::to_string(pb),
                 pcf::text_table::fmt(p.transpose_cycle(j), 3)});
    }
    std::fputs(t.str().c_str(), stdout);
  };

  model_table(machine::mira(), 8192, 2048, 1024, 1024,
              {16, 32, 64, 128, 256, 512});
  model_table(machine::lonestar(), 384, 1536, 384, 1024, {12, 24, 48, 96});

  std::printf("\npaper: Mira 512x16 = .386s rising to 16x512 = .626s; "
              "Lonestar 32x12 = 2.97s rising to 4x96 = 3.78s.\n");
  return 0;
}
