// Paper Table 6: strong-scaling comparison of the customized parallel FFT
// kernel against P3DFFT.
//
// Measured section: both kernels (the P3DFFT baseline is the same engine
// configured with P3DFFT 2.5.1's implementation choices — Nyquist mode
// kept, no threading, 3x buffers, no fused dealiasing) run on the
// virtual-MPI runtime at increasing rank counts; the benchmark protocol
// follows the paper: four transposes + four FFT sets per cycle, no
// dealiasing pad/truncate.
//
// Modelled section: netsim regenerates the full table for all four
// systems up to 786,432 cores.
#include <vector>

#include "bench_common.hpp"
#include "netsim/predictor.hpp"

using namespace pcf::pencil;

namespace {

/// One transform cycle on `ranks` virtual ranks, split as squarely as
/// possible with pa >= pb.
double measured_cycle(int ranks, const grid& g, const kernel_config& cfg,
                      int repeats) {
  int pa = 1;
  for (int f = 1; f * f <= ranks; ++f)
    if (ranks % f == 0) pa = ranks / f;
  return pcf::bench::transform_cycle_seconds(pa, ranks / pa, g, cfg, repeats);
}

void modelled_table(const pcf::netsim::machine& m, std::size_t nx,
                    std::size_t ny, std::size_t nz,
                    const std::vector<long>& core_counts) {
  pcf::netsim::predictor p(m);
  std::printf("\nmodelled %s (Nx = %zu, Ny = %zu, Nz = %zu):\n",
              m.name.c_str(), nx, ny, nz);
  pcf::text_table t({"Cores", "P3DFFT", "Eff", "Customized", "Eff", "Ratio"});
  double base_p = 0, base_c = 0;
  long base_cores = 0;
  for (long cores : core_counts) {
    pcf::netsim::job_config custom;
    custom.nx = nx;
    custom.ny = ny;
    custom.nz = nz;
    custom.cores = cores;
    custom.dealias = false;
    custom.ranks_per_node = 1;  // hybrid launch, threaded kernels
    pcf::netsim::job_config p3d = custom;
    p3d.ranks_per_node = 0;  // one rank per core
    p3d.drop_nyquist = false;
    p3d.threaded = false;
    p3d.buffer_factor = 3.0;
    p3d.per_peer_overhead = 3.0e-5;  // unaggregated per-peer messaging

    const double tc = p.pfft_cycle(custom);
    const double tp = p.pfft_cycle(p3d);
    if (base_cores == 0) {
      base_cores = cores;
      base_p = tp;
      base_c = tc;
    }
    const double scale = static_cast<double>(base_cores) / cores;
    t.add_row({std::to_string(cores), pcf::text_table::fmt(tp, 3),
               pcf::text_table::fmt_pct(base_p * scale / tp),
               pcf::text_table::fmt(tc, 3),
               pcf::text_table::fmt_pct(base_c * scale / tc),
               pcf::text_table::fmt(tp / tc, 2)});
  }
  std::fputs(t.str().c_str(), stdout);
}

}  // namespace

int main() {
  pcf::bench::print_header("Table 6",
                           "parallel FFT: P3DFFT vs customized kernel");

  // --- measured ---------------------------------------------------------------
  grid g{static_cast<std::size_t>(pcf::bench::env_long("PCF_BENCH_NX", 64)),
         static_cast<std::size_t>(pcf::bench::env_long("PCF_BENCH_NY", 32)),
         static_cast<std::size_t>(pcf::bench::env_long("PCF_BENCH_NZ", 64))};
  const int repeats =
      static_cast<int>(pcf::bench::env_long("PCF_BENCH_REPS", 5));
  kernel_config custom;
  custom.dealias = false;  // paper's benchmark protocol
  kernel_config p3d = kernel_config::p3dfft_mode();

  std::printf("measured on the virtual-MPI runtime (grid %zu x %zu x %zu; "
              "single physical core, so per-rank times rise with rank "
              "count — the comparable quantity is the ratio):\n",
              g.nx, g.ny, g.nz);
  pcf::text_table hm({"Ranks", "P3DFFT-style", "Customized", "Ratio"});
  for (int ranks : {1, 2, 4, 8}) {
    const double tp = measured_cycle(ranks, g, p3d, repeats);
    const double tc = measured_cycle(ranks, g, custom, repeats);
    hm.add_row({std::to_string(ranks), pcf::text_table::fmt_time(tp),
                pcf::text_table::fmt_time(tc),
                pcf::text_table::fmt(tp / tc, 2)});
  }
  std::fputs(hm.str().c_str(), stdout);

  // --- modelled ---------------------------------------------------------------
  using pcf::netsim::machine;
  modelled_table(machine::mira(), 2048, 1024, 1024,
                 {128, 256, 512, 1024, 2048, 4096, 8192});
  modelled_table(machine::mira(), 18432, 12288, 12288,
                 {65536, 131072, 262144, 393216, 524288, 786432});
  modelled_table(machine::lonestar(), 768, 768, 768,
                 {12, 24, 48, 96, 192, 384, 768, 1536});
  modelled_table(machine::stampede(), 1024, 1024, 1024,
                 {16, 32, 64, 128, 256, 512, 1024, 2048, 4096});

  std::printf("\npaper: ratios ~2.1-2.6 on Mira(1), 1.45-1.73 on Mira(2); "
              "crossover from <1 to >1.7 on Lonestar/Stampede.\n");
  return 0;
}
