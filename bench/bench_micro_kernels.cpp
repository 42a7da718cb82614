// Google-benchmark microbenchmarks of the library's hot kernels: 1-D FFTs,
// banded factor/solve, B-spline evaluation, the on-node reorder, and the
// virtual-MPI alltoall. These are the building blocks whose costs the
// netsim models aggregate.
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "banded/compact.hpp"
#include "banded/gb.hpp"
#include "bspline/bspline.hpp"
#include "fft/fft.hpp"
#include "util/rng.hpp"

using cplx = std::complex<double>;

namespace {

void BM_FFT_C2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pcf::fft::c2c_plan plan(n, pcf::fft::direction::forward);
  std::vector<cplx> in(n, cplx{1.0, -0.5}), out(n);
  for (auto _ : state) {
    plan.execute(in.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n));
}
BENCHMARK(BM_FFT_C2C)->Arg(256)->Arg(1024)->Arg(1536)->Arg(4096);

void BM_FFT_R2C(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  pcf::fft::r2c_plan plan(n);
  std::vector<double> in(n, 0.7);
  std::vector<cplx> out(n / 2 + 1);
  for (auto _ : state) {
    plan.execute(in.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FFT_R2C)->Arg(1024)->Arg(1536);

// Batched transforms at the DNS's dealiased line shapes (Re_tau=180 on
// 32x65x32 runs 48-point z lines and 48-point real x lines, the campaign
// sweep 24-point ones). Args: {length, lines}; lines = 1 keeps the cost of
// a lone line visible next to the batched per-line cost (items = lines).
void BM_FFT_C2C_Many(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lines = static_cast<std::size_t>(state.range(1));
  pcf::fft::c2c_plan plan(n, pcf::fft::direction::forward);
  pcf::rng r(n);
  std::vector<cplx> in(n * lines), out(n * lines);
  for (auto& v : in) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
  for (auto _ : state) {
    plan.execute_many(in.data(), n, out.data(), n, lines);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(lines));
}
BENCHMARK(BM_FFT_C2C_Many)
    ->Args({24, 64})->Args({48, 64})->Args({24, 1})->Args({48, 1});

void BM_FFT_R2C_Many(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lines = static_cast<std::size_t>(state.range(1));
  const std::size_t modes = n / 2 + 1;
  pcf::fft::r2c_plan plan(n);
  pcf::rng r(n);
  std::vector<double> in(n * lines);
  std::vector<cplx> out(modes * lines);
  for (auto& v : in) v = r.uniform(-1, 1);
  for (auto _ : state) {
    plan.execute_many(in.data(), n, out.data(), modes, lines);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(lines));
}
BENCHMARK(BM_FFT_R2C_Many)
    ->Args({24, 64})->Args({48, 64})->Args({24, 1})->Args({48, 1});

void BM_CompactFactorSolve(benchmark::State& state) {
  const int n = 1024, h = static_cast<int>(state.range(0));
  pcf::banded::compact_banded proto(n, h);
  pcf::rng r(3);
  for (int i = 0; i < n; ++i) {
    const int s = proto.row_start(i);
    double rowsum = 0;
    for (int j = s; j <= s + 2 * h; ++j) {
      if (j == i || j < 0 || j >= n) continue;
      const double v = r.uniform(-1, 1);
      proto.at(i, j) = v;
      rowsum += std::abs(v);
    }
    proto.at(i, i) = rowsum + 1;
  }
  std::vector<cplx> rhs(n, cplx{0.5, -0.5});
  for (auto _ : state) {
    auto M = proto;
    M.factorize();
    auto b = rhs;
    M.solve(b.data());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_CompactFactorSolve)->Arg(1)->Arg(3)->Arg(5)->Arg(7);

// The advance's wall-normal kernels at the Table-2 line length (n = 65,
// degree-7 collocation, h = 7). Arg = complex lines: 1 is the per-line
// call, 2 and 5 a lane-interleaved panel of 4 and 10 real lanes (items =
// lines, so the per-line cost of a panel reads next to the single line).
pcf::banded::compact_banded advance_band() {
  const int n = 65, h = 7;
  pcf::banded::compact_banded A(n, h);
  pcf::rng r(5);
  for (int i = 0; i < n; ++i) {
    const int s = A.row_start(i);
    for (int j = s; j <= s + 2 * h; ++j)
      A.at(i, j) = j == i ? 4.0 : r.uniform(-0.2, 0.2);
  }
  return A;
}

std::vector<cplx> advance_lines(int lines, int n) {
  pcf::rng r(6);
  std::vector<cplx> x(static_cast<std::size_t>(lines * n));
  for (auto& v : x) v = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
  return x;
}

void BM_Banded_Apply(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  const auto A = advance_band();
  const auto x = advance_lines(lines, A.n());
  std::vector<cplx> y(x.size());
  const auto* xd = reinterpret_cast<const double*>(x.data());
  auto* yd = reinterpret_cast<double*>(y.data());
  const auto ld = static_cast<std::size_t>(2 * lines);
  for (auto _ : state) {
    if (lines == 1)
      A.apply(x.data(), y.data());
    else
      A.apply_panel(xd, ld, yd, ld, 2 * lines);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * lines);
}
BENCHMARK(BM_Banded_Apply)->Arg(1)->Arg(2)->Arg(5);

void BM_Banded_Solve(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  auto lu = advance_band();
  lu.factorize();
  auto x = advance_lines(lines, lu.n());
  auto* xd = reinterpret_cast<double*>(x.data());
  const auto ld = static_cast<std::size_t>(2 * lines);
  for (auto _ : state) {
    if (lines == 1)
      lu.solve(x.data());
    else
      lu.solve_panel(xd, ld, 2 * lines);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * lines);
}
BENCHMARK(BM_Banded_Solve)->Arg(1)->Arg(2)->Arg(5);

void BM_GbFactorSolve(benchmark::State& state) {
  const int n = 1024, h = static_cast<int>(state.range(0));
  pcf::banded::gb_matrix<cplx> proto(n, 2 * h, 2 * h);
  pcf::rng r(3);
  for (int i = 0; i < n; ++i) {
    double rowsum = 0;
    for (int j = std::max(0, i - 2 * h); j <= std::min(n - 1, i + 2 * h);
         ++j) {
      if (j == i) continue;
      const double v = r.uniform(-1, 1);
      proto.at(i, j) = v;
      rowsum += std::abs(v);
    }
    proto.at(i, i) = rowsum + 1;
  }
  std::vector<cplx> rhs(n, cplx{0.5, -0.5});
  for (auto _ : state) {
    auto M = proto;
    M.factorize();
    auto b = rhs;
    M.solve(b.data());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_GbFactorSolve)->Arg(1)->Arg(3)->Arg(5)->Arg(7);

void BM_BsplineEvalDerivs(benchmark::State& state) {
  auto b = pcf::bspline::basis::channel(64, 2.0, 7);
  double ders[3 * 8];
  double x = -0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.eval_derivs(x, 2, ders));
    x += 1e-4;
    if (x > 0.99) x = -0.99;
  }
}
BENCHMARK(BM_BsplineEvalDerivs);

void BM_Reorder(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<cplx> in(n * n * 4, cplx{1, 2}), out(in.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t k = 0; k < 4; ++k)
          out[(j * 4 + k) * n + i] = in[(i * n + j) * 4 + k];
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(in.size() * sizeof(cplx) * 2));
}
BENCHMARK(BM_Reorder)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
