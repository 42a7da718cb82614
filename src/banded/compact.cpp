#include "banded/compact.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/counters.hpp"

namespace pcf::banded {

compact_banded::compact_banded(int n, int h)
    : n_(n), h_(h), w_(2 * h + 1),
      a_(static_cast<std::size_t>(n) * static_cast<std::size_t>(2 * h + 1),
         0.0) {
  PCF_REQUIRE(h >= 0, "half-bandwidth must be nonnegative");
  PCF_REQUIRE(n >= 2 * h + 1, "compact format needs n >= bandwidth");
}

void compact_banded::clear() {
  std::fill(a_.begin(), a_.end(), 0.0);
  factorized_ = false;
}

namespace {

/// Real lanes contributed by one RHS of type S: a complex RHS is solved as
/// two real lanes (the paper's real-matrix x complex-RHS trick, here laid
/// out so the lanes vectorize).
template <class S>
constexpr int kLanesPerRhs = std::is_same_v<S, cplx> ? 2 : 1;

/// Widest RHS panel solve_many carries per band pass (one cache line of
/// doubles).
constexpr int kMaxLanes = 8;

int row_start_of(int i, int n, int h) {
  const int lo = i - h;
  const int hi = n - 1 - 2 * h;
  return lo < 0 ? 0 : (lo > hi ? hi : lo);
}

/// The factorization and the panel kernels are instantiated with a
/// compile-time half-bandwidth HC for the common cases (the paper
/// hand-unrolls these loops; here the fixed trip counts let the compiler
/// do it) and the panel kernels with a compile-time lane count LC, which
/// fixes the innermost trip count so the lane loop is the one that
/// vectorizes. HC == 0 / LC == 0 select the runtime-width fallbacks.
template <int HC>
std::uint64_t factorize_kernel(double* a, int n, int rh) {
  const int h = HC > 0 ? HC : rh;
  const int w = 2 * h + 1;
  std::uint64_t flops = 0;
  auto entry = [&](int i, int j) -> double& {
    return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(w) +
             static_cast<std::size_t>(j - row_start_of(i, n, h))];
  };
  for (int j = 0; j < n; ++j) {
    const double piv = entry(j, j);
    if (piv == 0.0)
      throw numerical_error("compact_banded::factorize: zero pivot");
    const double inv = 1.0 / piv;
    const int jend = row_start_of(j, n, h) + 2 * h;

    auto eliminate = [&](int k) {
      double& lkj = entry(k, j);
      if (lkj == 0.0) return;
      const double m = lkj * inv;
      lkj = m;
      const double* prow =
          a + static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
      double* krow = &entry(k, j);
      const int off = j - row_start_of(j, n, h);
      const int len = jend - j;
      const double* p = prow + off + 1;
      for (int c = 0; c < len; ++c) krow[1 + c] -= m * p[c];
      flops += 2u * static_cast<std::uint64_t>(len) + 1u;
    };

    const int band_end = std::min(j + h, n - 1);
    for (int k = j + 1; k <= band_end; ++k) eliminate(k);
    if (j >= n - 1 - 2 * h) {
      const int lo = std::max(band_end + 1, n - h);
      for (int k = lo; k < n; ++k) eliminate(k);
    }
  }
  return flops;
}

/// Lane pairs ride one 2-wide vector: element-wise IEEE operations, so a
/// pair computes exactly what its two lanes would separately. An odd lane
/// count leaves one scalar tail lane.
using v2d = double __attribute__((vector_size(16)));
constexpr int kMaxPairs = kMaxPanelLanes / 2;

inline v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store2(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }
inline v2d splat(double s) { return v2d{s, s}; }

/// y = A x over a panel. Each lane accumulates its row sum from +0.0 in
/// column order, exactly as a single line does.
template <int HC, int LC>
struct apply_kernel {
  static void run(const double* a, int n, int rh, const double* x,
                  std::size_t ldx, double* y, std::size_t ldy, int rl) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    const int L = LC > 0 ? LC : rl;
    const int P = L / 2;
    const bool odd = (L & 1) != 0;
    for (int i = 0; i < n; ++i) {
      const double* r =
          a + static_cast<std::size_t>(i) * static_cast<std::size_t>(w);
      const double* xs =
          x + static_cast<std::size_t>(row_start_of(i, n, h)) * ldx;
      v2d acc[kMaxPairs];
      double tail = 0.0;
      for (int q = 0; q < P; ++q) acc[q] = splat(0.0);
      for (int c = 0; c < w; ++c) {
        const double rc = r[c];
        const v2d rv = splat(rc);
        const double* xc = xs + static_cast<std::size_t>(c) * ldx;
        for (int q = 0; q < P; ++q) acc[q] += rv * load2(xc + 2 * q);
        if (odd) tail += rc * xc[2 * P];
      }
      double* yi = y + static_cast<std::size_t>(i) * ldy;
      for (int q = 0; q < P; ++q) store2(yi + 2 * q, acc[q]);
      if (odd) yi[2 * P] = tail;
    }
  }
};

/// y = ca (A x) + cb (B x) over a panel, A and B of one shape.
template <int HC, int LC>
struct apply_sum_kernel {
  static void run(const double* a, const double* b, double ca, double cb,
                  int n, int rh, const double* x, std::size_t ldx, double* y,
                  std::size_t ldy, int rl) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    const int L = LC > 0 ? LC : rl;
    const int P = L / 2;
    const bool odd = (L & 1) != 0;
    for (int i = 0; i < n; ++i) {
      const std::size_t row =
          static_cast<std::size_t>(i) * static_cast<std::size_t>(w);
      const double* ra = a + row;
      const double* rb = b + row;
      const double* xs =
          x + static_cast<std::size_t>(row_start_of(i, n, h)) * ldx;
      v2d acc_a[kMaxPairs], acc_b[kMaxPairs];
      double tail_a = 0.0, tail_b = 0.0;
      for (int q = 0; q < P; ++q) acc_a[q] = acc_b[q] = splat(0.0);
      for (int c = 0; c < w; ++c) {
        const double rca = ra[c], rcb = rb[c];
        const v2d va = splat(rca), vb = splat(rcb);
        const double* xc = xs + static_cast<std::size_t>(c) * ldx;
        for (int q = 0; q < P; ++q) {
          const v2d xv = load2(xc + 2 * q);
          acc_a[q] += va * xv;
          acc_b[q] += vb * xv;
        }
        if (odd) {
          tail_a += rca * xc[2 * P];
          tail_b += rcb * xc[2 * P];
        }
      }
      double* yi = y + static_cast<std::size_t>(i) * ldy;
      const v2d sa = splat(ca), sb = splat(cb);
      for (int q = 0; q < P; ++q)
        store2(yi + 2 * q, sa * acc_a[q] + sb * acc_b[q]);
      if (odd) yi[2 * P] = ca * tail_a + cb * tail_b;
    }
  }
};

/// In-place forward / back substitution over a panel with the factored
/// band. Every multiplier is a *matrix* entry — uniform across lanes — so
/// each lane sees exactly the single-line operation sequence. Forward
/// substitution runs row-oriented: row k receives x[k] -= l_kj x[j] for
/// j = row_start(k) .. k-1 in increasing j (the order column-oriented
/// elimination applies them too), skipping structural zeros of L, with
/// the row held in registers. Back substitution is
/// x[j] = (x[j] - sum_c u_c x[j+c]) / u_0 in column order.
template <int HC, int LC>
struct solve_kernel {
  static void run(const double* a, int n, int rh, double* p, std::size_t ld,
                  int rl) {
    const int h = HC > 0 ? HC : rh;
    const int w = 2 * h + 1;
    const int L = LC > 0 ? LC : rl;
    const int P = L / 2;
    const bool odd = (L & 1) != 0;
    auto lane_row = [&](int i) -> double* {
      return p + static_cast<std::size_t>(i) * ld;
    };
    v2d acc[kMaxPairs];
    double tail = 0.0;
    // Forward substitution with unit-diagonal L.
    for (int k = 1; k < n; ++k) {
      const int s = row_start_of(k, n, h);
      const double* r =
          a + static_cast<std::size_t>(k) * static_cast<std::size_t>(w);
      double* pk = lane_row(k);
      for (int q = 0; q < P; ++q) acc[q] = load2(pk + 2 * q);
      if (odd) tail = pk[2 * P];
      for (int c = 0; c < k - s; ++c) {
        const double l = r[c];
        if (l == 0.0) continue;
        const v2d lv = splat(l);
        const double* xj = lane_row(s + c);
        for (int q = 0; q < P; ++q) acc[q] -= lv * load2(xj + 2 * q);
        if (odd) tail -= l * xj[2 * P];
      }
      for (int q = 0; q < P; ++q) store2(pk + 2 * q, acc[q]);
      if (odd) pk[2 * P] = tail;
    }
    // Back substitution with U.
    for (int j = n - 1; j >= 0; --j) {
      const int s = row_start_of(j, n, h);
      const double* u = a +
                        static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(w) +
                        static_cast<std::size_t>(j - s);
      const int len = 2 * h - (j - s);
      double* pj = lane_row(j);
      for (int q = 0; q < P; ++q) acc[q] = load2(pj + 2 * q);
      if (odd) tail = pj[2 * P];
      for (int c = 1; c <= len; ++c) {
        const double uc = u[c];
        const v2d uv = splat(uc);
        const double* xc = lane_row(j + c);
        for (int q = 0; q < P; ++q) acc[q] -= uv * load2(xc + 2 * q);
        if (odd) tail -= uc * xc[2 * P];
      }
      const double d = u[0];
      const v2d dv = splat(d);
      for (int q = 0; q < P; ++q) store2(pj + 2 * q, acc[q] / dv);
      if (odd) pj[2 * P] = tail / d;
    }
  }
};

/// Run kernel K at the compile-time lane count matching `lanes` (1..10),
/// or at the runtime width (wider panels, or fixed_lanes == false).
template <template <int, int> class K, int HC, class... A>
void for_lanes(int lanes, bool fixed_lanes, A... args) {
  PCF_REQUIRE(lanes >= 0 && lanes <= kMaxPanelLanes,
              "panel lane count out of range");
  if (fixed_lanes) {
    switch (lanes) {
      case 0: return;
      case 1: K<HC, 1>::run(args..., lanes); return;
      case 2: K<HC, 2>::run(args..., lanes); return;
      case 3: K<HC, 3>::run(args..., lanes); return;
      case 4: K<HC, 4>::run(args..., lanes); return;
      case 5: K<HC, 5>::run(args..., lanes); return;
      case 6: K<HC, 6>::run(args..., lanes); return;
      case 7: K<HC, 7>::run(args..., lanes); return;
      case 8: K<HC, 8>::run(args..., lanes); return;
      case 9: K<HC, 9>::run(args..., lanes); return;
      case 10: K<HC, 10>::run(args..., lanes); return;
      default: break;
    }
  }
  K<HC, 0>::run(args..., lanes);
}

/// Dispatch kernel K on the half-bandwidth h (1..7 fixed, else runtime),
/// then on the lane count. args are K::run's leading arguments.
template <template <int, int> class K, class... A>
void dispatch(int h, int lanes, bool fixed_lanes, A... args) {
  switch (h) {
    case 1: for_lanes<K, 1>(lanes, fixed_lanes, args...); break;
    case 2: for_lanes<K, 2>(lanes, fixed_lanes, args...); break;
    case 3: for_lanes<K, 3>(lanes, fixed_lanes, args...); break;
    case 4: for_lanes<K, 4>(lanes, fixed_lanes, args...); break;
    case 5: for_lanes<K, 5>(lanes, fixed_lanes, args...); break;
    case 6: for_lanes<K, 6>(lanes, fixed_lanes, args...); break;
    case 7: for_lanes<K, 7>(lanes, fixed_lanes, args...); break;
    default: for_lanes<K, 0>(lanes, fixed_lanes, args...); break;
  }
}

/// Flop model of a panel apply: 2w per row and real lane (a complex line
/// counts its two lanes, as the per-line model always has).
void account_apply(int n, int w, int lanes) {
  counters::add_flops(static_cast<std::uint64_t>(n) * 2u *
                      static_cast<std::uint64_t>(w) *
                      static_cast<std::uint64_t>(lanes));
}

/// Substitution accounting for one panel: flops n (2w + 2) per real lane
/// (the seed's per-line model); reads: the factored band once for the
/// whole panel plus n (w + 2) RHS doubles per lane; writes: each lane's n
/// values once per substitution pass.
void account_solve(int n, int w, int lanes) {
  const auto nn = static_cast<std::uint64_t>(n);
  const auto ww = static_cast<std::uint64_t>(w);
  const auto ll = static_cast<std::uint64_t>(lanes);
  counters::add_flops(nn * (2u * ww + 2u) * ll);
  counters::add_read(nn * ww * 8u + ll * nn * (ww + 2u) * 8u);
  counters::add_written(ll * nn * 8u * 2u);
}

void solve_panel_on(const double* a, int n, int h, double* p, std::size_t ld,
                    int lanes, bool fixed_lanes) {
  PCF_REQUIRE(ld >= static_cast<std::size_t>(lanes),
              "panel row stride must cover its lanes");
  dispatch<solve_kernel>(h, lanes, fixed_lanes, a, n, h, p, ld);
  account_solve(n, 2 * h + 1, lanes);
}

/// Gather `nrhs` (possibly strided) right-hand sides into the interleaved
/// panel layout p[row * lanes + rhs_lane]; complex values contribute their
/// (re, im) pair as two adjacent lanes.
template <class S>
void pack_panel(const S* x, int nrhs, std::size_t stride, int n, double* p) {
  constexpr int lpr = kLanesPerRhs<S>;
  const int lanes = nrhs * lpr;
  for (int r = 0; r < nrhs; ++r) {
    const double* src = reinterpret_cast<const double*>(
        x + static_cast<std::size_t>(r) * stride);
    for (int i = 0; i < n; ++i)
      for (int c = 0; c < lpr; ++c)
        p[static_cast<std::size_t>(i) * static_cast<std::size_t>(lanes) +
          static_cast<std::size_t>(r * lpr + c)] = src[i * lpr + c];
  }
}

template <class S>
void unpack_panel(const double* p, int nrhs, std::size_t stride, int n,
                  S* x) {
  constexpr int lpr = kLanesPerRhs<S>;
  const int lanes = nrhs * lpr;
  for (int r = 0; r < nrhs; ++r) {
    double* dst =
        reinterpret_cast<double*>(x + static_cast<std::size_t>(r) * stride);
    for (int i = 0; i < n; ++i)
      for (int c = 0; c < lpr; ++c)
        dst[i * lpr + c] =
            p[static_cast<std::size_t>(i) * static_cast<std::size_t>(lanes) +
              static_cast<std::size_t>(r * lpr + c)];
  }
}

/// Blocked multi-RHS solve over factored compact-band storage; shared by
/// compact_banded and banded_view. Blocks of up to kMaxLanes real lanes
/// are packed into one panel per band pass; a single trailing RHS is
/// already a panel (lpr lanes, ld = lpr) and is solved in place.
template <class S>
void solve_many_on(const double* a, int n, int h, S* x, int nrhs,
                   std::size_t stride, bool fixed_lanes) {
  PCF_REQUIRE(nrhs >= 0, "nrhs must be nonnegative");
  PCF_REQUIRE(nrhs <= 1 || stride >= static_cast<std::size_t>(n),
              "RHS panel stride must be >= n");
  constexpr int lpr = kLanesPerRhs<S>;
  constexpr int max_block = kMaxLanes / lpr;
  thread_local std::vector<double> panel;
  int r = 0;
  while (nrhs - r >= 2) {
    const int rb = std::min(nrhs - r, max_block);
    const int lanes = rb * lpr;
    panel.resize(static_cast<std::size_t>(n) *
                 static_cast<std::size_t>(lanes));
    S* block = x + static_cast<std::size_t>(r) * stride;
    pack_panel(block, rb, stride, n, panel.data());
    solve_panel_on(a, n, h, panel.data(), static_cast<std::size_t>(lanes),
                   lanes, fixed_lanes);
    unpack_panel(panel.data(), rb, stride, n, block);
    r += rb;
  }
  for (; r < nrhs; ++r)
    solve_panel_on(a, n, h,
                   reinterpret_cast<double*>(x +
                                             static_cast<std::size_t>(r) *
                                                 stride),
                   lpr, lpr, fixed_lanes);
}

}  // namespace

void compact_banded::apply_panel(const double* x, std::size_t ldx, double* y,
                                 std::size_t ldy, int lanes) const {
  PCF_REQUIRE(!factorized_, "apply() needs the unfactored matrix");
  PCF_REQUIRE(ldx >= static_cast<std::size_t>(lanes) &&
                  ldy >= static_cast<std::size_t>(lanes),
              "panel row stride must cover its lanes");
  dispatch<apply_kernel>(h_, lanes, true, a_.data(), n_, h_, x, ldx, y, ldy);
  account_apply(n_, w_, lanes);
}

template <class S>
void compact_banded::apply(const S* x, S* y) const {
  constexpr int lpr = kLanesPerRhs<S>;
  apply_panel(reinterpret_cast<const double*>(x), lpr,
              reinterpret_cast<double*>(y), lpr, lpr);
}

void apply_sum_panel(double ca, const compact_banded& A, double cb,
                     const compact_banded& B, const double* x,
                     std::size_t ldx, double* y, std::size_t ldy, int lanes) {
  PCF_REQUIRE(!A.factorized() && !B.factorized(),
              "apply_sum_panel needs unfactored matrices");
  PCF_REQUIRE(A.n() == B.n() && A.half_bandwidth() == B.half_bandwidth(),
              "apply_sum_panel needs two bands of one shape");
  PCF_REQUIRE(ldx >= static_cast<std::size_t>(lanes) &&
                  ldy >= static_cast<std::size_t>(lanes),
              "panel row stride must cover its lanes");
  const int h = A.half_bandwidth();
  dispatch<apply_sum_kernel>(h, lanes, true, A.data(), B.data(), ca, cb,
                             A.n(), h, x, ldx, y, ldy);
  account_apply(A.n(), A.bandwidth(), 2 * lanes);
}

void compact_banded::factorize() {
  std::uint64_t flops = 0;
  switch (h_) {
    case 1: flops = factorize_kernel<1>(a_.data(), n_, h_); break;
    case 2: flops = factorize_kernel<2>(a_.data(), n_, h_); break;
    case 3: flops = factorize_kernel<3>(a_.data(), n_, h_); break;
    case 4: flops = factorize_kernel<4>(a_.data(), n_, h_); break;
    case 5: flops = factorize_kernel<5>(a_.data(), n_, h_); break;
    case 6: flops = factorize_kernel<6>(a_.data(), n_, h_); break;
    case 7: flops = factorize_kernel<7>(a_.data(), n_, h_); break;
    default: flops = factorize_kernel<0>(a_.data(), n_, h_); break;
  }
  factorized_ = true;
  counters::add_flops(flops);
  // Logical traffic estimate: each fused multiply-subtract reads a pivot-row
  // and a target-row entry and writes the target back.
  counters::add_read(flops * 8);
  counters::add_written(flops * 4);
}

void compact_banded::solve_panel(double* p, std::size_t ld,
                                 int lanes) const {
  PCF_REQUIRE(factorized_, "solve() requires factorize() first");
  solve_panel_on(a_.data(), n_, h_, p, ld, lanes, true);
}

template <class S>
void compact_banded::solve(S* x) const {
  constexpr int lpr = kLanesPerRhs<S>;
  solve_panel(reinterpret_cast<double*>(x), lpr, lpr);
}

template <class S>
void compact_banded::solve_many_impl(S* x, int nrhs, std::size_t stride,
                                     bool fixed_lanes) const {
  PCF_REQUIRE(factorized_, "solve_many() requires factorize() first");
  solve_many_on(a_.data(), n_, h_, x, nrhs, stride, fixed_lanes);
}

template <class S>
void compact_banded::solve_many(S* x, int nrhs, std::size_t stride) const {
  solve_many_impl(x, nrhs, stride, true);
}

template <class S>
void compact_banded::solve_many_blocked_generic(S* x, int nrhs,
                                                std::size_t stride) const {
  solve_many_impl(x, nrhs, stride, false);
}

template <class S>
void compact_banded::solve_many_scalar(S* x, int nrhs,
                                       std::size_t stride) const {
  PCF_REQUIRE(factorized_, "solve_many_scalar() requires factorize() first");
  for (int r = 0; r < nrhs; ++r)
    solve(x + static_cast<std::size_t>(r) * stride);
}

void banded_view::solve_panel(double* p, std::size_t ld, int lanes) const {
  solve_panel_on(a_, n_, h_, p, ld, lanes, true);
}

template <class S>
void banded_view::solve(S* x) const {
  constexpr int lpr = kLanesPerRhs<S>;
  solve_panel(reinterpret_cast<double*>(x), lpr, lpr);
}

template <class S>
void banded_view::solve_many(S* x, int nrhs, std::size_t stride) const {
  solve_many_on(a_, n_, h_, x, nrhs, stride, true);
}

template void compact_banded::apply(const double*, double*) const;
template void compact_banded::apply(const cplx*, cplx*) const;
template void compact_banded::solve(double*) const;
template void compact_banded::solve(cplx*) const;
template void compact_banded::solve_many(double*, int, std::size_t) const;
template void compact_banded::solve_many(cplx*, int, std::size_t) const;
template void compact_banded::solve_many_scalar(double*, int,
                                                std::size_t) const;
template void compact_banded::solve_many_scalar(cplx*, int,
                                                std::size_t) const;
template void compact_banded::solve_many_blocked_generic(double*, int,
                                                         std::size_t) const;
template void compact_banded::solve_many_blocked_generic(cplx*, int,
                                                         std::size_t) const;
template void banded_view::solve(double*) const;
template void banded_view::solve(cplx*) const;
template void banded_view::solve_many(double*, int, std::size_t) const;
template void banded_view::solve_many(cplx*, int, std::size_t) const;

}  // namespace pcf::banded
