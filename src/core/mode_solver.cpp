#include "core/mode_solver.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pcf::core {

namespace {

/// Solve the two influence problems for one factored Helmholtz / Poisson
/// pair: phi12 and v12 (each 2n, both solutions contiguous) are filled and
/// the inverted 2x2 influence matrix written to minv. Shared between
/// mode_solver construction and the arena build.
void build_influence(const wall_normal_operators& ops,
                     banded::banded_view helm, banded::banded_view pois,
                     double* phi12, double* v12, double (*minv)[2]) {
  const auto n = static_cast<std::size_t>(ops.n());
  // Homogeneous Helmholtz solves with unit wall values of phi, batched as
  // one 2-RHS blocked solve.
  for (std::size_t i = 0; i < 2 * n; ++i) phi12[i] = 0.0;
  phi12[0] = 1.0;
  phi12[2 * n - 1] = 1.0;
  helm.solve_many(phi12, 2, n);

  // Corresponding v with homogeneous Dirichlet data, again batched.
  ops.to_points(phi12, v12);
  ops.to_points(phi12 + n, v12 + n);
  v12[0] = v12[n - 1] = 0.0;  // Dirichlet rows of the v system
  v12[n] = v12[2 * n - 1] = 0.0;
  pois.solve_many(v12, 2, n);

  // Influence matrix M[l][i] = v_i'(wall_l); invert once.
  const double m00 = ops.dspline_lower(v12);
  const double m01 = ops.dspline_lower(v12 + n);
  const double m10 = ops.dspline_upper(v12);
  const double m11 = ops.dspline_upper(v12 + n);
  const double det = m00 * m11 - m01 * m10;
  PCF_REQUIRE(det != 0.0, "singular influence matrix");
  minv[0][0] = m11 / det;
  minv[0][1] = -m01 / det;
  minv[1][0] = -m10 / det;
  minv[1][1] = m00 / det;
}

}  // namespace

void fused_solve(const wall_normal_operators& ops, banded::banded_view helm,
                 banded::banded_view pois, const double* phi12,
                 const double* v12, const double (*minv)[2], cplx* panel,
                 cplx* c_om, cplx* c_phi, cplx* c_v) {
  const auto n = static_cast<std::size_t>(ops.n());
  // Homogeneous Dirichlet rows of both systems, then one pass over the
  // factored band for the two complex right-hand sides (4 real lanes).
  panel[0] = panel[1] = cplx{0.0, 0.0};
  panel[2 * n - 2] = panel[2 * n - 1] = cplx{0.0, 0.0};
  helm.solve_panel(lanes_of(panel), 4, 4);
  for (std::size_t i = 0; i < n; ++i) c_om[i] = panel[2 * i];
  for (std::size_t i = 0; i < n; ++i) c_phi[i] = panel[2 * i + 1];

  // v particular: (A2 - k2 A0) c_v = phi(points), v(+-1) = 0.
  ops.to_points(c_phi, c_v);
  c_v[0] = cplx{0.0, 0.0};
  c_v[n - 1] = cplx{0.0, 0.0};
  pois.solve(c_v);

  // Influence correction so that v'(+-1) = 0.
  const cplx rl = -ops.dspline_lower(c_v);
  const cplx ru = -ops.dspline_upper(c_v);
  const cplx a1 = minv[0][0] * rl + minv[0][1] * ru;
  const cplx a2 = minv[1][0] * rl + minv[1][1] * ru;
  const double* phi1 = phi12;
  const double* phi2 = phi12 + n;
  const double* v1 = v12;
  const double* v2 = v12 + n;
  for (std::size_t i = 0; i < n; ++i) {
    c_phi[i] += a1 * phi1[i] + a2 * phi2[i];
    c_v[i] += a1 * v1[i] + a2 * v2[i];
  }
}

mode_solver::mode_solver(const wall_normal_operators& ops, double c,
                         double k2)
    : ops_(ops), k2_(k2), helm_(ops.helmholtz(c, k2)), pois_(ops.poisson(k2)) {
  PCF_REQUIRE(k2 > 0.0, "mode_solver handles nonzero wavenumbers only");
  const auto n = static_cast<std::size_t>(ops.n());
  helm_.factorize();
  pois_.factorize();
  phi12_.resize(2 * n);
  v12_.resize(2 * n);
  build_influence(ops_, helm_.view(), pois_.view(), phi12_.data(),
                  v12_.data(), minv_);
}

void mode_solver::solve_dirichlet(cplx* rhs, cplx lo, cplx hi) const {
  const auto n = static_cast<std::size_t>(ops_.n());
  rhs[0] = lo;
  rhs[n - 1] = hi;
  helm_.solve(rhs);
}

void mode_solver::solve_phi_v(cplx* rhs_phi, cplx* c_phi, cplx* c_v) const {
  const auto n = static_cast<std::size_t>(ops_.n());
  // Particular solution with phi(+-1) = 0.
  rhs_phi[0] = cplx{0.0, 0.0};
  rhs_phi[n - 1] = cplx{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) c_phi[i] = rhs_phi[i];
  helm_.solve(c_phi);

  // v particular: (A2 - k2 A0) c_v = phi(points), v(+-1) = 0.
  ops_.to_points(c_phi, c_v);
  c_v[0] = cplx{0.0, 0.0};
  c_v[n - 1] = cplx{0.0, 0.0};
  pois_.solve(c_v);

  // Influence correction so that v'(+-1) = 0.
  const cplx rl = -ops_.dspline_lower(c_v);
  const cplx ru = -ops_.dspline_upper(c_v);
  const cplx a1 = minv_[0][0] * rl + minv_[0][1] * ru;
  const cplx a2 = minv_[1][0] * rl + minv_[1][1] * ru;
  const double* phi1 = phi12_.data();
  const double* phi2 = phi12_.data() + n;
  const double* v1 = v12_.data();
  const double* v2 = v12_.data() + n;
  for (std::size_t i = 0; i < n; ++i) {
    c_phi[i] += a1 * phi1[i] + a2 * phi2[i];
    c_v[i] += a1 * v1[i] + a2 * v2[i];
  }
}

void mode_solver::solve_block(cplx* panel, cplx* c_om, cplx* c_phi,
                              cplx* c_v) const {
  fused_solve(ops_, helm_.view(), pois_.view(), phi12_.data(), v12_.data(),
              minv_, panel, c_om, c_phi, c_v);
}

void solver_arena::build(const wall_normal_operators& ops, double c,
                         const std::vector<double>& k2s, thread_pool& pool) {
  const int nm = static_cast<int>(k2s.size());
  const int n = ops.n();
  const int h = ops.A0().half_bandwidth();
  const auto be = static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(2 * h + 1);
  if (nm != nm_ || n != n_ || h != h_) {
    nm_ = nm;
    n_ = n;
    h_ = h;
    be_ = be;
    const auto m = static_cast<std::size_t>(nm);
    helm_off_ = 0;
    pois_off_ = helm_off_ + m * be_;
    phi_off_ = pois_off_ + m * be_;
    v_off_ = phi_off_ + m * 2 * static_cast<std::size_t>(n);
    minv_off_ = v_off_ + m * 2 * static_cast<std::size_t>(n);
    slab_.assign(minv_off_ + m * 4, 0.0);
    active_.assign(m, 0);
  }
  ops_ = &ops;
  c_ = c;
  built_ = false;

  double* slab = slab_.data();
  pool.run(static_cast<std::size_t>(nm), [&](std::size_t lo, std::size_t hi) {
    // One reusable scratch pair per chunk: assembled in place, factorized,
    // then the factored band is copied into the slab.
    banded::compact_banded H(n, h), P(n, h);
    for (std::size_t m = lo; m < hi; ++m) {
      const double k2 = k2s[m];
      if (!(k2 > 0.0)) {
        active_[m] = 0;
        continue;
      }
      ops.helmholtz_into(H, c, k2);
      ops.poisson_into(P, k2);
      H.factorize();
      P.factorize();
      double* hb = slab + helm_off_ + m * be_;
      double* pb = slab + pois_off_ + m * be_;
      std::copy(H.data(), H.data() + be_, hb);
      std::copy(P.data(), P.data() + be_, pb);

      banded::banded_view hv(hb, n, h);
      banded::banded_view pv(pb, n, h);
      double* phi12 = slab + phi_off_ + m * 2 * static_cast<std::size_t>(n);
      double* v12 = slab + v_off_ + m * 2 * static_cast<std::size_t>(n);
      auto* minv =
          reinterpret_cast<double(*)[2]>(slab + minv_off_ + m * 4);
      build_influence(ops, hv, pv, phi12, v12, minv);
      active_[m] = 1;
    }
  });
  built_ = true;
}

void solver_arena::solve_block(int m, cplx* panel, cplx* c_om, cplx* c_phi,
                               cplx* c_v) const {
  PCF_REQUIRE(active(m), "solve_block on an unbuilt or inactive mode slot");
  banded::banded_view hv(helm_at(m), n_, h_);
  banded::banded_view pv(pois_at(m), n_, h_);
  const auto* minv = reinterpret_cast<const double(*)[2]>(
      slab_.data() + minv_off_ + static_cast<std::size_t>(m) * 4);
  fused_solve(*ops_, hv, pv, phi12_at(m), v12_at(m), minv, panel, c_om,
              c_phi, c_v);
}

void scalar_arena::build(const wall_normal_operators& ops, double c,
                         const std::vector<double>& k2s, thread_pool& pool) {
  const int nm = static_cast<int>(k2s.size());
  const int n = ops.n();
  const int h = ops.A0().half_bandwidth();
  const auto be = static_cast<std::size_t>(n) *
                  static_cast<std::size_t>(2 * h + 1);
  if (nm != nm_ || n != n_ || h != h_) {
    nm_ = nm;
    n_ = n;
    h_ = h;
    be_ = be;
    slab_.assign(static_cast<std::size_t>(nm) * be_, 0.0);
    active_.assign(static_cast<std::size_t>(nm), 0);
  }
  ops_ = &ops;
  c_ = c;
  built_ = false;

  double* slab = slab_.data();
  pool.run(static_cast<std::size_t>(nm), [&](std::size_t lo, std::size_t hi) {
    banded::compact_banded H(n, h);
    for (std::size_t m = lo; m < hi; ++m) {
      const double k2 = k2s[m];
      if (!(k2 > 0.0)) {
        active_[m] = 0;
        continue;
      }
      ops.helmholtz_into(H, c, k2);
      H.factorize();
      std::copy(H.data(), H.data() + be_, slab + m * be_);
      active_[m] = 1;
    }
  });
  built_ = true;
}

void scalar_arena::solve(int m, cplx* panel, std::size_t count, cplx lo,
                         cplx hi) const {
  PCF_REQUIRE(active(m), "scalar solve on an unbuilt or inactive mode slot");
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t r = 0; r < count; ++r) {
    panel[r] = lo;
    panel[(n - 1) * count + r] = hi;
  }
  banded::banded_view hv(slab_.data() + static_cast<std::size_t>(m) * be_,
                         n_, h_);
  const int lanes = 2 * static_cast<int>(count);
  hv.solve_panel(lanes_of(panel), static_cast<std::size_t>(lanes), lanes);
}

}  // namespace pcf::core
