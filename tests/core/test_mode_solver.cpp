#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "core/mode_solver.hpp"
#include "util/thread_pool.hpp"

namespace {

using pcf::core::cplx;
using pcf::core::mode_solver;
using pcf::core::wall_normal_operators;

TEST(ModeSolver, DirichletSolveMatchesManufactured) {
  // [I - c(D^2 - k2)] u = f, u = (1 - y^2) sin(y).
  wall_normal_operators ops(49, 7, 1.5);
  const double c = 0.005, k2 = 10.0;
  mode_solver ms(ops, c, k2);
  const auto& pts = ops.points();
  const std::size_t n = pts.size();
  auto u = [](double y) { return (1.0 - y * y) * std::sin(y); };
  auto upp = [](double y) {
    // d^2/dy^2 [(1-y^2) sin y] = -2 sin y - 4 y cos y - (1-y^2) sin y
    return -2.0 * std::sin(y) - 4.0 * y * std::cos(y) -
           (1.0 - y * y) * std::sin(y);
  };
  std::vector<cplx> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double y = pts[i];
    rhs[i] = u(y) - c * (upp(y) - k2 * u(y));
  }
  ms.solve_dirichlet(rhs.data());
  std::vector<cplx> back(n);
  ops.to_points(rhs.data(), back.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(back[i] - u(pts[i])), 1e-8);
}

TEST(ModeSolver, PhiVSolutionSatisfiesAllBoundaryConditions) {
  wall_normal_operators ops(49, 7, 2.0);
  const double c = 0.01, k2 = 4.0;
  mode_solver ms(ops, c, k2);
  const auto& pts = ops.points();
  const std::size_t n = pts.size();
  std::vector<cplx> rhs(n), c_phi(n), c_v(n);
  for (std::size_t i = 0; i < n; ++i)
    rhs[i] = cplx{std::sin(2.0 * pts[i]), std::cos(pts[i])};
  ms.solve_phi_v(rhs.data(), c_phi.data(), c_v.data());
  // v(+-1) = 0: clamped ends interpolate the end coefficients.
  EXPECT_LT(std::abs(c_v[0]), 1e-12);
  EXPECT_LT(std::abs(c_v[n - 1]), 1e-12);
  // v'(+-1) = 0: the influence correction's whole job.
  EXPECT_LT(std::abs(ops.dspline_lower(c_v.data())), 1e-9);
  EXPECT_LT(std::abs(ops.dspline_upper(c_v.data())), 1e-9);
}

TEST(ModeSolver, PhiVCouplingIsConsistent) {
  // After solve_phi_v, (D^2 - k2) v must equal phi at interior points.
  wall_normal_operators ops(40, 7, 2.0);
  const double c = 0.02, k2 = 9.0;
  mode_solver ms(ops, c, k2);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> rhs(n), c_phi(n), c_v(n);
  for (std::size_t i = 0; i < n; ++i)
    rhs[i] = cplx{std::cos(0.3 * i), std::sin(0.11 * i)};
  ms.solve_phi_v(rhs.data(), c_phi.data(), c_v.data());
  std::vector<cplx> lap(n), phi_pts(n), v2(n), v0(n);
  ops.deriv2_points(c_v.data(), v2.data());
  ops.to_points(c_v.data(), v0.data());
  ops.to_points(c_phi.data(), phi_pts.data());
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const cplx want = v2[i] - k2 * v0[i];
    EXPECT_LT(std::abs(want - phi_pts[i]), 1e-8) << i;
  }
}

TEST(ModeSolver, PhiEquationHoldsAtInteriorPoints) {
  // The corrected phi must still satisfy the Helmholtz equation at the
  // interior collocation points (the influence functions are homogeneous
  // solutions, so adding them cannot break it).
  wall_normal_operators ops(40, 7, 1.5);
  const double c = 0.015, k2 = 6.0;
  mode_solver ms(ops, c, k2);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> rhs(n), keep(n), c_phi(n), c_v(n);
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = cplx{std::sin(0.2 * i + 0.4), std::cos(0.15 * i)};
    keep[i] = rhs[i];
  }
  ms.solve_phi_v(rhs.data(), c_phi.data(), c_v.data());
  std::vector<cplx> p0(n), p2(n);
  ops.to_points(c_phi.data(), p0.data());
  ops.deriv2_points(c_phi.data(), p2.data());
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const cplx lhs = p0[i] - c * (p2[i] - k2 * p0[i]);
    EXPECT_LT(std::abs(lhs - keep[i]), 1e-8) << i;
  }
}

TEST(ModeSolver, LinearInRhs) {
  wall_normal_operators ops(33, 7, 2.0);
  mode_solver ms(ops, 0.01, 2.0);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> r1(n), r2(n), rsum(n);
  for (std::size_t i = 0; i < n; ++i) {
    r1[i] = cplx{std::sin(0.3 * i), 0.1};
    r2[i] = cplx{0.2, std::cos(0.2 * i)};
    rsum[i] = 2.0 * r1[i] - 3.0 * r2[i];
  }
  std::vector<cplx> p1(n), v1(n), p2(n), v2(n), ps(n), vs(n);
  ms.solve_phi_v(r1.data(), p1.data(), v1.data());
  ms.solve_phi_v(r2.data(), p2.data(), v2.data());
  ms.solve_phi_v(rsum.data(), ps.data(), vs.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(ps[i] - (2.0 * p1[i] - 3.0 * p2[i])), 1e-9);
    EXPECT_LT(std::abs(vs[i] - (2.0 * v1[i] - 3.0 * v2[i])), 1e-9);
  }
}

TEST(ModeSolver, RejectsZeroWavenumber) {
  wall_normal_operators ops(33, 7, 2.0);
  EXPECT_THROW(mode_solver(ops, 0.01, 0.0), pcf::precondition_error);
}

TEST(ModeSolver, FusedSolveBitIdenticalToSeparateSolves) {
  // solve_block fuses the omega and phi Helmholtz solves into one 4-lane
  // panel pass; results must be BIT-identical to the sequential path.
  wall_normal_operators ops(49, 7, 1.5);
  const double c = 0.008, k2 = 7.0;
  mode_solver ms(ops, c, k2);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> r_om(n), r_phi(n);
  for (std::size_t i = 0; i < n; ++i) {
    r_om[i] = cplx{std::sin(0.17 * i), std::cos(0.23 * i + 1.0)};
    r_phi[i] = cplx{std::cos(0.31 * i), std::sin(0.12 * i - 0.5)};
  }
  // Sequential path.
  std::vector<cplx> om_a(r_om), rhs_a(r_phi), phi_a(n), v_a(n);
  ms.solve_dirichlet(om_a.data());
  ms.solve_phi_v(rhs_a.data(), phi_a.data(), v_a.data());
  // Fused path.
  std::vector<cplx> panel(2 * n), om_b(n), phi_b(n), v_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    panel[2 * i] = r_om[i];
    panel[2 * i + 1] = r_phi[i];
  }
  ms.solve_block(panel.data(), om_b.data(), phi_b.data(), v_b.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(om_a[i].real(), om_b[i].real()) << i;
    EXPECT_EQ(om_a[i].imag(), om_b[i].imag()) << i;
    EXPECT_EQ(phi_a[i].real(), phi_b[i].real()) << i;
    EXPECT_EQ(phi_a[i].imag(), phi_b[i].imag()) << i;
    EXPECT_EQ(v_a[i].real(), v_b[i].real()) << i;
    EXPECT_EQ(v_a[i].imag(), v_b[i].imag()) << i;
  }
}

TEST(SolverArena, MatchesStandaloneModeSolvers) {
  wall_normal_operators ops(40, 7, 2.0);
  const double c = 0.012;
  const std::vector<double> k2s = {0.0, 4.0, 9.0, 0.0, 25.0};
  pcf::thread_pool pool(2);
  pcf::core::solver_arena arena;
  arena.build(ops, c, k2s, pool);
  EXPECT_TRUE(arena.built());
  EXPECT_EQ(arena.coeff(), c);
  EXPECT_EQ(arena.modes(), 5);
  EXPECT_FALSE(arena.active(0));
  EXPECT_FALSE(arena.active(3));
  EXPECT_GT(arena.storage_bytes(), 0u);

  const std::size_t n = static_cast<std::size_t>(ops.n());
  for (int m : {1, 2, 4}) {
    ASSERT_TRUE(arena.active(m));
    mode_solver ms(ops, c, k2s[static_cast<std::size_t>(m)]);
    std::vector<cplx> panel(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i)
      panel[i] = cplx{std::sin(0.1 * i + m), std::cos(0.07 * i)};
    auto panel2 = panel;
    std::vector<cplx> om_a(n), phi_a(n), v_a(n), om_b(n), phi_b(n), v_b(n);
    ms.solve_block(panel.data(), om_a.data(), phi_a.data(), v_a.data());
    arena.solve_block(m, panel2.data(), om_b.data(), phi_b.data(),
                      v_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(om_a[i].real(), om_b[i].real()) << m << " " << i;
      EXPECT_EQ(om_a[i].imag(), om_b[i].imag()) << m << " " << i;
      EXPECT_EQ(phi_a[i].real(), phi_b[i].real()) << m << " " << i;
      EXPECT_EQ(phi_a[i].imag(), phi_b[i].imag()) << m << " " << i;
      EXPECT_EQ(v_a[i].real(), v_b[i].real()) << m << " " << i;
      EXPECT_EQ(v_a[i].imag(), v_b[i].imag()) << m << " " << i;
    }
  }
}

TEST(SolverArena, InactiveOrUnbuiltSlotThrows) {
  wall_normal_operators ops(33, 7, 2.0);
  pcf::thread_pool pool(1);
  pcf::core::solver_arena arena;
  const std::size_t n = static_cast<std::size_t>(ops.n());
  std::vector<cplx> panel(2 * n), om(n), phi(n), v(n);
  EXPECT_THROW(
      arena.solve_block(0, panel.data(), om.data(), phi.data(), v.data()),
      pcf::precondition_error);
  arena.build(ops, 0.01, {0.0, 4.0}, pool);
  EXPECT_THROW(
      arena.solve_block(0, panel.data(), om.data(), phi.data(), v.data()),
      pcf::precondition_error);
  EXPECT_THROW(
      arena.solve_block(7, panel.data(), om.data(), phi.data(), v.data()),
      pcf::precondition_error);
  EXPECT_NO_THROW(
      arena.solve_block(1, panel.data(), om.data(), phi.data(), v.data()));
  arena.clear();
  EXPECT_FALSE(arena.built());
  EXPECT_THROW(
      arena.solve_block(1, panel.data(), om.data(), phi.data(), v.data()),
      pcf::precondition_error);
}

TEST(SolverArena, RebuildAfterCoeffChangeMatchesColdConstruction) {
  // A dt change rebuilds arena contents in place; results must be
  // bit-identical to a freshly constructed arena at the new coefficient.
  wall_normal_operators ops(33, 7, 2.0);
  pcf::thread_pool pool(2);
  const std::vector<double> k2s = {0.0, 2.0, 8.0};
  pcf::core::solver_arena warm, cold;
  warm.build(ops, 0.02, k2s, pool);  // old dt
  warm.build(ops, 0.01, k2s, pool);  // rebuild at the new dt
  cold.build(ops, 0.01, k2s, pool);
  const std::size_t n = static_cast<std::size_t>(ops.n());
  for (int m : {1, 2}) {
    std::vector<cplx> panel(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i)
      panel[i] = cplx{std::cos(0.09 * i), std::sin(0.21 * i + m)};
    auto panel2 = panel;
    std::vector<cplx> om_a(n), phi_a(n), v_a(n), om_b(n), phi_b(n), v_b(n);
    warm.solve_block(m, panel.data(), om_a.data(), phi_a.data(), v_a.data());
    cold.solve_block(m, panel2.data(), om_b.data(), phi_b.data(),
                     v_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(om_a[i].real(), om_b[i].real());
      EXPECT_EQ(om_a[i].imag(), om_b[i].imag());
      EXPECT_EQ(phi_a[i].real(), phi_b[i].real());
      EXPECT_EQ(phi_a[i].imag(), phi_b[i].imag());
      EXPECT_EQ(v_a[i].real(), v_b[i].real());
      EXPECT_EQ(v_a[i].imag(), v_b[i].imag());
    }
  }
}

}  // namespace
