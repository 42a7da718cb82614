// Per-wavenumber implicit solves of the KMM formulation.
//
// Each RK substep, for each Fourier mode (kx, kz) != (0, 0), three banded
// two-point boundary value problems are solved (paper Section 2.1):
//
//   [A0 - b nu dt (A2 - k2 A0)] c_omega = R_omega,   omega(+-1) = 0
//   [A0 - b nu dt (A2 - k2 A0)] c_phi   = R_phi,     phi BCs via influence
//   [A2 - k2 A0] c_v = phi(points),                  v(+-1) = 0
//
// The no-slip conditions v'(+-1) = 0 cannot be imposed on the second-order
// phi system directly; the classical influence (Green's function) matrix
// method is used: two homogeneous Helmholtz solutions with unit wall values
// of phi are combined with the particular solution so that v' vanishes at
// both walls.
//
// The omega and phi systems share the factored Helmholtz operator, so the
// substep loop feeds both right-hand sides as one lane-interleaved
// 2-complex-line panel (4 real lanes per band pass) — fused_solve() below. Per-mode factored state lives either in a standalone mode_solver
// or, for the simulation's per-substep caches, in a solver_arena that packs
// every mode's bands and influence data into one contiguous slab.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "core/operators.hpp"

namespace pcf {
class thread_pool;
}

namespace pcf::core {

/// Fused substep solve shared by mode_solver and solver_arena.
///
/// panel is n rows of two complex entries, lane-interleaved: panel[2i]
/// is row i of the omega right-hand side, panel[2i + 1] row i of the phi
/// one. Boundary rows of both are overwritten with homogeneous Dirichlet
/// data, then both Helmholtz systems are solved in one 4-lane panel pass. Outputs are spline-coefficient
/// vectors; the influence correction enforces v(+-1) = v'(+-1) = 0.
/// phi12 / v12 hold the two influence solutions contiguously (solution 1
/// at [0, n), solution 2 at [n, 2n)); minv is the inverted 2x2 influence
/// matrix. Results are bit-identical to the separate solve_dirichlet() +
/// solve_phi_v() path.
void fused_solve(const wall_normal_operators& ops, banded::banded_view helm,
                 banded::banded_view pois, const double* phi12,
                 const double* v12, const double (*minv)[2], cplx* panel,
                 cplx* c_om, cplx* c_phi, cplx* c_v);

/// Solver for one wavenumber pair at one implicit coefficient. Assembles
/// and factorizes on construction; solve() may then be applied to any
/// number of right-hand sides (it is reused for omega and phi).
class mode_solver {
 public:
  /// @param ops   shared wall-normal operators
  /// @param c     implicit coefficient beta_i * nu * dt
  /// @param k2    kx^2 + kz^2 (> 0)
  mode_solver(const wall_normal_operators& ops, double c, double k2);

  /// Solve the Helmholtz system with Dirichlet wall data lo / hi (in
  /// place; rhs -> spline coefficients). The operator's boundary rows are
  /// identity rows folded into the band, so writing the wall value into
  /// rows 0 / n-1 of the right-hand side imposes it exactly: on a clamped
  /// spline the first/last coefficient IS the wall value. The defaults
  /// keep the homogeneous no-slip behavior.
  void solve_dirichlet(cplx* rhs, cplx lo = cplx{0.0, 0.0},
                       cplx hi = cplx{0.0, 0.0}) const;

  /// Advance phi and recover v with the influence-matrix correction:
  /// on input rhs_phi holds the interior right-hand side (rows 0 / n-1 are
  /// overwritten); outputs are spline coefficient vectors c_phi, c_v
  /// satisfying (A2 - k2 A0) c_v = phi, v(+-1) = v'(+-1) = 0.
  void solve_phi_v(cplx* rhs_phi, cplx* c_phi, cplx* c_v) const;

  /// Fused omega + phi + v substep solve (see fused_solve). panel is the
  /// interleaved 2n-entry RHS panel; bit-identical to solve_dirichlet +
  /// solve_phi_v.
  void solve_block(cplx* panel, cplx* c_om, cplx* c_phi, cplx* c_v) const;

  [[nodiscard]] double k2() const { return k2_; }

 private:
  const wall_normal_operators& ops_;
  double k2_;
  banded::compact_banded helm_;  // factored Helmholtz operator
  banded::compact_banded pois_;  // factored (A2 - k2 A0)
  // Influence solutions (each 2n, both solutions contiguous so construction
  // batches them through one 2-RHS solve) and the 2x2 inverse influence
  // matrix.
  std::vector<double> phi12_, v12_;
  double minv_[2][2] = {{0, 0}, {0, 0}};
};

/// Contiguous arena of factored per-mode solvers for one implicit
/// coefficient beta_i * nu * dt. Replaces a vector of per-mode mode_solver
/// allocations: all factored Helmholtz / Poisson bands, influence solutions
/// and inverse influence matrices live in ONE slab (struct-of-arrays by
/// section), built in parallel on the advance pool. Solves go through
/// non-owning banded_view handles into the slab.
///
/// Lifetime rules: build() (re)allocates the slab only when the mode count
/// or operator shape changes; a dt change rebuilds *contents* in place.
/// clear() drops the built flag without releasing storage. Views handed out
/// by solve_block() are valid until the next build() or destruction.
class solver_arena {
 public:
  solver_arena() = default;

  /// Build (or rebuild) the arena over k2s.size() mode slots; slot m is
  /// active iff k2s[m] > 0 (the (0,0) mean mode and any masked modes are
  /// inactive). Assembly, factorization and the batched influence solves
  /// run chunk-parallel on pool.
  void build(const wall_normal_operators& ops, double c,
             const std::vector<double>& k2s, thread_pool& pool);

  /// Forget the built contents (storage is kept for the next build()).
  void clear() { built_ = false; }

  /// Forget the contents AND free the slab (the simulation's suspend
  /// path: a parked run should not pin its factored bands). The next
  /// build() reallocates and repopulates — bit-identical to a cold build,
  /// which the dt-change path already exercises.
  void reset() {
    built_ = false;
    nm_ = 0;
    slab_.clear();
    slab_.shrink_to_fit();
    active_.clear();
    active_.shrink_to_fit();
  }

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] double coeff() const { return c_; }
  [[nodiscard]] int modes() const { return nm_; }
  [[nodiscard]] bool active(int m) const {
    return built_ && m >= 0 && m < nm_ &&
           active_[static_cast<std::size_t>(m)] != 0;
  }
  [[nodiscard]] std::size_t storage_bytes() const {
    return slab_.size() * sizeof(double) + active_.size();
  }

  /// Fused omega + phi + v substep solve for mode slot m (see fused_solve).
  void solve_block(int m, cplx* panel, cplx* c_om, cplx* c_phi,
                   cplx* c_v) const;

 private:
  [[nodiscard]] const double* helm_at(int m) const {
    return slab_.data() + helm_off_ + static_cast<std::size_t>(m) * be_;
  }
  [[nodiscard]] const double* pois_at(int m) const {
    return slab_.data() + pois_off_ + static_cast<std::size_t>(m) * be_;
  }
  [[nodiscard]] const double* phi12_at(int m) const {
    return slab_.data() + phi_off_ +
           static_cast<std::size_t>(m) * 2 * static_cast<std::size_t>(n_);
  }
  [[nodiscard]] const double* v12_at(int m) const {
    return slab_.data() + v_off_ +
           static_cast<std::size_t>(m) * 2 * static_cast<std::size_t>(n_);
  }

  const wall_normal_operators* ops_ = nullptr;
  double c_ = 0.0;
  int nm_ = 0, n_ = 0, h_ = 0;
  std::size_t be_ = 0;  // stored band elements per factored operator
  // Section offsets into slab_: [helm bands | pois bands | phi12 | v12 |
  // minv], each section packed by mode slot.
  std::size_t helm_off_ = 0, pois_off_ = 0, phi_off_ = 0, v_off_ = 0,
              minv_off_ = 0;
  std::vector<double> slab_;
  std::vector<unsigned char> active_;
  bool built_ = false;
};

/// Contiguous arena of factored per-mode *scalar* Helmholtz operators for
/// one diffusive coefficient beta_i * kappa * dt. Passive-scalar transport
/// needs only the Dirichlet Helmholtz solve — no influence correction, no
/// Poisson recovery — so the slab holds just the factored bands (roughly a
/// fifth of solver_arena's storage per mode). solve() takes `count`
/// lane-interleaved complex right-hand sides through one panel band pass
/// (2 * count real lanes), so scalars sharing a Prandtl number share one
/// pass. Same lifetime rules as solver_arena.
class scalar_arena {
 public:
  scalar_arena() = default;

  /// Build (or rebuild) over k2s.size() mode slots; slot m is active iff
  /// k2s[m] > 0. Assembly and factorization run chunk-parallel on pool.
  void build(const wall_normal_operators& ops, double c,
             const std::vector<double>& k2s, thread_pool& pool);

  /// Forget the built contents (storage is kept for the next build()).
  void clear() { built_ = false; }

  /// Forget the contents AND free the slab (the suspend path).
  void reset() {
    built_ = false;
    nm_ = 0;
    slab_.clear();
    slab_.shrink_to_fit();
    active_.clear();
    active_.shrink_to_fit();
  }

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] double coeff() const { return c_; }
  [[nodiscard]] bool active(int m) const {
    return built_ && m >= 0 && m < nm_ &&
           active_[static_cast<std::size_t>(m)] != 0;
  }

  /// Dirichlet solve of `count` (<= kMaxPanelLanes / 2) n-entry complex
  /// right-hand sides for mode slot m, lane-interleaved (RHS r's row i at
  /// panel[i * count + r]): every RHS gets wall values lo / hi written
  /// into its boundary rows (a wall-uniform scalar's fluctuation modes use
  /// the homogeneous defaults), then one panel band pass covers all of
  /// them. In place; outputs are spline coefficients in the same layout.
  void solve(int m, cplx* panel, std::size_t count,
             cplx lo = cplx{0.0, 0.0}, cplx hi = cplx{0.0, 0.0}) const;

 private:
  const wall_normal_operators* ops_ = nullptr;
  double c_ = 0.0;
  int nm_ = 0, n_ = 0, h_ = 0;
  std::size_t be_ = 0;  // stored band elements per factored operator
  std::vector<double> slab_;
  std::vector<unsigned char> active_;
  bool built_ = false;
};

}  // namespace pcf::core
