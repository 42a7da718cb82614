// Implicit stage of an RK3 substep (paper steps (g)-(i)): per-wavenumber
// viscous solves for omega and phi, then the Poisson recovery of v.
#pragma once

#include <complex>
#include <vector>

#include "core/mode_solver.hpp"
#include "core/stages/stage_context.hpp"

namespace pcf::core {

class implicit_stage {
 public:
  /// Registers "implicit" (with child "build") under `parent`. The mode
  /// loop's panels are transient checkouts from the thread lanes, so it
  /// never allocates.
  implicit_stage(stage_context& ctx, phase_timer::id parent);

  /// Advance every non-mean mode through substep i. Reads h_v from
  /// state.u_s and h_g from state.v_s (where the nonlinear stage leaves
  /// them), updates c_om / c_phi / c_v and saves the nonlinear history.
  /// omega and phi ride one lane-interleaved panel through the fused RHS
  /// operator and the Helmholtz solve. Passive scalars advance through the
  /// same loop, grouped by Prandtl number so equal-diffusivity scalars
  /// share one panel band pass.
  void run(int i);

  /// Drop the cached per-substep solver arenas (call when dt changes).
  void invalidate();

  /// Drop the arenas AND free their slabs (the suspend path: parked runs
  /// must not pin the factored bands). Rebuilt lazily on the next run().
  void drop_arenas();

 private:
  stage_context& ctx_;
  // One contiguous solver arena per RK substep index, since cb = beta_i dt
  // nu differs per substep; valid while dt is fixed.
  solver_arena arena_[3];
  // Scalars grouped by Prandtl number; `order_` lists scalar indices
  // group-major so each group is one contiguous slice.
  struct scalar_group {
    double kappa = 0.0;                // 1 / (re_tau * prandtl)
    std::size_t start = 0, count = 0;  // slice of order_
  };
  std::vector<scalar_group> groups_;
  std::vector<std::size_t> order_;
  // Per-substep, per-group factored scalar Helmholtz arenas (coefficient
  // beta_i dt kappa_g differs per substep and per group).
  std::vector<scalar_arena> sc_arena_[3];
  phase_timer::id ph_run_, ph_build_;
};

}  // namespace pcf::core
