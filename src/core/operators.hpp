// Wall-normal collocation operators shared by every Fourier mode.
//
// The y direction is represented with degree-7 B-splines collocated at
// Greville points (paper Section 2.1). Every wall-normal operation in the
// DNS is one of three banded matrices built here:
//   A0 (interpolation: values at points from spline coefficients),
//   A1 (first derivative), A2 (second derivative),
// plus Helmholtz systems assembled from them per wavenumber.
#pragma once

#include <complex>
#include <memory>

#include "banded/compact.hpp"
#include "bspline/bspline.hpp"

namespace pcf::core {

using cplx = std::complex<double>;

/// Complex storage viewed as real panel lanes (re, im per value).
inline double* lanes_of(cplx* p) { return reinterpret_cast<double*>(p); }
inline const double* lanes_of(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}

/// Gather `count` lines of length n into a lane-interleaved panel: line f's
/// row i lands at p[i * count + f].
template <class S>
void pack_panel(const S* const* lines, std::size_t count, std::size_t n,
                S* p) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < count; ++f) p[i * count + f] = lines[f][i];
}

class wall_normal_operators {
 public:
  /// ny = number of basis functions (collocation points); the spline space
  /// has ny - degree knot intervals, stretched toward the walls.
  wall_normal_operators(int ny, int degree, double stretch);

  [[nodiscard]] const bspline::basis& b() const { return basis_; }
  [[nodiscard]] int n() const { return basis_.size(); }
  [[nodiscard]] int degree() const { return basis_.degree(); }
  [[nodiscard]] const std::vector<double>& points() const {
    return basis_.greville();
  }

  [[nodiscard]] const banded::compact_banded& A0() const { return a0_; }
  [[nodiscard]] const banded::compact_banded& A1() const { return a1_; }
  [[nodiscard]] const banded::compact_banded& A2() const { return a2_; }

  /// Interpolation: overwrite point values with spline coefficients
  /// (solves A0 c = f). Complex or real lines.
  template <class S>
  void to_coefficients(S* line) const {
    a0_lu_.solve(line);
  }

  /// values[i] = spline(points[i]) from coefficients (A0 apply).
  template <class S>
  void to_points(const S* coef, S* values) const {
    a0_.apply(coef, values);
  }

  /// First/second derivative values at the collocation points.
  template <class S>
  void deriv1_points(const S* coef, S* values) const {
    a1_.apply(coef, values);
  }
  template <class S>
  void deriv2_points(const S* coef, S* values) const {
    a2_.apply(coef, values);
  }

  /// Panel forms of the four operators above, over `lanes` real lanes of
  /// lane-interleaved panels (banded/compact.hpp; a complex line takes two
  /// lanes, lanes_of() views complex storage as lanes). Every line comes
  /// out bit-identical to the per-line call; the band is read once per
  /// panel. x and y must not overlap.
  void to_coefficients(double* p, std::size_t ld, int lanes) const {
    a0_lu_.solve_panel(p, ld, lanes);
  }
  void to_points(const double* x, std::size_t ldx, double* y,
                 std::size_t ldy, int lanes) const {
    a0_.apply_panel(x, ldx, y, ldy, lanes);
  }
  void deriv1_points(const double* x, std::size_t ldx, double* y,
                     std::size_t ldy, int lanes) const {
    a1_.apply_panel(x, ldx, y, ldy, lanes);
  }
  void deriv2_points(const double* x, std::size_t ldx, double* y,
                     std::size_t ldy, int lanes) const {
    a2_.apply_panel(x, ldx, y, ldy, lanes);
  }

  /// Derivative of the spline at the walls (for the influence matrix).
  [[nodiscard]] double dspline_lower(const double* coef) const;
  [[nodiscard]] double dspline_upper(const double* coef) const;
  [[nodiscard]] cplx dspline_lower(const cplx* coef) const;
  [[nodiscard]] cplx dspline_upper(const cplx* coef) const;

  /// Assemble M = A0 - c (A2 - k2 A0) over the interior rows, with
  /// identity boundary rows (Dirichlet at the clamped ends). This is the
  /// operator of paper equation (3) with c = beta_i nu dt.
  [[nodiscard]] banded::compact_banded helmholtz(double c, double k2) const;

  /// Assemble M = A2 - k2 A0 with identity boundary rows — the operator of
  /// paper equation (4) used to recover v from phi.
  [[nodiscard]] banded::compact_banded poisson(double k2) const;

  /// Allocation-free assembly variants: M (shape n() x n(), half-bandwidth
  /// matching A0) is cleared and refilled, so a caller building many
  /// operators — the solver arena — can reuse one scratch matrix.
  void helmholtz_into(banded::compact_banded& M, double c, double k2) const;
  void poisson_into(banded::compact_banded& M, double k2) const;

  /// y = [A0 + c (A2 - k2 A0)] x — the explicit side of the IMEX substep
  /// — over a panel: A0 x and A2 x accumulate in one pass over the rows
  /// and combine per lane as (1 - c k2) A0x + c A2x.
  void apply_rhs_operator(double c, double k2, const double* x,
                          std::size_t ldx, double* y, std::size_t ldy,
                          int lanes) const {
    banded::apply_sum_panel(1.0 + c * (-k2), a0_, c, a2_, x, ldx, y, ldy,
                            lanes);
  }

 private:
  bspline::basis basis_;
  banded::compact_banded a0_, a1_, a2_;
  banded::compact_banded a0_lu_;  // factored copy of A0
  std::vector<double> dw_lo_, dw_hi_;  // wall-derivative weight rows
};

}  // namespace pcf::core
