// Lane-blocked complex transform engine behind c2c_plan, r2c_plan and
// c2r_plan.
//
// Every transform runs on a *block* of kLanes lines at once. A block of p
// points holds, for each point k, the kLanes real parts and then the
// kLanes imaginary parts: line l's point k is (b[k*kPoint + l],
// b[k*kPoint + kLanes + l]). The engine walks the block through the same
// recursion, radix order and twiddle tables as a single line would, and
// each butterfly applies the same operations in the same order to every
// lane, so each line's result is bit-identical to transforming it alone —
// the lanes only let one pass (and one vectorized instruction stream)
// serve four lines. The short dealiased lines of the DNS (24-48 points)
// are dominated by per-line recursion and dispatch, which a block pays
// once for four lines.
//
// Blocks are checked out of the per-thread scratch_arena. A partial final
// block has its unused lanes zeroed; their results are discarded.
//
// Internal to pcf_fft (and its tests); not installed.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "fft/fft.hpp"
#include "fft/scratch.hpp"

namespace pcf::fft::detail {

/// Lines per block.
inline constexpr std::size_t kLanes = 4;
/// Doubles per block point: kLanes real parts, then kLanes imaginary parts.
inline constexpr std::size_t kPoint = 2 * kLanes;

/// Check out a block of `points` points from an arena scope.
inline double* alloc_block(scratch_arena::scope& sc, std::size_t points) {
  static_assert(sizeof(cplx) == 2 * sizeof(double));
  return reinterpret_cast<double*>(sc.alloc(points * kLanes));
}

/// One double per lane.
struct lane {
  double v[kLanes];
};

/// One complex value per lane.
struct clane {
  lane re, im;
};

inline lane operator+(const lane& a, const lane& b) {
  lane r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline lane operator-(const lane& a, const lane& b) {
  lane r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
  return r;
}
inline lane operator-(const lane& a) {
  lane r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = -a.v[l];
  return r;
}
inline lane operator*(double s, const lane& a) {
  lane r;
  for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = s * a.v[l];
  return r;
}

inline clane operator+(const clane& a, const clane& b) {
  return {a.re + b.re, a.im + b.im};
}
inline clane operator-(const clane& a, const clane& b) {
  return {a.re - b.re, a.im - b.im};
}
inline clane operator*(double s, const clane& a) {
  return {s * a.re, s * a.im};
}
/// a * w with std::complex's (non-fused) rule: (ar wr - ai wi, ar wi + ai wr).
inline clane operator*(const clane& a, const cplx& w) {
  const double wr = w.real(), wi = w.imag();
  return {wr * a.re - wi * a.im, wi * a.re + wr * a.im};
}
/// conj(a).
inline clane conj(const clane& a) { return {a.re, -a.im}; }

/// Point k of a block (p = b + k * kPoint).
inline clane load(const double* p) {
  clane x;
  for (std::size_t l = 0; l < kLanes; ++l) {
    x.re.v[l] = p[l];
    x.im.v[l] = p[kLanes + l];
  }
  return x;
}
inline void store(double* p, const clane& x) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    p[l] = x.re.v[l];
    p[kLanes + l] = x.im.v[l];
  }
}

/// Copy `lanes` lines of `points` (re, im) pairs into a block, zeroing the
/// lanes past `lanes`. Line l starts at in + l*stride doubles; point k of
/// a line is (in[2k], in[2k+1]) — a complex line, or a real line read as
/// its even/odd pairs.
inline void gather(const double* in, std::size_t stride, std::size_t lanes,
                   std::size_t points, double* block) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    double* b = block + l;
    if (l < lanes) {
      const double* x = in + l * stride;
      for (std::size_t k = 0; k < points; ++k, b += kPoint) {
        b[0] = x[2 * k];
        b[kLanes] = x[2 * k + 1];
      }
    } else {
      for (std::size_t k = 0; k < points; ++k, b += kPoint)
        b[0] = b[kLanes] = 0.0;
    }
  }
}

/// Copy the first `lanes` lanes of a block out to lines of (re, im)
/// pairs, the inverse of gather().
inline void scatter(const double* block, std::size_t lanes, std::size_t points,
                    double* out, std::size_t stride) {
  for (std::size_t l = 0; l < lanes; ++l) {
    const double* b = block + l;
    double* y = out + l * stride;
    for (std::size_t k = 0; k < points; ++k, b += kPoint) {
      y[2 * k] = b[0];
      y[2 * k + 1] = b[kLanes];
    }
  }
}

/// A complex array viewed as its (re, im) doubles.
inline const double* pairs(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* pairs(cplx* p) { return reinterpret_cast<double*>(p); }

/// Complex 1-D transform of one length and direction: mixed radix
/// (specialized radix 2/3/4, table-driven primes <= 31) or Bluestein.
class engine {
 public:
  engine(std::size_t n, direction dir);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] direction dir() const { return dir_; }
  /// Nominal flops of one line (5 n log2 n).
  [[nodiscard]] double flops() const { return flops_; }

  /// Transform block `in` (n points) into block `out`; they must differ.
  void run(const double* in, double* out) const;

  /// Transform `count` complex lines in blocks and charge the counters.
  void execute_many(const cplx* in, std::size_t in_stride, cplx* out,
                    std::size_t out_stride, std::size_t count) const;

  /// Charge `lines` executions to the flop/byte counters, exactly what
  /// `lines` single-line executions charge (nested Bluestein plans too).
  void charge(std::size_t lines) const;

 private:
  struct stage {
    std::size_t r = 0;  // radix applied at this depth
    std::size_t m = 0;  // transform length at this depth / r
    // tw[(q-1)*m + k2] = w_n^{q k2} for q in 1..r-1 (q = 0 is always 1).
    std::vector<cplx> tw;
  };

  void build_mixed_radix();
  void build_bluestein();
  void exec(std::size_t depth, const double* in, std::size_t istride,
            double* out) const;
  void run_bluestein(const double* in, double* out) const;

  std::size_t n_ = 0;
  direction dir_ = direction::forward;
  double sign_ = -1.0;  // -1 forward, +1 inverse
  double flops_ = 0.0;
  std::vector<stage> stages_;
  // roots_[r][q] = w_r^q for every radix r in use.
  std::vector<std::vector<cplx>> roots_;

  // Bluestein state (only when n is not smooth).
  bool bluestein_ = false;
  std::size_t bl_m_ = 0;             // padded power-of-two length
  std::vector<cplx> bl_chirp_;       // a_j = exp(sign i pi j^2 / n)
  std::vector<cplx> bl_bhat_;        // FFT_M of the chirp filter
  std::unique_ptr<engine> bl_fwd_, bl_inv_;
};

}  // namespace pcf::fft::detail
