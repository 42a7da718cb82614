// Real <-> complex transforms via the even/odd packing trick: a length-n
// real transform is computed with one length-n/2 complex transform plus an
// O(n) unpack. This is the storage layout the paper's kernel exploits when
// it drops the Nyquist mode (Section 4.4).
#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "fft/engine.hpp"
#include "fft/fft.hpp"
#include "util/check.hpp"

namespace pcf::fft {

namespace {

using detail::alloc_block;
using detail::clane;
using detail::conj;
using detail::engine;
using detail::gather;
using detail::kLanes;
using detail::kPoint;
using detail::load;
using detail::pairs;
using detail::scatter;
using detail::scratch_arena;
using detail::store;

/// Unit roots e^{sign i 2 pi k / n} for k = 0..n/2.
std::vector<cplx> half_roots(std::size_t n, double sign) {
  std::vector<cplx> w(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k)
    w[k] = std::polar(1.0, sign * 2.0 * std::numbers::pi *
                               static_cast<double>(k) /
                               static_cast<double>(n));
  return w;
}

}  // namespace

// ---------------------------------------------------------------------------
// r2c
// ---------------------------------------------------------------------------

struct r2c_plan::impl {
  std::size_t n = 0;
  engine half;          // length n/2 forward transform
  std::vector<cplx> w;  // e^{-2 pi i k / n}

  explicit impl(std::size_t len)
      : n(len), half(len / 2, direction::forward), w(half_roots(len, -1.0)) {
    PCF_REQUIRE(len >= 2 && len % 2 == 0, "r2c length must be even");
  }

  /// X_k = E_k + w^k O_k with E_k = (Z_k + conj(Z_{h-k})) / 2 and
  /// O_k = -i (Z_k - conj(Z_{h-k})) / 2, for zk = Z_k, zmk = conj(Z_{h-k}).
  static clane unpack(const clane& zk, const clane& zmk, const cplx& wk) {
    const clane e = 0.5 * (zk + zmk);
    const clane d = 0.5 * (zk - zmk);
    const clane o{d.im, -d.re};  // -i * d
    return e + o * wk;
  }

  void run_many(const double* in, std::size_t in_stride, cplx* out,
                std::size_t out_stride, std::size_t count) const {
    const std::size_t h = n / 2;
    // The blocks stay checked out across half.run(), which nests
    // Bluestein scratch on this thread when h is not smooth.
    scratch_arena::scope sc(scratch_arena::tls());
    double* z = alloc_block(sc, h);
    double* Z = alloc_block(sc, h);
    double* X = alloc_block(sc, h + 1);
    for (std::size_t b = 0; b < count; b += kLanes) {
      const std::size_t lanes = std::min(kLanes, count - b);
      // Pack z_j = x_{2j} + i x_{2j+1}.
      gather(in + b * in_stride, in_stride, lanes, h, z);
      half.run(z, Z);
      const clane z0 = load(Z);
      store(X, unpack(z0, conj(z0), w[0]));
      for (std::size_t k = 1; k < h; ++k)
        store(X + k * kPoint, unpack(load(Z + k * kPoint),
                                     conj(load(Z + (h - k) * kPoint)),
                                     w[k]));
      store(X + h * kPoint, unpack(z0, conj(z0), w[h]));
      scatter(X, lanes, h + 1, pairs(out + b * out_stride), 2 * out_stride);
    }
    half.charge(count);
  }
};

r2c_plan::r2c_plan(std::size_t n) : impl_(new impl(n)) {}
r2c_plan::~r2c_plan() = default;
r2c_plan::r2c_plan(r2c_plan&&) noexcept = default;
r2c_plan& r2c_plan::operator=(r2c_plan&&) noexcept = default;
std::size_t r2c_plan::size() const { return impl_->n; }

void r2c_plan::execute(const double* in, cplx* out) const {
  impl_->run_many(in, 0, out, 0, 1);
}

void r2c_plan::execute_many(const double* in, std::size_t in_stride, cplx* out,
                            std::size_t out_stride, std::size_t count) const {
  impl_->run_many(in, in_stride, out, out_stride, count);
}

// ---------------------------------------------------------------------------
// c2r
// ---------------------------------------------------------------------------

struct c2r_plan::impl {
  std::size_t n = 0;
  engine half;          // length n/2 inverse transform
  std::vector<cplx> w;  // e^{+2 pi i k / n}

  explicit impl(std::size_t len)
      : n(len), half(len / 2, direction::inverse), w(half_roots(len, 1.0)) {
    PCF_REQUIRE(len >= 2 && len % 2 == 0, "c2r length must be even");
  }

  void run_many(const cplx* in, std::size_t in_stride, double* out,
                std::size_t out_stride, std::size_t count) const {
    const std::size_t h = n / 2;
    // Same nesting hazard as r2c: the blocks live across half.run().
    scratch_arena::scope sc(scratch_arena::tls());
    double* X = alloc_block(sc, h + 1);
    double* Z = alloc_block(sc, h);
    double* z = alloc_block(sc, h);
    for (std::size_t b = 0; b < count; b += kLanes) {
      const std::size_t lanes = std::min(kLanes, count - b);
      gather(pairs(in + b * in_stride), 2 * in_stride, lanes, h + 1, X);
      // Repack: Z_k = E_k + i O_k (scale 2 relative to the forward E/O) so
      // that r2c followed by c2r scales by exactly n, matching FFTW.
      for (std::size_t k = 0; k < h; ++k) {
        const clane xk = load(X + k * kPoint);
        const clane xmk = conj(load(X + (h - k) * kPoint));
        const clane e = xk + xmk;
        const clane o = (xk - xmk) * w[k];
        store(Z + k * kPoint, clane{e.re - o.im, e.im + o.re});  // e + i*o
      }
      half.run(Z, z);
      // Unpack x_{2j} + i x_{2j+1} = z_j.
      scatter(z, lanes, h, out + b * out_stride, out_stride);
    }
    half.charge(count);
  }
};

c2r_plan::c2r_plan(std::size_t n) : impl_(new impl(n)) {}
c2r_plan::~c2r_plan() = default;
c2r_plan::c2r_plan(c2r_plan&&) noexcept = default;
c2r_plan& c2r_plan::operator=(c2r_plan&&) noexcept = default;
std::size_t c2r_plan::size() const { return impl_->n; }

void c2r_plan::execute(const cplx* in, double* out) const {
  impl_->run_many(in, 0, out, 0, 1);
}

void c2r_plan::execute_many(const cplx* in, std::size_t in_stride, double* out,
                            std::size_t out_stride, std::size_t count) const {
  impl_->run_many(in, in_stride, out, out_stride, count);
}

}  // namespace pcf::fft
