#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/engine.hpp"
#include "fft/fft.hpp"
#include "util/check.hpp"
#include "util/counters.hpp"

namespace pcf::fft {

namespace {

constexpr std::size_t kMaxButterflyRadix = 31;

double twopi() { return 2.0 * std::numbers::pi; }

}  // namespace

std::vector<std::size_t> factorize(std::size_t n) {
  PCF_REQUIRE(n >= 1, "factorize requires n >= 1");
  std::vector<std::size_t> f;
  for (std::size_t p = 2; p * p <= n; p += (p == 2 ? 1 : 2)) {
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  }
  if (n > 1) f.push_back(n);
  return f;
}

bool is_smooth(std::size_t n) {
  auto f = factorize(n);
  return f.empty() || f.back() <= kMaxButterflyRadix;
}

void dft_naive(const cplx* in, cplx* out, std::size_t n, int sign) {
  PCF_REQUIRE(sign == 1 || sign == -1, "sign must be +1 or -1");
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      // Reduce j*k mod n before forming the angle to preserve accuracy.
      const double ang = sign * twopi() * static_cast<double>((j * k) % n) /
                         static_cast<double>(n);
      acc += in[j] * std::polar(1.0, ang);
    }
    out[k] = acc;
  }
}

// ---------------------------------------------------------------------------
// Lane-blocked engine (fft/engine.hpp)
// ---------------------------------------------------------------------------

namespace detail {

engine::engine(std::size_t n, direction dir)
    : n_(n), dir_(dir), sign_(dir == direction::forward ? -1.0 : 1.0) {
  flops_ = (n_ > 1) ? 5.0 * static_cast<double>(n_) *
                          std::log2(static_cast<double>(n_))
                    : 0.0;
  if (n_ <= 1) return;
  if (is_smooth(n_))
    build_mixed_radix();
  else
    build_bluestein();
}

void engine::build_mixed_radix() {
  // Merge prime factors: pairs of 2s become radix-4 stages (the hot path
  // for the power-of-two-rich grid sizes used in the DNS).
  auto primes = factorize(n_);
  std::vector<std::size_t> radices;
  std::size_t twos = 0;
  for (std::size_t p : primes) {
    if (p == 2)
      ++twos;
    else
      radices.push_back(p);
  }
  while (twos >= 2) {
    radices.push_back(4);
    twos -= 2;
  }
  if (twos == 1) radices.push_back(2);
  std::sort(radices.begin(), radices.end(), std::greater<>());

  roots_.assign(kMaxButterflyRadix + 1, {});
  std::size_t rem = n_;
  for (std::size_t r : radices) {
    stage st;
    st.r = r;
    st.m = rem / r;
    // Planar layout: each twiddle stream is contiguous in k2, the index
    // the combine loops walk.
    st.tw.resize(st.m * (r - 1));
    for (std::size_t k2 = 0; k2 < st.m; ++k2) {
      for (std::size_t q = 1; q < r; ++q) {
        const double ang = sign_ * twopi() *
                           static_cast<double>((q * k2) % rem) /
                           static_cast<double>(rem);
        st.tw[(q - 1) * st.m + k2] = std::polar(1.0, ang);
      }
    }
    if (roots_[r].empty()) {
      roots_[r].resize(r);
      for (std::size_t q = 0; q < r; ++q)
        roots_[r][q] = std::polar(1.0, sign_ * twopi() *
                                           static_cast<double>(q) /
                                           static_cast<double>(r));
    }
    stages_.push_back(std::move(st));
    rem /= r;
  }
  PCF_ASSERT(rem == 1);
}

void engine::build_bluestein() {
  bluestein_ = true;
  bl_m_ = 1;
  while (bl_m_ < 2 * n_ - 1) bl_m_ <<= 1;
  bl_fwd_ = std::make_unique<engine>(bl_m_, direction::forward);
  bl_inv_ = std::make_unique<engine>(bl_m_, direction::inverse);

  bl_chirp_.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    // j^2 mod 2n keeps the argument small for accuracy.
    const std::size_t j2 = (j * j) % (2 * n_);
    bl_chirp_[j] = std::polar(
        1.0, sign_ * std::numbers::pi * static_cast<double>(j2) /
                 static_cast<double>(n_));
  }
  std::vector<cplx> b(bl_m_, cplx{0.0, 0.0});
  for (std::size_t j = 0; j < n_; ++j) {
    const cplx c = std::conj(bl_chirp_[j]);
    b[j] = c;
    if (j != 0) b[bl_m_ - j] = c;
  }
  bl_bhat_.resize(bl_m_);
  bl_fwd_->execute_many(b.data(), bl_m_, bl_bhat_.data(), bl_m_, 1);
}

namespace {

/// Butterfly over pre-twiddled inputs t[], writing output k to
/// base + k * cs doubles. Specialized for radix R = 2/3/4; R = 0 is the
/// table-driven butterfly of the other small primes r.
template <std::size_t R>
inline void butterfly(double* base, std::size_t cs, const clane* t,
                      std::size_t r, const cplx* roots, double sign) {
  if constexpr (R == 2) {
    store(base, t[0] + t[1]);
    store(base + cs, t[0] - t[1]);
  } else if constexpr (R == 3) {
    const double s3 = sign * 0.8660254037844386467637231707529362;  // sqrt(3)/2
    const clane u = t[1] + t[2];
    const clane v = t[1] - t[2];
    const clane w = t[0] - 0.5 * u;
    const clane iv{-s3 * v.im, s3 * v.re};  // i * s3 * v
    store(base, t[0] + u);
    store(base + cs, w + iv);
    store(base + 2 * cs, w - iv);
  } else if constexpr (R == 4) {
    const clane a = t[0] + t[2];
    const clane b = t[0] - t[2];
    const clane c = t[1] + t[3];
    const clane d = t[1] - t[3];
    // forward (sign=-1): X1 = b - i d, X3 = b + i d
    const clane id{-sign * d.im, sign * d.re};  // sign * i * d
    store(base, a + c);
    store(base + cs, b + id);
    store(base + 2 * cs, a - c);
    store(base + 3 * cs, b - id);
  } else {
    for (std::size_t k = 0; k < r; ++k) {
      clane acc = t[0];
      for (std::size_t q = 1; q < r; ++q)
        acc = acc + t[q] * roots[(q * k) % r];
      store(base + k * cs, acc);
    }
  }
}

/// One recursion level of radix R (R = 0: generic radix r). A leaf level
/// (m == 1) reads its r inputs `istride` points apart from `in`; any
/// other level combines, in place in `out`, column k2 of the r
/// sub-transforms (branch q at point q*m + k2) with twiddles
/// tw[(q-1)*m + k2].
template <std::size_t R>
void pass(const double* in, std::size_t istride, double* out, std::size_t m,
          const cplx* tw, std::size_t r, const cplx* roots, double sign) {
  constexpr std::size_t kMaxT = R == 0 ? kMaxButterflyRadix + 1 : R;
  clane t[kMaxT];
  if (m == 1) {
    for (std::size_t q = 0; q < r; ++q) t[q] = load(in + q * istride * kPoint);
    butterfly<R>(out, kPoint, t, r, roots, sign);
    return;
  }
  for (std::size_t k2 = 0; k2 < m; ++k2) {
    double* col = out + k2 * kPoint;
    t[0] = load(col);
    for (std::size_t q = 1; q < r; ++q)
      t[q] = load(col + q * m * kPoint) * tw[(q - 1) * m + k2];
    butterfly<R>(col, m * kPoint, t, r, roots, sign);
  }
}

}  // namespace

void engine::exec(std::size_t depth, const double* in, std::size_t istride,
                  double* out) const {
  const stage& st = stages_[depth];
  const std::size_t r = st.r;
  const std::size_t m = st.m;
  if (m > 1)
    for (std::size_t q = 0; q < r; ++q)
      exec(depth + 1, in + q * istride * kPoint, istride * r,
           out + q * m * kPoint);

  const cplx* tw = st.tw.data();
  const cplx* roots = roots_[r].data();
  switch (r) {
    case 2: pass<2>(in, istride, out, m, tw, r, roots, sign_); break;
    case 3: pass<3>(in, istride, out, m, tw, r, roots, sign_); break;
    case 4: pass<4>(in, istride, out, m, tw, r, roots, sign_); break;
    default: pass<0>(in, istride, out, m, tw, r, roots, sign_); break;
  }
}

void engine::run_bluestein(const double* in, double* out) const {
  // u/uhat stay checked out across the inner runs; the arena never moves
  // a live chunk (see fft/scratch.hpp).
  scratch_arena::scope sc(scratch_arena::tls());
  double* u = alloc_block(sc, bl_m_);
  double* uhat = alloc_block(sc, bl_m_);
  for (std::size_t j = 0; j < n_; ++j)
    store(u + j * kPoint, load(in + j * kPoint) * bl_chirp_[j]);
  std::fill(u + n_ * kPoint, u + bl_m_ * kPoint, 0.0);
  bl_fwd_->run(u, uhat);
  for (std::size_t j = 0; j < bl_m_; ++j)
    store(uhat + j * kPoint, load(uhat + j * kPoint) * bl_bhat_[j]);
  bl_inv_->run(uhat, u);
  const double inv_m = 1.0 / static_cast<double>(bl_m_);
  for (std::size_t k = 0; k < n_; ++k)
    store(out + k * kPoint, (inv_m * load(u + k * kPoint)) * bl_chirp_[k]);
}

void engine::run(const double* in, double* out) const {
  if (n_ <= 1)
    std::copy_n(in, n_ * kPoint, out);
  else if (bluestein_)
    run_bluestein(in, out);
  else
    exec(0, in, 1, out);
}

void engine::execute_many(const cplx* in, std::size_t in_stride, cplx* out,
                          std::size_t out_stride, std::size_t count) const {
  if (n_ == 0 || count == 0) return;
  scratch_arena::scope sc(scratch_arena::tls());
  double* x = alloc_block(sc, n_);
  double* y = alloc_block(sc, n_);
  for (std::size_t b = 0; b < count; b += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - b);
    gather(pairs(in + b * in_stride), 2 * in_stride, lanes, n_, x);
    run(x, y);
    scatter(y, lanes, n_, pairs(out + b * out_stride), 2 * out_stride);
  }
  charge(count);
}

void engine::charge(std::size_t lines) const {
  if (n_ <= 1) return;
  const std::uint64_t bytes = lines * n_ * sizeof(cplx);
  counters::add_flops(lines * static_cast<std::uint64_t>(flops_));
  counters::add_read(bytes);
  counters::add_written(bytes);
  if (bluestein_) {
    bl_fwd_->charge(lines);
    bl_inv_->charge(lines);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// c2c_plan
// ---------------------------------------------------------------------------

struct c2c_plan::impl {
  detail::engine e;
};

c2c_plan::c2c_plan(std::size_t n, direction dir)
    : impl_(new impl{detail::engine(n, dir)}) {}
c2c_plan::~c2c_plan() = default;
c2c_plan::c2c_plan(c2c_plan&&) noexcept = default;
c2c_plan& c2c_plan::operator=(c2c_plan&&) noexcept = default;

std::size_t c2c_plan::size() const { return impl_->e.size(); }
direction c2c_plan::dir() const { return impl_->e.dir(); }
double c2c_plan::flops_per_execute() const { return impl_->e.flops(); }

void c2c_plan::execute(const cplx* in, cplx* out) const {
  impl_->e.execute_many(in, 0, out, 0, 1);
}

void c2c_plan::execute_many(const cplx* in, std::size_t in_stride, cplx* out,
                            std::size_t out_stride, std::size_t count) const {
  impl_->e.execute_many(in, in_stride, out, out_stride, count);
}

}  // namespace pcf::fft
