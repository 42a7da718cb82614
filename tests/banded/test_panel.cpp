// Lane-interleaved panel kernels: lane t of every panel kernel must equal
// the per-line call on that lane's line, bitwise, at every lane count the
// fixed-width kernels cover (1..10, odd real counts included) and beyond
// (the runtime-width kernel), at compile-time half-bandwidths 3 and 7 and
// at the runtime-bandwidth fallback. Row strides wider than the lane count
// must leave the padding untouched, and counters charge per panel.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <functional>
#include <vector>

#include "banded/compact.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace {

using pcf::banded::compact_banded;
using pcf::banded::cplx;

constexpr double kPadValue = -7.25;
constexpr int kLaneCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 16};

/// Diagonally dominant band with exact zeros sprinkled off the diagonal,
/// so the factored L keeps structural zeros the substitution must skip.
compact_banded make_band(int n, int h, std::uint64_t seed) {
  compact_banded M(n, h);
  pcf::rng r(seed);
  for (int i = 0; i < n; ++i) {
    double rowsum = 0.0;
    for (int j = M.row_start(i); j <= M.row_start(i) + 2 * h; ++j) {
      if (j == i || (i + 2 * j) % 5 == 0) continue;
      const double v = r.uniform(-1, 1);
      M.at(i, j) = v;
      rowsum += std::abs(v);
    }
    M.at(i, i) = rowsum + 1.0;
  }
  return M;
}

/// n rows of ld doubles: lanes [0, lanes) seeded, the rest padding.
std::vector<double> make_panel(int n, int lanes, std::size_t ld,
                               std::uint64_t seed) {
  pcf::rng r(seed);
  std::vector<double> p(static_cast<std::size_t>(n) * ld, kPadValue);
  for (int i = 0; i < n; ++i)
    for (int t = 0; t < lanes; ++t)
      p[static_cast<std::size_t>(i) * ld + static_cast<std::size_t>(t)] =
          r.uniform(-1, 1);
  return p;
}

std::vector<double> lane(const std::vector<double>& p, int n, std::size_t ld,
                         int t) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] =
        p[static_cast<std::size_t>(i) * ld + static_cast<std::size_t>(t)];
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_padding(const std::vector<double>& p, int n, int lanes,
                    std::size_t ld) {
  for (int i = 0; i < n; ++i)
    for (std::size_t t = static_cast<std::size_t>(lanes); t < ld; ++t)
      ASSERT_EQ(p[static_cast<std::size_t>(i) * ld + t], kPadValue);
}

/// Every lane of the panel result against the per-line real call, and
/// each (re, im) lane pair against the per-line complex call.
template <class PerLine>
void expect_lanes(const std::vector<double>& in, const std::vector<double>& out,
                  int n, int lanes, std::size_t ld, PerLine per_line) {
  for (int t = 0; t < lanes; ++t) {
    auto v = lane(in, n, ld, t);
    per_line(v.data());
    EXPECT_TRUE(same_bits(v, lane(out, n, ld, t))) << "lane " << t;
  }
  for (int t = 0; t + 1 < lanes; t += 2) {
    const auto re = lane(in, n, ld, t), im = lane(in, n, ld, t + 1);
    std::vector<cplx> c(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = cplx{re[i], im[i]};
    per_line(c.data());
    std::vector<double> got_re(c.size()), got_im(c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
      got_re[i] = c[i].real();
      got_im[i] = c[i].imag();
    }
    EXPECT_TRUE(same_bits(got_re, lane(out, n, ld, t))) << "pair " << t;
    EXPECT_TRUE(same_bits(got_im, lane(out, n, ld, t + 1))) << "pair " << t;
  }
}

struct shape {
  int n, h;
};
// h = 3 and 7 take compile-time kernels; h = 9 the runtime-bandwidth one.
constexpr shape kShapes[] = {{33, 3}, {65, 7}, {33, 7}, {40, 9}};

TEST(PanelKernels, ApplyLanesMatchPerLineCalls) {
  for (const shape s : kShapes) {
    const auto A = make_band(s.n, s.h, 11u + static_cast<unsigned>(s.h));
    for (const int lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << s.n << " h=" << s.h
                                      << " lanes=" << lanes);
      const std::size_t ldx = static_cast<std::size_t>(lanes) + 3;
      const std::size_t ldy = static_cast<std::size_t>(lanes) + 1;
      const auto x = make_panel(s.n, lanes, ldx, 100u + lanes);
      auto y = make_panel(s.n, lanes, ldy, 200u + lanes);
      A.apply_panel(x.data(), ldx, y.data(), ldy, lanes);
      expect_padding(y, s.n, lanes, ldy);
      for (int t = 0; t < lanes; ++t) {
        const auto xt = lane(x, s.n, ldx, t);
        std::vector<double> yt(xt.size());
        A.apply(xt.data(), yt.data());
        EXPECT_TRUE(same_bits(yt, lane(y, s.n, ldy, t))) << "lane " << t;
      }
      for (int t = 0; t + 1 < lanes; t += 2) {
        std::vector<cplx> xc(static_cast<std::size_t>(s.n)), yc(xc.size());
        for (int i = 0; i < s.n; ++i)
          xc[static_cast<std::size_t>(i)] =
              cplx{x[static_cast<std::size_t>(i) * ldx + t],
                   x[static_cast<std::size_t>(i) * ldx + t + 1]};
        A.apply(xc.data(), yc.data());
        for (int i = 0; i < s.n; ++i) {
          const auto row = static_cast<std::size_t>(i) * ldy;
          const cplx got{y[row + t], y[row + t + 1]};
          EXPECT_EQ(std::memcmp(&got, &yc[static_cast<std::size_t>(i)],
                                sizeof(cplx)),
                    0)
              << "pair " << t << " row " << i;
        }
      }
    }
  }
}

TEST(PanelKernels, ApplySumLanesMatchTwoPerLineApplies) {
  const double ca = 1.0 - 0.3 * 4.0, cb = 0.3;
  for (const shape s : kShapes) {
    const auto A = make_band(s.n, s.h, 21u + static_cast<unsigned>(s.h));
    const auto B = make_band(s.n, s.h, 31u + static_cast<unsigned>(s.h));
    for (const int lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << s.n << " h=" << s.h
                                      << " lanes=" << lanes);
      const std::size_t ld = static_cast<std::size_t>(lanes) + 2;
      const auto x = make_panel(s.n, lanes, ld, 300u + lanes);
      auto y = make_panel(s.n, lanes, ld, 400u + lanes);
      pcf::banded::apply_sum_panel(ca, A, cb, B, x.data(), ld, y.data(), ld,
                                   lanes);
      expect_padding(y, s.n, lanes, ld);
      for (int t = 0; t < lanes; ++t) {
        const auto xt = lane(x, s.n, ld, t);
        std::vector<double> ax(xt.size()), bx(xt.size()), want(xt.size());
        A.apply(xt.data(), ax.data());
        B.apply(xt.data(), bx.data());
        for (std::size_t i = 0; i < want.size(); ++i)
          want[i] = ca * ax[i] + cb * bx[i];
        EXPECT_TRUE(same_bits(want, lane(y, s.n, ld, t))) << "lane " << t;
      }
    }
  }
}

TEST(PanelKernels, SolveLanesMatchPerLineCalls) {
  for (const shape s : kShapes) {
    auto lu = make_band(s.n, s.h, 41u + static_cast<unsigned>(s.h));
    lu.factorize();
    for (const int lanes : kLaneCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << s.n << " h=" << s.h
                                      << " lanes=" << lanes);
      const std::size_t ld = static_cast<std::size_t>(lanes) + 3;
      const auto x = make_panel(s.n, lanes, ld, 500u + lanes);
      auto p = x;
      lu.solve_panel(p.data(), ld, lanes);
      expect_padding(p, s.n, lanes, ld);
      expect_lanes(x, p, s.n, lanes, ld, [&](auto* line) { lu.solve(line); });
      // The view over the same factored storage runs the same kernel.
      auto q = x;
      pcf::banded::banded_view(lu.data(), s.n, s.h)
          .solve_panel(q.data(), ld, lanes);
      EXPECT_TRUE(same_bits(p, q));
    }
  }
}

TEST(PanelKernels, SignedZerosMatchPerLineCalls) {
  // Structural zeros of L are skipped, not subtracted (x - 0 * y turns a
  // -0.0 entry into +0.0 for negative y), and the panel must make the same
  // choice as the per-line kernel on inputs full of signed zeros.
  auto lu = make_band(21, 3, 5);
  lu.factorize();
  const int lanes = 5;
  std::vector<double> x(21 * lanes);
  for (std::size_t k = 0; k < x.size(); ++k)
    x[k] = k % 3 == 0 ? -0.0 : (k % 3 == 1 ? 0.0 : -1.0 / (1.0 + k));
  auto p = x;
  lu.solve_panel(p.data(), lanes, lanes);
  expect_lanes(x, p, 21, lanes, lanes, [&](auto* line) { lu.solve(line); });
}

TEST(PanelKernels, RejectsBadLaneCountsAndStrides) {
  auto A = make_band(33, 3, 1);
  std::vector<double> x(33 * 20), y(33 * 20);
  EXPECT_THROW(A.apply_panel(x.data(), 17, y.data(), 17, 17),
               pcf::precondition_error);
  EXPECT_THROW(A.apply_panel(x.data(), 3, y.data(), 4, 4),
               pcf::precondition_error);
  A.factorize();
  EXPECT_THROW(A.solve_panel(x.data(), 2, 3), pcf::precondition_error);
}

pcf::op_counts count(const std::function<void()>& f) {
  pcf::counters::drain();
  pcf::counters::reset();
  f();
  pcf::counters::drain();
  return pcf::counters::total();
}

TEST(PanelCounters, FlopsPerLaneBandReadOncePerPanel) {
  const int n = 65, h = 7, lanes = 10;
  const auto A = make_band(n, h, 3);
  auto lu = A;
  lu.factorize();
  const auto x = make_panel(n, lanes, lanes, 9);
  std::vector<double> y(x.size()), line(static_cast<std::size_t>(n));
  const auto apply_one = count([&] { A.apply(x.data(), line.data()); });
  const auto apply_panel =
      count([&] { A.apply_panel(x.data(), lanes, y.data(), lanes, lanes); });
  EXPECT_EQ(apply_panel.flops, lanes * apply_one.flops);

  const auto solve_one = count([&] {
    auto v = lane(x, n, lanes, 0);
    lu.solve(v.data());
  });
  const auto solve_panel = count([&] {
    auto p = x;
    lu.solve_panel(p.data(), lanes, lanes);
  });
  const std::uint64_t band_bytes =
      static_cast<std::uint64_t>(n) * (2 * h + 1) * 8;
  EXPECT_EQ(solve_panel.flops, lanes * solve_one.flops);
  EXPECT_EQ(solve_panel.bytes_written, lanes * solve_one.bytes_written);
  EXPECT_EQ(solve_panel.bytes_read,
            band_bytes + lanes * (solve_one.bytes_read - band_bytes));
}

}  // namespace
