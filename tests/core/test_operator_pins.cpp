// Bit-exact pins of the per-line wall-normal operators.
//
// Each pin is the CRC-32 of the outputs of one operator kind on the real
// degree-7 collocation matrices (half-bandwidth 7) at n = 33 and n = 65,
// over seeded real and complex lines: the unfactored A0 / A1 / A2 applies,
// the A0 solve, and the blocked multi-RHS A0 solve at every RHS count of
// one band pass. The values were recorded from the per-line kernels before
// the lane-panel kernels replaced them; any change to the per-line
// arithmetic order moves them.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/operators.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace {

using pcf::core::cplx;
using pcf::core::wall_normal_operators;

constexpr int kLines = 4;  // seeded lines per operator and scalar type

template <class S>
std::vector<S> seeded(std::size_t elems, std::uint64_t seed) {
  pcf::rng r(seed);
  std::vector<S> v(elems);
  for (auto& x : v) {
    if constexpr (std::is_same_v<S, cplx>)
      x = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    else
      x = r.uniform(-1, 1);
  }
  return v;
}

template <class S>
std::uint32_t fold(std::uint32_t crc, const std::vector<S>& v) {
  return pcf::crc32_update(crc, v.data(), v.size() * sizeof(S));
}

template <class S>
std::uint32_t apply_crc(const wall_normal_operators& ops, int which) {
  const auto n = static_cast<std::size_t>(ops.n());
  const auto& A = which == 0 ? ops.A0() : which == 1 ? ops.A1() : ops.A2();
  std::uint32_t crc = pcf::crc32_init();
  for (int l = 0; l < kLines; ++l) {
    const auto x = seeded<S>(n, 100u * n + 10u * which + l);
    std::vector<S> y(n);
    A.apply(x.data(), y.data());
    crc = fold(crc, y);
  }
  return pcf::crc32_final(crc);
}

template <class S>
std::uint32_t solve_crc(const wall_normal_operators& ops) {
  const auto n = static_cast<std::size_t>(ops.n());
  std::uint32_t crc = pcf::crc32_init();
  for (int l = 0; l < kLines; ++l) {
    auto x = seeded<S>(n, 7000u + n + l);
    ops.to_coefficients(x.data());
    crc = fold(crc, x);
  }
  return pcf::crc32_final(crc);
}

/// Blocked A0 solves of 1..9 right-hand sides at stride n + 3.
template <class S>
std::uint32_t solve_many_crc(const wall_normal_operators& ops) {
  const auto n = static_cast<std::size_t>(ops.n());
  const std::size_t stride = n + 3;
  pcf::banded::compact_banded lu(ops.A0());
  lu.factorize();
  std::uint32_t crc = pcf::crc32_init();
  for (int count = 1; count <= 9; ++count) {
    auto x = seeded<S>(stride * static_cast<std::size_t>(count),
                       9000u + n + static_cast<unsigned>(count));
    lu.solve_many(x.data(), count, stride);
    crc = fold(crc, x);
  }
  return pcf::crc32_final(crc);
}

struct pins {
  std::uint32_t apply_real[3], apply_cplx[3], solve_real, solve_cplx,
      many_real, many_cplx;
};

pins measure(int n) {
  const wall_normal_operators ops(n, 7, 2.0);
  EXPECT_EQ(ops.A0().half_bandwidth(), 7);
  pins p{};
  for (int k = 0; k < 3; ++k) {
    p.apply_real[k] = apply_crc<double>(ops, k);
    p.apply_cplx[k] = apply_crc<cplx>(ops, k);
  }
  p.solve_real = solve_crc<double>(ops);
  p.solve_cplx = solve_crc<cplx>(ops);
  p.many_real = solve_many_crc<double>(ops);
  p.many_cplx = solve_many_crc<cplx>(ops);
  return p;
}

void expect_pins(const pins& p, const pins& want) {
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(p.apply_real[k], want.apply_real[k]) << "A" << k << " real";
    EXPECT_EQ(p.apply_cplx[k], want.apply_cplx[k]) << "A" << k << " complex";
  }
  EXPECT_EQ(p.solve_real, want.solve_real);
  EXPECT_EQ(p.solve_cplx, want.solve_cplx);
  EXPECT_EQ(p.many_real, want.many_real);
  EXPECT_EQ(p.many_cplx, want.many_cplx);
}

TEST(OperatorPins, N33) {
  expect_pins(measure(33), {{0x92294bc1u, 0xd851710du, 0xb38c5a13u},
                            {0xd0e815a6u, 0x81ee6288u, 0x6babababu},
                            0xc6240ba2u, 0x06b60ca1u, 0x74101764u,
                            0xc046180cu});
}

TEST(OperatorPins, N65) {
  expect_pins(measure(65), {{0xd56e2760u, 0xfd9a2553u, 0x872a3c44u},
                            {0xfde7c063u, 0xce39b613u, 0xb5a91f5eu},
                            0x3250a9c2u, 0x04136f26u, 0xc1b2b5b6u,
                            0xd63c05a1u});
}

}  // namespace
