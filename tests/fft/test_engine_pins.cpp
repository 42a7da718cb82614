// Bit-exact pins of the FFT engine's output.
//
// Each pin is the CRC-32 of every output buffer of one transform kind and
// length, over seeded inputs, line counts 1..9 (every partial-block size)
// and in-place / out-of-place runs with line strides larger than a line.
// The values were recorded from the per-line engine before the lane-blocked
// rewrite; any change to the arithmetic order of any butterfly, twiddle or
// pack loop moves them. Whole buffers are hashed, padding included, so a
// write outside a line also moves a pin.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "fft/fft.hpp"
#include "util/counters.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace {

using pcf::fft::c2c_plan;
using pcf::fft::c2r_plan;
using pcf::fft::cplx;
using pcf::fft::direction;
using pcf::fft::r2c_plan;

enum class kind { c2c_fwd, c2c_inv, r2c, c2r };

constexpr std::size_t kMaxCount = 9;
constexpr std::size_t kPad = 3;  // extra elements per line (stride > line)

template <class T>
std::vector<T> seeded(std::size_t elems, std::uint64_t seed) {
  pcf::rng r(seed);
  std::vector<T> v(elems);
  for (auto& x : v) {
    if constexpr (std::is_same_v<T, cplx>)
      x = cplx{r.uniform(-1, 1), r.uniform(-1, 1)};
    else
      x = r.uniform(-1, 1);
  }
  return v;
}

template <class T>
std::uint32_t fold(std::uint32_t crc, const std::vector<T>& v) {
  return pcf::crc32_update(crc, v.data(), v.size() * sizeof(T));
}

std::uint64_t seed_of(kind k, std::size_t n, std::size_t count, bool inplace) {
  return (static_cast<std::uint64_t>(k) << 40) ^ (n << 16) ^ (count << 1) ^
         static_cast<std::uint64_t>(inplace);
}

/// CRC of every c2c output buffer for counts 1..9, out-of-place and
/// in-place.
std::uint32_t c2c_crc(kind k, std::size_t n) {
  const c2c_plan p(n, k == kind::c2c_fwd ? direction::forward
                                         : direction::inverse);
  const std::size_t stride = n + kPad;
  std::uint32_t crc = pcf::crc32_init();
  for (std::size_t count = 1; count <= kMaxCount; ++count) {
    auto x = seeded<cplx>(stride * count, seed_of(k, n, count, false));
    std::vector<cplx> y(count * (stride + 1), cplx{7.0, -7.0});
    p.execute_many(x.data(), stride, y.data(), stride + 1, count);
    crc = fold(crc, y);
    auto z = seeded<cplx>(stride * count, seed_of(k, n, count, true));
    p.execute_many(z.data(), stride, z.data(), stride, count);
    crc = fold(crc, z);
  }
  return pcf::crc32_final(crc);
}

/// CRC of every r2c output buffer (n real -> n/2 + 1 complex per line).
/// The in-place run overlays each line's real input on its own output.
std::uint32_t r2c_crc(std::size_t n) {
  const r2c_plan p(n);
  const std::size_t modes = n / 2 + 1;
  std::uint32_t crc = pcf::crc32_init();
  for (std::size_t count = 1; count <= kMaxCount; ++count) {
    auto x = seeded<double>((n + kPad) * count,
                            seed_of(kind::r2c, n, count, false));
    std::vector<cplx> y(count * (modes + kPad), cplx{7.0, -7.0});
    p.execute_many(x.data(), n + kPad, y.data(), modes + kPad, count);
    crc = fold(crc, y);
    auto z = seeded<cplx>((modes + 1) * count,
                          seed_of(kind::r2c, n, count, true));
    p.execute_many(reinterpret_cast<const double*>(z.data()), 2 * (modes + 1),
                   z.data(), modes + 1, count);
    crc = fold(crc, z);
  }
  return pcf::crc32_final(crc);
}

/// CRC of every c2r output buffer (n/2 + 1 complex -> n real per line).
std::uint32_t c2r_crc(std::size_t n) {
  const c2r_plan p(n);
  const std::size_t modes = n / 2 + 1;
  std::uint32_t crc = pcf::crc32_init();
  for (std::size_t count = 1; count <= kMaxCount; ++count) {
    auto x = seeded<cplx>((modes + kPad) * count,
                          seed_of(kind::c2r, n, count, false));
    std::vector<double> y(count * (n + kPad), 7.0);
    p.execute_many(x.data(), modes + kPad, y.data(), n + kPad, count);
    crc = fold(crc, y);
    auto z = seeded<cplx>((modes + 1) * count,
                          seed_of(kind::c2r, n, count, true));
    p.execute_many(z.data(), modes + 1, reinterpret_cast<double*>(z.data()),
                   2 * (modes + 1), count);
    crc = fold(crc, z);
  }
  return pcf::crc32_final(crc);
}

std::uint32_t engine_crc(kind k, std::size_t n) {
  switch (k) {
    case kind::c2c_fwd:
    case kind::c2c_inv:
      return c2c_crc(k, n);
    case kind::r2c:
      return r2c_crc(n);
    case kind::c2r:
      return c2r_crc(n);
  }
  return 0;
}

struct pin {
  kind k;
  std::size_t n;
  std::uint32_t crc;
};

// c2c: radix 2/3/4 and generic primes 5..31, mixed products, and the
// Bluestein lengths 37 and 111. r2c/c2r: twice each c2c length, so the
// half-length transform runs every one of those shapes.
constexpr pin kPins[] = {
    {kind::c2c_fwd, 2, 0x169d397du},     {kind::c2c_fwd, 3, 0xb8a5bcc0u},
    {kind::c2c_fwd, 4, 0xcf1c8496u},     {kind::c2c_fwd, 5, 0xa0194c0cu},
    {kind::c2c_fwd, 7, 0x728479d1u},     {kind::c2c_fwd, 12, 0xf1fa63bfu},
    {kind::c2c_fwd, 24, 0xd98a3b8bu},    {kind::c2c_fwd, 29, 0x4f346303u},
    {kind::c2c_fwd, 31, 0x30a6e3b5u},    {kind::c2c_fwd, 48, 0x87c9c2bcu},
    {kind::c2c_fwd, 96, 0xb8c08056u},    {kind::c2c_fwd, 120, 0xa10fba13u},
    {kind::c2c_fwd, 37, 0xca79ffdbu},    {kind::c2c_fwd, 111, 0xe0dc4002u},
    {kind::c2c_inv, 2, 0xdecfcfffu},     {kind::c2c_inv, 3, 0x8086fed9u},
    {kind::c2c_inv, 4, 0x518f7f98u},     {kind::c2c_inv, 5, 0xaac2050cu},
    {kind::c2c_inv, 7, 0x3aaa66b4u},     {kind::c2c_inv, 12, 0x6745ab71u},
    {kind::c2c_inv, 24, 0x2fa32a1cu},    {kind::c2c_inv, 29, 0xa9e6a110u},
    {kind::c2c_inv, 31, 0xf450568du},    {kind::c2c_inv, 48, 0xe2dfbfd9u},
    {kind::c2c_inv, 96, 0x2db3c78eu},    {kind::c2c_inv, 120, 0xc8ff895cu},
    {kind::c2c_inv, 37, 0xad5fe625u},    {kind::c2c_inv, 111, 0xb0f4379fu},
    {kind::r2c, 4, 0x68972bc4u},         {kind::r2c, 6, 0x71a9812bu},
    {kind::r2c, 8, 0xb8a7fd25u},         {kind::r2c, 10, 0xe407be07u},
    {kind::r2c, 14, 0x46cd84a0u},        {kind::r2c, 24, 0x4c9065b8u},
    {kind::r2c, 48, 0x79206932u},        {kind::r2c, 58, 0x13ab64feu},
    {kind::r2c, 62, 0x1761c3e5u},        {kind::r2c, 96, 0xa2e9539fu},
    {kind::r2c, 192, 0x21f07625u},       {kind::r2c, 240, 0xeb0c2e9u},
    {kind::r2c, 74, 0x48c685fcu},        {kind::r2c, 222, 0x6a82421eu},
    {kind::c2r, 4, 0x68f5c831u},         {kind::c2r, 6, 0x862c868u},
    {kind::c2r, 8, 0xe50b0099u},         {kind::c2r, 10, 0x7dbaf53fu},
    {kind::c2r, 14, 0x50168c01u},        {kind::c2r, 24, 0x7c57db3bu},
    {kind::c2r, 48, 0xa53a3caeu},        {kind::c2r, 58, 0xd8c95e18u},
    {kind::c2r, 62, 0xc4466a7du},        {kind::c2r, 96, 0xe3d0fd53u},
    {kind::c2r, 192, 0xfbcc7148u},       {kind::c2r, 240, 0xc2208c27u},
    {kind::c2r, 74, 0xc38d90c2u},        {kind::c2r, 222, 0xce6637d1u},
};

const char* kind_name(kind k) {
  switch (k) {
    case kind::c2c_fwd: return "c2c_fwd";
    case kind::c2c_inv: return "c2c_inv";
    case kind::r2c: return "r2c";
    case kind::c2r: return "c2r";
  }
  return "?";
}

class EnginePins : public ::testing::TestWithParam<pin> {};

TEST_P(EnginePins, OutputCrcMatchesRecordedEngine) {
  const pin& p = GetParam();
  const std::uint32_t got = engine_crc(p.k, p.n);
  EXPECT_EQ(got, p.crc) << "{kind::" << kind_name(p.k) << ", " << p.n
                        << ", 0x" << std::hex << got << "u}";
}

INSTANTIATE_TEST_SUITE_P(
    Engine, EnginePins, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<pin>& info) {
      return std::string(kind_name(info.param.k)) + "_" +
             std::to_string(info.param.n);
    });

// --- Lane position: line b of execute_many(count) is bitwise the line
// --- transformed alone, for every b and every partial-block count.

constexpr std::size_t kLaneLengths[] = {12, 24, 37, 48};

TEST(EngineLanes, C2CLineOfManyEqualsExecuteAlone) {
  for (std::size_t n : kLaneLengths) {
    for (direction d : {direction::forward, direction::inverse}) {
      const c2c_plan p(n, d);
      for (std::size_t count = 1; count <= kMaxCount; ++count) {
        auto x = seeded<cplx>(n * count, 900 + n + count);
        std::vector<cplx> many(n * count), one(n);
        p.execute_many(x.data(), n, many.data(), n, count);
        for (std::size_t b = 0; b < count; ++b) {
          p.execute(x.data() + b * n, one.data());
          EXPECT_EQ(std::memcmp(one.data(), many.data() + b * n,
                                n * sizeof(cplx)),
                    0)
              << "n=" << n << " count=" << count << " b=" << b;
        }
      }
    }
  }
}

TEST(EngineLanes, RealLineOfManyEqualsExecuteAlone) {
  for (std::size_t h : kLaneLengths) {
    const std::size_t n = 2 * h;
    const r2c_plan f(n);
    const c2r_plan g(n);
    const std::size_t modes = n / 2 + 1;
    for (std::size_t count = 1; count <= kMaxCount; ++count) {
      auto x = seeded<double>(n * count, 950 + n + count);
      std::vector<cplx> spec(modes * count), one_spec(modes);
      f.execute_many(x.data(), n, spec.data(), modes, count);
      std::vector<double> back(n * count), one_back(n);
      g.execute_many(spec.data(), modes, back.data(), n, count);
      for (std::size_t b = 0; b < count; ++b) {
        f.execute(x.data() + b * n, one_spec.data());
        EXPECT_EQ(std::memcmp(one_spec.data(), spec.data() + b * modes,
                              modes * sizeof(cplx)),
                  0)
            << "r2c n=" << n << " count=" << count << " b=" << b;
        g.execute(spec.data() + b * modes, one_back.data());
        EXPECT_EQ(std::memcmp(one_back.data(), back.data() + b * n,
                              n * sizeof(double)),
                  0)
            << "c2r n=" << n << " count=" << count << " b=" << b;
      }
    }
  }
}

// --- Counters: execute_many(count) charges exactly count single executes.

template <class Run>
pcf::op_counts counted(Run&& run) {
  pcf::counters::drain();
  const pcf::op_counts before = pcf::counters::total();
  run();
  pcf::counters::drain();
  const pcf::op_counts after = pcf::counters::total();
  return {after.flops - before.flops, after.bytes_read - before.bytes_read,
          after.bytes_written - before.bytes_written};
}

void expect_scaled(const pcf::op_counts& many, const pcf::op_counts& one,
                   std::size_t count, const char* what) {
  EXPECT_GT(one.flops, 0u) << what;
  EXPECT_EQ(many.flops, count * one.flops) << what;
  EXPECT_EQ(many.bytes_read, count * one.bytes_read) << what;
  EXPECT_EQ(many.bytes_written, count * one.bytes_written) << what;
}

TEST(EngineCounters, ExecuteManyChargesCountTimesOneExecute) {
  for (std::size_t n : {24u, 37u, 48u}) {
    for (std::size_t count : {1u, 5u, 9u}) {
      const c2c_plan p(n, direction::forward);
      auto x = seeded<cplx>(n * count, 7);
      std::vector<cplx> y(n * count);
      expect_scaled(
          counted([&] { p.execute_many(x.data(), n, y.data(), n, count); }),
          counted([&] { p.execute(x.data(), y.data()); }), count, "c2c");

      const std::size_t m = 2 * n, modes = n + 1;
      const r2c_plan f(m);
      const c2r_plan g(m);
      auto r = seeded<double>(m * count, 8);
      std::vector<cplx> s(modes * count);
      expect_scaled(
          counted([&] { f.execute_many(r.data(), m, s.data(), modes, count); }),
          counted([&] { f.execute(r.data(), s.data()); }), count, "r2c");
      expect_scaled(
          counted([&] { g.execute_many(s.data(), modes, r.data(), m, count); }),
          counted([&] { g.execute(s.data(), r.data()); }), count, "c2r");
    }
  }
}

}  // namespace
