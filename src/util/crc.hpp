// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for checkpoint
// section checksums. Header-only; the table is built at compile time.
//
// The checkpoint writer protects every array section with a CRC so that
// bit-rot, torn writes and truncation are detected *per section* on load
// and reported with the section name, instead of being silently accepted
// into a restart state (paper production campaigns live and die on their
// checkpoints).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pcf {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// Incrementally updatable CRC-32. `crc` is the running value returned by a
/// previous call (start from crc32_init()); finish with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                const void* data,
                                                std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i)
    crc = detail::kCrc32Table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) {
  return crc ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a buffer (check value: crc32("123456789") ==
/// 0xCBF43926).
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t bytes) {
  return crc32_final(crc32_update(crc32_init(), data, bytes));
}

namespace detail {

// GF(2) 32x32 matrix operating on CRC state vectors; row i is the image of
// bit i. Used to advance a CRC over `len` zero bytes in O(log len).
using crc_matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2_times_vec(const crc_matrix& m, std::uint32_t v) {
  std::uint32_t out = 0;
  for (int i = 0; v != 0; ++i, v >>= 1)
    if (v & 1u) out ^= m[static_cast<std::size_t>(i)];
  return out;
}

constexpr crc_matrix gf2_times_mat(const crc_matrix& a, const crc_matrix& b) {
  crc_matrix out{};
  for (std::size_t i = 0; i < 32; ++i) out[i] = gf2_times_vec(a, b[i]);
  return out;
}

}  // namespace detail

/// crc32_combine for a fixed len_b. The operator that advances a CRC over
/// len_b zero bytes is built once, so joining many equal-length pieces
/// (a field's mode lines, in global order) costs one 32x32 GF(2)
/// matrix-vector product per piece.
class crc32_combiner {
 public:
  explicit constexpr crc32_combiner(std::uint64_t len_b) {
    // Operator for one zero bit: the CRC shift (reflected polynomial),
    // squared three times into the operator for one zero byte.
    detail::crc_matrix step{};
    step[0] = 0xEDB88320u;
    for (std::size_t i = 1; i < 32; ++i) step[i] = 1u << (i - 1);
    for (int k = 0; k < 3; ++k) step = detail::gf2_times_mat(step, step);
    for (std::size_t i = 0; i < 32; ++i) shift_[i] = 1u << i;
    // Square-and-multiply over the bits of len_b.
    for (; len_b != 0; len_b >>= 1) {
      if (len_b & 1u) shift_ = detail::gf2_times_mat(step, shift_);
      step = detail::gf2_times_mat(step, step);
    }
  }

  /// CRC-32 of A||B from crc32(A) and crc32(B), |B| = len_b.
  [[nodiscard]] constexpr std::uint32_t operator()(std::uint32_t crc_a,
                                                   std::uint32_t crc_b) const {
    return detail::gf2_times_vec(shift_, crc_a) ^ crc_b;
  }

 private:
  detail::crc_matrix shift_{};
};

/// CRC-32 of the concatenation A||B from crc32(A), crc32(B) and B's length
/// (zlib crc32_combine semantics). Lets scattered writers checksum a file
/// section from their in-memory pieces without ever re-reading the file.
[[nodiscard]] inline std::uint32_t crc32_combine(std::uint32_t crc_a,
                                                 std::uint32_t crc_b,
                                                 std::uint64_t len_b) {
  return len_b == 0 ? crc_a : crc32_combiner(len_b)(crc_a, crc_b);
}

}  // namespace pcf
