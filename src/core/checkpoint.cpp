// channel_dns checkpointing. One ordered section list describes the
// evolved state; it drives both on-disk layouts and the decomposition-
// independent section CRCs the determinism fingerprint digests. Every
// array sits in a named section with a CRC-32, so a damaged file is
// refused with an error naming the array. The byte layouts are frozen —
// tests pin whole-file CRCs.
//
//   per-rank  magic, {nx, ny, nz, pa, pb}, time, steps, {nsections, 0},
//             then every entry as section header + payload, streamed
//             straight from / into the state arrays.
//   parallel  magic + 2, {nx, ny, nz}, time, steps, {nsections, 0}, the
//             section table, then the payloads at fixed offsets in global
//             order with the distributed fields moved first. Every rank
//             writes its own mode lines in place (MPI-IO style, O(local)
//             memory) and the mean rank writes the rank-local tail, so the
//             file does not depend on the decomposition.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>

#include "core/simulation.hpp"
#include "core/simulation_impl.hpp"
#include "io/atomic_file.hpp"
#include "util/crc.hpp"

namespace pcf::core {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x50434644'4e533032ull;  // PCFDNS02

struct section_header {
  char name[8];           // zero-padded section name
  std::uint64_t bytes;    // payload size
  std::uint32_t crc;      // CRC-32 of the payload
  std::uint32_t reserved; // zero
};
static_assert(sizeof(section_header) == 24, "section header must be packed");

section_header make_section_header(const std::string& name,
                                   std::uint64_t bytes, std::uint32_t crc) {
  section_header h{};
  std::snprintf(h.name, sizeof(h.name), "%s", name.c_str());
  h.bytes = bytes;
  h.crc = crc;
  return h;
}

std::string section_name(const section_header& h) {
  return std::string(h.name, strnlen(h.name, sizeof(h.name)));
}

/// One entry of the ordered state description. A distributed entry is a
/// mode-line field: `data` holds this rank's modes.nmodes lines of n
/// coefficients, which the parallel layout stores at their global
/// offsets. A rank-local entry is an array every rank holds whose
/// meaningful copy is the mean rank's. The parallel layout stores the
/// consecutive entries of one `group` as one section: c_U and c_W form
/// "mean".
struct section {
  std::string name;
  std::string group;
  bool distributed;
  char* data;
  std::size_t bytes;  // this rank's payload
};

/// The state in per-rank order: c_v, c_om, c_phi, c_U, c_W, then sc<i>
/// (fluctuation lines) and scm<i> (mean profile) per passive scalar, and
/// under constant flow rate "frc" = {captured target, last forcing},
/// staged through `frc`, which starts as this rank's current pair (a load
/// that does not fill it — a non-mean rank reading a parallel file —
/// restores that pair unchanged). A default-scenario run has no scenario
/// sections, so its files stay byte-identical to the pre-scenario format.
std::vector<section> sections(channel_dns::impl& s, double (&frc)[2]) {
  auto& st = s.state;
  auto field = [](std::string name, aligned_buffer<cplx>& b) {
    return section{name, name, true, reinterpret_cast<char*>(b.data()),
                   b.size() * sizeof(cplx)};
  };
  auto local = [](std::string name, std::string group, double* p,
                  std::size_t count) {
    return section{std::move(name), std::move(group), false,
                   reinterpret_cast<char*>(p), count * sizeof(double)};
  };
  std::vector<section> list = {
      field("c_v", st.c_v), field("c_om", st.c_om), field("c_phi", st.c_phi),
      local("c_U", "mean", st.c_U.data(), st.c_U.size()),
      local("c_W", "mean", st.c_W.data(), st.c_W.size())};
  for (std::size_t i = 0; i < st.scalars.size(); ++i) {
    auto& sc = st.scalars[i];
    const std::string scm = "scm" + std::to_string(i);
    list.push_back(field("sc" + std::to_string(i), sc.c_th));
    list.push_back(local(scm, scm, sc.c_T.data(), sc.c_T.size()));
  }
  frc[0] = s.mean_flow.flow_target();
  frc[1] = s.mean_flow.last_forcing();
  if (s.cfg.scenario.constant_flow_rate())
    list.push_back(local("frc", "frc", frc, 2));
  return list;
}

/// A section of the parallel layout: list entries [first, first + count)
/// and their global payload size.
struct file_section {
  std::string name;
  bool distributed;
  std::size_t first, count;
  std::uint64_t bytes;
};

std::size_t global_lines(const channel_dns::impl& s) {
  return s.cfg.nx / 2 * s.cfg.nz;
}

std::size_t line_bytes(const channel_dns::impl& s) {
  return s.modes.n * sizeof(cplx);
}

/// Global line index of local mode m.
std::size_t global_line(const channel_dns::impl& s, std::size_t m) {
  return (s.d.xs.offset + m / s.d.zs.count) * s.cfg.nz + s.d.zs.offset +
         m % s.d.zs.count;
}

/// The list grouped into parallel-layout sections, in global order.
std::vector<file_section> file_sections(const channel_dns::impl& s,
                                        const std::vector<section>& list) {
  std::vector<file_section> out;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const section& e = list[i];
    const std::uint64_t bytes =
        e.distributed ? global_lines(s) * line_bytes(s) : e.bytes;
    if (!out.empty() && out.back().name == e.group) {
      ++out.back().count;
      out.back().bytes += bytes;
    } else {
      out.push_back({e.group, e.distributed, i, 1, bytes});
    }
  }
  return out;
}

/// Every section's CRC-32 in global order, computed from the owners' own
/// bits (collective): each mode line is checksummed by its owner and the
/// line CRCs are combined in global line order; each rank-local section
/// is checksummed by the mean rank. The values meet through a bitwise OR
/// — every slot has exactly one owner — never through a floating-point
/// sum, which would turn an owned -0.0 into +0.0 whenever a non-owner's
/// +0.0 joined in.
std::vector<std::uint32_t> file_crcs(channel_dns::impl& s,
                                     const std::vector<section>& list,
                                     const std::vector<file_section>& fs) {
  const std::size_t lines = global_lines(s), lb = line_bytes(s);
  std::vector<std::size_t> slot(fs.size() + 1, 0);
  for (std::size_t t = 0; t < fs.size(); ++t)
    slot[t + 1] = slot[t] + (fs[t].distributed ? lines : 1);
  std::vector<std::uint64_t> mine(slot.back(), 0), all(slot.back());
  for (std::size_t t = 0; t < fs.size(); ++t) {
    if (fs[t].distributed) {
      const char* data = list[fs[t].first].data;
      for (std::size_t m = 0; m < s.modes.nmodes; ++m)
        mine[slot[t] + global_line(s, m)] = crc32(data + m * lb, lb);
    } else if (s.modes.has_mean) {
      std::uint32_t c = crc32_init();
      for (std::size_t i = fs[t].first; i < fs[t].first + fs[t].count; ++i)
        c = crc32_update(c, list[i].data, list[i].bytes);
      mine[slot[t]] = crc32_final(c);
    }
  }
  s.world.allreduce_bor(mine.data(), all.data(), all.size());
  const crc32_combiner join(lb);
  std::vector<std::uint32_t> crcs(fs.size());
  for (std::size_t t = 0; t < fs.size(); ++t) {
    if (!fs[t].distributed) {
      crcs[t] = static_cast<std::uint32_t>(all[slot[t]]);
      continue;
    }
    std::uint32_t c = 0;  // CRC of the empty prefix
    for (std::size_t l = 0; l < lines; ++l)
      c = join(c, static_cast<std::uint32_t>(all[slot[t] + l]));
    crcs[t] = c;
  }
  return crcs;
}

/// The parallel layout's file order: global order with the distributed
/// sections moved first (a stable partition).
std::vector<std::size_t> parallel_order(const std::vector<file_section>& fs) {
  std::vector<std::size_t> order(fs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_partition(order.begin(), order.end(),
                        [&](std::size_t t) { return fs[t].distributed; });
  return order;
}

/// Visit every payload piece of the parallel layout this rank owns as
/// (file offset, state bytes): each local mode line of a distributed
/// section at its global offset and, on the mean rank, the entries of the
/// rank-local sections back to back. `off` is the first payload byte.
template <class Fn>
void for_each_owned_piece(const channel_dns::impl& s,
                          const std::vector<section>& list,
                          const std::vector<file_section>& fs,
                          std::uint64_t off, Fn&& fn) {
  const std::size_t lb = line_bytes(s);
  for (std::size_t t : parallel_order(fs)) {
    if (fs[t].distributed) {
      char* data = list[fs[t].first].data;
      for (std::size_t m = 0; m < s.modes.nmodes; ++m)
        fn(off + global_line(s, m) * lb, data + m * lb, lb);
    } else if (s.modes.has_mean) {
      std::uint64_t at = off;
      for (std::size_t i = fs[t].first; i < fs[t].first + fs[t].count; ++i) {
        fn(at, list[i].data, list[i].bytes);
        at += list[i].bytes;
      }
    }
    off += fs[t].bytes;
  }
}

/// What distinguishes the two layouts' headers; `what` prefixes errors.
struct layout {
  const char* what;
  std::uint64_t magic;
  std::vector<std::uint64_t> dims;

  /// First payload byte of a parallel file: past the header (magic,
  /// dims, time, steps, {nsections, 0}) and the section table.
  [[nodiscard]] std::uint64_t payload_offset(std::size_t nsections) const {
    return sizeof(magic) + dims.size() * sizeof(std::uint64_t) +
           sizeof(double) + sizeof(long) + 2 * sizeof(std::uint32_t) +
           nsections * sizeof(section_header);
  }
};

layout make_layout(const channel_dns::impl& s, bool parallel) {
  layout lay{parallel ? "parallel checkpoint" : "checkpoint",
             kCheckpointMagic + (parallel ? 2 : 0),
             {s.cfg.nx, static_cast<std::uint64_t>(s.cfg.ny), s.cfg.nz}};
  if (!parallel)
    lay.dims.insert(lay.dims.end(), {static_cast<std::uint64_t>(s.d.pa),
                                     static_cast<std::uint64_t>(s.d.pb)});
  return lay;
}

void write_header(io::atomic_file_writer& os, const layout& lay,
                  const channel_dns::impl& s, std::size_t nsections) {
  os.write(&lay.magic, sizeof(lay.magic));
  os.write(lay.dims.data(), lay.dims.size() * sizeof(std::uint64_t));
  os.write(&s.time, sizeof(s.time));
  os.write(&s.steps, sizeof(s.steps));
  const std::uint32_t meta[2] = {static_cast<std::uint32_t>(nsections), 0};
  os.write(meta, sizeof(meta));
}

/// Read and check the header; restores time and step count.
void read_header(std::istream& is, const layout& lay, channel_dns::impl& s,
                 std::size_t nsections) {
  const std::string what = lay.what;
  std::uint64_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  PCF_REQUIRE(magic == lay.magic, "not a " + what + " file");
  std::vector<std::uint64_t> dims(lay.dims.size());
  is.read(reinterpret_cast<char*>(dims.data()),
          static_cast<std::streamsize>(dims.size() * sizeof(std::uint64_t)));
  PCF_REQUIRE(!is.fail(), what + " header truncated");
  PCF_REQUIRE(dims == lay.dims, what + " grid/decomposition mismatch");
  std::uint32_t meta[2] = {0, 0};
  is.read(reinterpret_cast<char*>(&s.time), sizeof(s.time));
  is.read(reinterpret_cast<char*>(&s.steps), sizeof(s.steps));
  is.read(reinterpret_cast<char*>(meta), sizeof(meta));
  PCF_REQUIRE(!is.fail() && meta[0] == nsections,
              what + " section count mismatch");
}

void write_section(io::atomic_file_writer& os, const section& e) {
  const section_header h =
      make_section_header(e.name, e.bytes, crc32(e.data, e.bytes));
  os.write(&h, sizeof(h));
  os.write(e.data, e.bytes);
}

/// Read and verify one section into its state array; every failure mode
/// names the section so a restart script can tell *which* array is
/// damaged.
void read_section(std::istream& is, const section& e) {
  const std::string tag = "checkpoint section '" + e.name + "'";
  section_header h{};
  is.read(reinterpret_cast<char*>(&h), sizeof(h));
  PCF_REQUIRE(!is.fail(), tag + " header truncated");
  PCF_REQUIRE(section_name(h) == e.name,
              "checkpoint section '" + section_name(h) +
                  "' unexpected (expected '" + e.name + "')");
  PCF_REQUIRE(h.bytes == e.bytes, tag + " has wrong size");
  is.read(e.data, static_cast<std::streamsize>(e.bytes));
  PCF_REQUIRE(!is.fail(), tag + " truncated");
  PCF_REQUIRE(crc32(e.data, e.bytes) == h.crc, tag + " CRC mismatch");
}

/// After any load: zero the nonlinear histories, restore the flow-rate
/// forcing pair, and drop the factored solvers. The restored run may step
/// with a dt the caller changes before the first step (the runner's
/// reduced-dt retry does), so the bands are rebuilt against the dt
/// actually in effect.
void finish_load(channel_dns::impl& s, const double (&frc)[2]) {
  auto& st = s.state;
  st.hv_prev.fill(cplx{0, 0});
  st.hg_prev.fill(cplx{0, 0});
  std::fill(st.hU_prev.begin(), st.hU_prev.end(), 0.0);
  std::fill(st.hW_prev.begin(), st.hW_prev.end(), 0.0);
  for (auto& sc : st.scalars) {
    sc.hth_prev.fill(cplx{0, 0});
    std::fill(sc.hT_prev.begin(), sc.hT_prev.end(), 0.0);
  }
  if (s.cfg.scenario.constant_flow_rate())
    s.mean_flow.restore_forcing(frc[0], frc[1]);
  s.invalidate_solvers();
}

}  // namespace

void channel_dns::save_checkpoint(const std::string& path) const {
  auto& s = *impl_;
  double frc[2];
  const auto list = sections(s, frc);
  io::atomic_file_writer os(path);
  write_header(os, make_layout(s, false), s, list.size());
  for (const auto& e : list) write_section(os, e);
  os.commit();
}

void channel_dns::load_checkpoint(const std::string& path) {
  auto& s = *impl_;
  s.ensure_resumed();
  double frc[2];
  const auto list = sections(s, frc);
  std::ifstream is(path, std::ios::binary);
  PCF_REQUIRE(is.good(), "cannot open checkpoint file for reading: " + path);
  read_header(is, make_layout(s, false), s, list.size());
  for (const auto& e : list) read_section(is, e);
  // A well-formed checkpoint ends exactly at its last section: trailing
  // bytes mean a concatenated/overlong file.
  PCF_REQUIRE(is.peek() == std::char_traits<char>::eof(),
              "trailing garbage after checkpoint payload");
  finish_load(s, frc);
}

std::vector<section_crc> channel_dns::section_crcs() const {
  auto& s = *impl_;
  double frc[2];
  const auto list = sections(s, frc);
  const auto fs = file_sections(s, list);
  const auto crcs = file_crcs(s, list, fs);
  std::vector<section_crc> out;
  for (std::size_t t = 0; t < fs.size(); ++t)
    out.push_back({fs[t].name, crcs[t]});
  return out;
}

void channel_dns::save_checkpoint_parallel(const std::string& path) {
  auto& s = *impl_;
  double frc[2];
  const auto list = sections(s, frc);
  const auto fs = file_sections(s, list);
  // Section CRCs come from the in-memory state: reading the file back
  // would checksum whatever a fault left there.
  const auto crcs = file_crcs(s, list, fs);
  const auto order = parallel_order(fs);
  const layout lay = make_layout(s, true);
  std::optional<io::atomic_file_writer> owner;
  if (s.world.rank() == 0) {
    owner.emplace(path);
    write_header(*owner, lay, s, fs.size());
    for (std::size_t t : order) {
      const section_header h =
          make_section_header(fs[t].name, fs[t].bytes, crcs[t]);
      owner->write(&h, sizeof(h));
    }
    owner->flush();
  }
  s.world.barrier();
  {
    std::optional<io::atomic_file_writer> joiner;
    io::atomic_file_writer& os =
        owner ? *owner : joiner.emplace(io::atomic_file_writer::join(path));
    for_each_owned_piece(
        s, list, fs, lay.payload_offset(fs.size()),
        [&](std::uint64_t at, const char* data, std::size_t bytes) {
          os.write_at(at, data, bytes);
        });
    if (joiner) joiner->close();
  }
  s.world.barrier();
  if (owner) owner->commit();
  s.world.barrier();
}

void channel_dns::load_checkpoint_parallel(const std::string& path) {
  auto& s = *impl_;
  s.ensure_resumed();
  double frc[2];
  const auto list = sections(s, frc);
  const auto fs = file_sections(s, list);
  const auto order = parallel_order(fs);
  const layout lay = make_layout(s, true);
  std::ifstream is(path, std::ios::binary);
  PCF_REQUIRE(is.good(),
              "cannot open parallel checkpoint for reading: " + path);
  read_header(is, lay, s, fs.size());
  const std::uint64_t payload = lay.payload_offset(fs.size());
  std::uint64_t expected = payload;
  for (const auto& f : fs) expected += f.bytes;
  // Every rank runs the identical verification on the shared file, so all
  // ranks reach the same accept/reject decision without extra collectives
  // (no rank is left blocked in one when the file is damaged).
  std::vector<section_header> table(fs.size());
  is.read(reinterpret_cast<char*>(table.data()),
          static_cast<std::streamsize>(table.size() * sizeof(section_header)));
  PCF_REQUIRE(!is.fail(), "parallel checkpoint section table truncated");
  is.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(is.tellg());
  PCF_REQUIRE(size == expected, size < expected
                                    ? "parallel checkpoint truncated"
                                    : "trailing garbage after checkpoint "
                                      "payload");
  is.seekg(static_cast<std::streamoff>(payload));
  std::vector<char> buf(1 << 20);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const file_section& f = fs[order[k]];
    PCF_REQUIRE(section_name(table[k]) == f.name && table[k].bytes == f.bytes,
                "checkpoint section '" + section_name(table[k]) +
                    "' unexpected (expected '" + f.name + "')");
    std::uint32_t crc = crc32_init();
    for (std::uint64_t left = f.bytes; left > 0;) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(left, buf.size()));
      is.read(buf.data(), static_cast<std::streamsize>(chunk));
      PCF_REQUIRE(!is.fail(),
                  "checkpoint section '" + f.name + "' truncated");
      crc = crc32_update(crc, buf.data(), chunk);
      left -= chunk;
    }
    PCF_REQUIRE(crc32_final(crc) == table[k].crc,
                "checkpoint section '" + f.name + "' CRC mismatch");
  }
  // Verified: each rank reads its own mode lines, the mean rank the
  // rank-local tail.
  for_each_owned_piece(s, list, fs, payload,
                       [&](std::uint64_t at, char* data, std::size_t bytes) {
                         is.seekg(static_cast<std::streamoff>(at));
                         is.read(data, static_cast<std::streamsize>(bytes));
                       });
  PCF_REQUIRE(is.good(), "parallel checkpoint read failed");
  finish_load(s, frc);
  s.world.barrier();
}

}  // namespace pcf::core
