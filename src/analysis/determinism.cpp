#include "analysis/determinism.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/crc.hpp"

namespace pcf::determinism {

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

}  // namespace

std::uint32_t step_fingerprint::combined() const {
  std::uint32_t c = crc32_init();
  c = crc32_update(c, &step, sizeof(step));
  c = crc32_update(c, &time_bits, sizeof(time_bits));
  c = crc32_update(c, &dt_bits, sizeof(dt_bits));
  c = crc32_update(c, &crc_v, sizeof(crc_v));
  c = crc32_update(c, &crc_om, sizeof(crc_om));
  c = crc32_update(c, &crc_phi, sizeof(crc_phi));
  c = crc32_update(c, &crc_mean, sizeof(crc_mean));
  // Scenario sections join the digest only when present, so default-
  // channel combined values (and their golden CSVs) stay frozen.
  if (crc_scalars != 0)
    c = crc32_update(c, &crc_scalars, sizeof(crc_scalars));
  return crc32_final(c);
}

step_fingerprint fingerprint(core::channel_dns& dns) {
  // The parallel checkpoint layout's section CRCs are the decomposition-
  // independent view of the state: every mode line has one owner, and the
  // line CRCs are combined in global order.
  const auto crcs = dns.section_crcs();
  PCF_REQUIRE(crcs.size() >= 4 && crcs[0].name == "c_v" &&
                  crcs[1].name == "c_om" && crcs[2].name == "c_phi" &&
                  crcs[3].name == "mean",
              "unexpected checkpoint section order");
  step_fingerprint fp;
  fp.step = dns.step_count();
  fp.time_bits = bits_of(dns.time());
  fp.dt_bits = bits_of(dns.dt());
  fp.crc_v = crcs[0].crc;
  fp.crc_om = crcs[1].crc;
  fp.crc_phi = crcs[2].crc;
  fp.crc_mean = crcs[3].crc;
  // Scenario sections (sc0, scm0, sc1, scm1, ..., frc) follow the frozen
  // four; fold their CRCs in that order. Stays 0 when there are none.
  if (crcs.size() > 4) {
    std::uint32_t c = crc32_init();
    for (std::size_t t = 4; t < crcs.size(); ++t)
      c = crc32_update(c, &crcs[t].crc, sizeof(crcs[t].crc));
    fp.crc_scalars = crc32_final(c);
  }
  return fp;
}

trace record_trace(core::channel_dns& dns, int nsteps) {
  // PCF_DETERMINISM_POOLED (the `determinism-pooled` CMake test preset):
  // drive every recorded step through a full suspend -> release ->
  // re-lease -> resume cycle, so the whole suite proves that workspace
  // slabs landing on different pool blocks never change bits. Safe for
  // owned-lane configurations too (suspend frees, resume reallocates).
  static const bool cycle = std::getenv("PCF_DETERMINISM_POOLED") != nullptr;
  trace t;
  t.steps.reserve(static_cast<std::size_t>(nsteps) + 1);
  t.steps.push_back(fingerprint(dns));
  for (int s = 0; s < nsteps; ++s) {
    if (cycle) {
      dns.suspend();
      dns.resume();
    }
    dns.step();
    t.steps.push_back(fingerprint(dns));
  }
  return t;
}

std::vector<divergence> compare(const trace& expected, const trace& actual) {
  std::vector<divergence> divs;
  if (expected.steps.size() != actual.steps.size()) {
    divergence d;
    d.row = std::min(expected.steps.size(), actual.steps.size());
    d.field = "rows";
    d.expected = expected.steps.size();
    d.actual = actual.steps.size();
    divs.push_back(d);
  }
  const std::size_t n = std::min(expected.steps.size(), actual.steps.size());
  for (std::size_t i = 0; i < n; ++i) {
    const step_fingerprint& e = expected.steps[i];
    const step_fingerprint& a = actual.steps[i];
    if (e == a) continue;
    divergence d;
    d.row = i;
    d.step = e.step;
    // Attribute the first differing field in evolution order: the step/
    // time/dt bookkeeping first (a restart that re-counts steps differs
    // there before any field does), then the evolved fields.
    if (e.step != a.step) {
      d.field = "step";
      d.expected = static_cast<std::uint64_t>(e.step);
      d.actual = static_cast<std::uint64_t>(a.step);
    } else if (e.time_bits != a.time_bits) {
      d.field = "time";
      d.expected = e.time_bits;
      d.actual = a.time_bits;
    } else if (e.dt_bits != a.dt_bits) {
      d.field = "dt";
      d.expected = e.dt_bits;
      d.actual = a.dt_bits;
    } else if (e.crc_v != a.crc_v) {
      d.field = "c_v";
      d.expected = e.crc_v;
      d.actual = a.crc_v;
    } else if (e.crc_om != a.crc_om) {
      d.field = "c_om";
      d.expected = e.crc_om;
      d.actual = a.crc_om;
    } else if (e.crc_phi != a.crc_phi) {
      d.field = "c_phi";
      d.expected = e.crc_phi;
      d.actual = a.crc_phi;
    } else if (e.crc_mean != a.crc_mean) {
      d.field = "mean";
      d.expected = e.crc_mean;
      d.actual = a.crc_mean;
    } else {
      d.field = "scalars";
      d.expected = e.crc_scalars;
      d.actual = a.crc_scalars;
    }
    divs.push_back(d);
  }
  return divs;
}

std::string describe(const std::vector<divergence>& divs) {
  if (divs.empty()) return "traces are bit-identical";
  std::ostringstream os;
  os << std::hex;
  for (const auto& d : divs)
    os << "row " << std::dec << d.row << " (step " << d.step << "): " << d.field
       << " expected 0x" << std::hex << d.expected << " got 0x" << d.actual
       << "\n";
  return os.str();
}

void write_trace_csv(const std::string& path, const trace& t) {
  std::ofstream os(path);
  PCF_REQUIRE(os.good(), "cannot open trace file for writing: " + path);
  // The extended header (with crc_scalars) is written only when some row
  // carries scenario state, so default-channel golden CSVs keep their
  // frozen byte layout.
  bool scalars = false;
  for (const auto& fp : t.steps) scalars = scalars || fp.crc_scalars != 0;
  os << (scalars ? "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,"
                   "crc_scalars,combined\n"
                 : "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,"
                   "combined\n");
  os << std::hex;
  for (const auto& fp : t.steps) {
    os << std::dec << fp.step << std::hex << ',' << fp.time_bits << ','
       << fp.dt_bits << ',' << fp.crc_v << ',' << fp.crc_om << ','
       << fp.crc_phi << ',' << fp.crc_mean << ',';
    if (scalars) os << fp.crc_scalars << ',';
    os << fp.combined() << '\n';
  }
  PCF_REQUIRE(os.good(), "trace write failed: " + path);
}

trace read_trace_csv(const std::string& path) {
  std::ifstream is(path);
  PCF_REQUIRE(is.good(), "cannot open trace file for reading: " + path);
  std::string line;
  PCF_REQUIRE(static_cast<bool>(std::getline(is, line)),
              "trace file header missing: " + path);
  const bool scalars =
      line ==
      "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,crc_scalars,"
      "combined";
  PCF_REQUIRE(scalars ||
                  line ==
                      "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,"
                      "combined",
              "trace file header mismatch: " + path);
  trace t;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    step_fingerprint fp;
    char c = 0;
    std::uint64_t combined = 0;
    ls >> std::dec >> fp.step >> c >> std::hex >> fp.time_bits >> c >>
        fp.dt_bits >> c >> fp.crc_v >> c >> fp.crc_om >> c >> fp.crc_phi >>
        c >> fp.crc_mean >> c;
    if (scalars) ls >> fp.crc_scalars >> c;
    ls >> combined;
    PCF_REQUIRE(!ls.fail(), "malformed trace row in " + path + ": " + line);
    PCF_REQUIRE(combined == fp.combined(),
                "trace row self-check failed in " + path + ": " + line);
    t.steps.push_back(fp);
  }
  return t;
}

std::uint32_t file_crc32(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PCF_REQUIRE(is.good(), "cannot open file for checksumming: " + path);
  char buf[1 << 16];
  std::uint32_t crc = crc32_init();
  while (is) {
    is.read(buf, sizeof(buf));
    crc = crc32_update(crc, buf, static_cast<std::size_t>(is.gcount()));
  }
  PCF_REQUIRE(is.eof(), "file read failed while checksumming: " + path);
  return crc32_final(crc);
}

}  // namespace pcf::determinism
