// Deterministic fault-injection matrix for the two checkpoint layouts
// (ctest label: faults).
//
// Every injected fault must be either *invisible* — the crash hit before
// commit, so the previous checkpoint survives bit for bit — or *detected*
// on load with an error naming the damage (a section CRC mismatch or a
// truncation). A fault that a loader silently accepts is the failure mode
// these tests exist to rule out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "io/atomic_file.hpp"
#include "util/check.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::io::fault_injection_scope;
using pcf::io::fault_kind;
using pcf::io::fault_policy;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config cfg_small() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.dt = 1e-4;
  return cfg;
}

enum class fmt { per_rank, parallel };

const char* fmt_name(fmt f) {
  return f == fmt::per_rank ? "per_rank" : "parallel";
}

void save_as(channel_dns& dns, fmt f, const std::string& path) {
  if (f == fmt::per_rank)
    dns.save_checkpoint(path);
  else
    dns.save_checkpoint_parallel(path);
}

void load_as(channel_dns& dns, fmt f, const std::string& path) {
  if (f == fmt::per_rank)
    dns.load_checkpoint(path);
  else
    dns.load_checkpoint_parallel(path);
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {};
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// File offset of the first payload byte of the named 24-byte-header
/// section in a v2 per-rank checkpoint; 0 if absent.
std::uint64_t section_payload_offset(const std::vector<char>& bytes,
                                     const char* name) {
  char key[8] = {};
  std::snprintf(key, sizeof(key), "%s", name);
  // Sections start after magic + 5 dims + time + steps + meta (two
  // uint32s).
  for (std::size_t pos = 8 + 5 * 8 + 8 + 8 + 2 * 4;
       pos + 24 <= bytes.size();) {
    std::uint64_t sz = 0;
    std::memcpy(&sz, bytes.data() + pos + 8, 8);
    if (std::memcmp(bytes.data() + pos, key, 8) == 0) return pos + 24;
    pos += 24 + sz;
  }
  return 0;
}

// First payload byte of a default-scenario parallel file: the header
// (magic, 3 dims, time, steps, meta = 56 bytes) and four 24-byte section
// table entries; c_v's payload starts here.
constexpr std::uint64_t kParallelPayload = 56 + 4 * 24;

struct fault_case {
  fmt format;
  fault_kind kind;
};

class FaultMatrix : public ::testing::TestWithParam<fault_case> {};

TEST_P(FaultMatrix, EveryFaultIsInvisibleOrDetected) {
  const auto [format, kind] = GetParam();
  const std::string path = ::testing::TempDir() + "/pcf_fault_" +
                           fmt_name(format) + "_" +
                           std::to_string(static_cast<int>(kind)) + ".ckpt";
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 3);
    dns.step();
    // A known-good previous checkpoint generation.
    save_as(dns, format, path);
    const auto good = slurp(path);
    ASSERT_FALSE(good.empty());

    // Aim the fault at real payload bytes: inside the c_om section of the
    // per-rank layout, inside the c_v payload of the parallel layout.
    std::uint64_t target = 0;
    if (format == fmt::parallel) {
      target = kParallelPayload + 64;
    } else {
      target = section_payload_offset(good, "c_om") + 16;
      ASSERT_GT(target, std::uint64_t{16});
    }
    if (kind == fault_kind::short_write)
      target = good.size() - 48;  // drop the file's tail

    dns.step();  // a different state, so a torn overwrite is observable
    bool save_crashed = false;
    {
      fault_injection_scope fault({kind, target, path});
      try {
        save_as(dns, format, path);
      } catch (const pcf::io::injected_crash&) {
        save_crashed = true;
      }
    }

    if (save_crashed) {
      // Atomicity: the interrupted save must be invisible — the previous
      // generation survives bit for bit and still loads.
      EXPECT_EQ(kind, fault_kind::crash_after_n);
      const auto after = slurp(path);
      ASSERT_EQ(after.size(), good.size());
      EXPECT_EQ(std::memcmp(after.data(), good.data(), good.size()), 0);
      channel_dns dns2(cfg, world);
      load_as(dns2, format, path);
      EXPECT_EQ(dns2.step_count(), 1);
      return;
    }

    // The fault corrupted the committed file: the loader must refuse it
    // with an error that names the damage — never accept it silently.
    ASSERT_TRUE(kind == fault_kind::short_write ||
                kind == fault_kind::bit_flip);
    channel_dns dns2(cfg, world);
    try {
      load_as(dns2, format, path);
      FAIL() << fmt_name(format)
             << ": corrupted checkpoint was silently accepted";
    } catch (const pcf::precondition_error& e) {
      const std::string what = e.what();
      if (kind == fault_kind::bit_flip) {
        EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find(format == fmt::parallel ? "'c_v'" : "'c_om'"),
                  std::string::npos)
            << what;
      } else {
        EXPECT_TRUE(what.find("truncated") != std::string::npos ||
                    what.find("CRC mismatch") != std::string::npos)
            << what;
      }
    }
  });
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatsAllFaults, FaultMatrix,
    ::testing::Values(
        fault_case{fmt::per_rank, fault_kind::short_write},
        fault_case{fmt::per_rank, fault_kind::bit_flip},
        fault_case{fmt::per_rank, fault_kind::crash_after_n},
        fault_case{fmt::parallel, fault_kind::short_write},
        fault_case{fmt::parallel, fault_kind::bit_flip},
        fault_case{fmt::parallel, fault_kind::crash_after_n}),
    [](const ::testing::TestParamInfo<fault_case>& info) {
      std::string kind;
      switch (info.param.kind) {
        case fault_kind::short_write: kind = "ShortWrite"; break;
        case fault_kind::bit_flip: kind = "BitFlip"; break;
        default: kind = "CrashAfterN"; break;
      }
      std::string f = fmt_name(info.param.format);
      f[0] = static_cast<char>(std::toupper(f[0]));
      const auto us = f.find('_');
      if (us != std::string::npos) {
        f.erase(us, 1);
        f[us] = static_cast<char>(std::toupper(f[us]));
      }
      return f + kind;
    });

TEST(Faults, FailOpenLeavesThePreviousCheckpointLoadable) {
  const std::string path = ::testing::TempDir() + "/pcf_fault_open.ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.1, 3);
    dns.step();
    dns.save_checkpoint(path);
    const auto good = slurp(path);
    dns.step();
    {
      fault_injection_scope fault({fault_kind::fail_open, 0, path});
      EXPECT_THROW(dns.save_checkpoint(path), pcf::precondition_error);
    }
    const auto after = slurp(path);
    ASSERT_EQ(after.size(), good.size());
    EXPECT_EQ(std::memcmp(after.data(), good.data(), good.size()), 0);
    channel_dns dns2(cfg_small(), world);
    dns2.load_checkpoint(path);
    EXPECT_EQ(dns2.step_count(), 1);
  });
  std::remove(path.c_str());
}

// A damaged parallel file on a 2 x 2 split: every rank verifies the shared
// file itself, so every rank must throw — none may be left blocked in a
// collective waiting for a rank that gave up.
TEST(Faults, ParallelBitFlipThrowsOnEveryRank) {
  const std::string path =
      ::testing::TempDir() + "/pcf_fault_parallel_2x2.ckpt";
  auto cfg = cfg_small();
  cfg.pa = 2;
  cfg.pb = 2;
  {
    fault_injection_scope fault(
        {fault_kind::bit_flip, kParallelPayload + 64, path});
    run_world(4, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.1, 3);
      dns.step();
      dns.save_checkpoint_parallel(path);
    });
  }
  std::atomic<int> thrown{0};
  run_world(4, [&](communicator& world) {
    channel_dns dns(cfg, world);
    try {
      dns.load_checkpoint_parallel(path);
    } catch (const pcf::precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("'c_v' CRC mismatch"),
                std::string::npos)
          << e.what();
      ++thrown;
    }
  });
  EXPECT_EQ(thrown.load(), 4);
  std::remove(path.c_str());
}

}  // namespace
