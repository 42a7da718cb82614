// Golden step-by-step CRC trace: the first 25 quickstart steps, committed
// as tests/determinism/golden_trace_quickstart.csv. Any refactor that
// perturbs a single bit of the evolved state fails here with the exact
// step and state field where the divergence appeared — the per-step
// extension of the end-state CRC 0x3fa23d27 pin that PRs 2-4 carried.
//
// Regenerating (only when a change is *supposed* to alter the physics):
//   PCF_REGEN_GOLDEN=1 ./test_determinism_golden
// rewrites the committed CSV in the source tree; review the diff like any
// other golden-artifact change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "determinism_test_util.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_dns;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::file_crc32;
using pcf::determinism::read_trace_csv;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::determinism::write_trace_csv;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kGoldenSteps = 25;
// End-state pins carried since PR 1: the per-rank v2 checkpoint of the
// quickstart state after 25 steps, byte layout frozen.
constexpr std::uint32_t kGoldenCheckpointCrc = 0x3fa23d27u;

const std::string kGoldenCsv =
    std::string(PCF_SOURCE_DIR) + "/tests/determinism/golden_trace_quickstart.csv";

TEST(DeterminismGolden, QuickstartTraceMatchesCommittedGolden) {
  if (PCF_UNDER_TSAN) GTEST_SKIP() << "golden artifacts excluded from the "
                                      "sanitizer matrix (runtime bound)";
  const std::string ckpt = scratch_path("ckpt");
  trace t;
  std::uint32_t ckpt_crc = 0;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    t = record_trace(dns, kGoldenSteps);
    dns.save_checkpoint(ckpt);
    ckpt_crc = file_crc32(ckpt);
  });
  std::remove(ckpt.c_str());

  // The committed end-state lineage holds regardless of the CSV.
  EXPECT_EQ(ckpt_crc, kGoldenCheckpointCrc)
      << "per-rank checkpoint byte layout or evolved state changed";

  if (std::getenv("PCF_REGEN_GOLDEN") != nullptr) {
    write_trace_csv(kGoldenCsv, t);
    GTEST_SKIP() << "regenerated " << kGoldenCsv;
  }
  const trace golden = read_trace_csv(kGoldenCsv);
  ASSERT_EQ(golden.steps.size(),
            static_cast<std::size_t>(kGoldenSteps) + 1);
  const auto divs = compare(golden, t);
  EXPECT_TRUE(divs.empty())
      << "quickstart trace diverged from the committed golden trace:\n"
      << describe(divs);
}

// The golden CSV itself round-trips bit-exactly through the writer/parser
// (each row carries a combined CRC the parser re-derives).
TEST(DeterminismGolden, GoldenCsvRoundTrips) {
  if (PCF_UNDER_TSAN) GTEST_SKIP() << "golden artifacts excluded from the "
                                      "sanitizer matrix (runtime bound)";
  const trace golden = read_trace_csv(kGoldenCsv);
  const std::string copy = scratch_path("roundtrip.csv");
  write_trace_csv(copy, golden);
  const trace again = read_trace_csv(copy);
  std::remove(copy.c_str());
  const auto divs = compare(golden, again);
  EXPECT_TRUE(divs.empty()) << describe(divs);
}

}  // namespace
