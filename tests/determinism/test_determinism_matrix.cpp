// Cross-configuration bit-identity: every data-movement axis — advance /
// FFT / reorder thread counts, transform batch width F and the
// virtual-rank decomposition — must produce ONE identical per-step
// CRC trace at the quickstart configuration (DESIGN.md, "Determinism
// contract"). A divergence fails with the step and state field where the
// first differing bit appeared.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "determinism_test_util.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

// Shortened trace under ThreadSanitizer (~10x step cost); the full-length
// trace is covered by the regular run of the same tests.
constexpr int kSteps = PCF_UNDER_TSAN ? 6 : 12;

/// Run the quickstart campaign under `cfg` on cfg.pa * cfg.pb virtual
/// ranks and return the per-step fingerprint trace (rank 0's copy; all
/// ranks compute the identical trace).
trace run_config(const channel_config& cfg, int nsteps = kSteps) {
  trace t;
  run_world(cfg.pa * cfg.pb, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = record_trace(dns, nsteps);
    if (world.rank() == 0) t = local;
  });
  return t;
}

trace& baseline() {
  static trace t = run_config(quickstart_config());
  return t;
}

void expect_matches_baseline(const channel_config& cfg,
                             const std::string& tag) {
  const trace t = run_config(cfg);
  const auto divs = compare(baseline(), t);
  EXPECT_TRUE(divs.empty()) << "config '" << tag
                            << "' diverged from the baseline trace:\n"
                            << describe(divs);
}

// The headline matrix: full cross of thread count {1, 2, 4} x batch width
// F {1, 3, 5} on one rank. 9 runs, one trace. (The test keeps its name
// from when pipeline depth was a third axis.)
TEST(DeterminismMatrix, ThreadsDepthBatchCrossProduceOneTrace) {
  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 3, 5}) {
      channel_config cfg = quickstart_config();
      cfg.advance_threads = threads;
      cfg.fft_threads = threads;
      cfg.reorder_threads = threads;
      cfg.max_batch = batch;
      const std::string tag =
          "t" + std::to_string(threads) + "_f" + std::to_string(batch);
      expect_matches_baseline(cfg, tag);
      if (::testing::Test::HasFailure()) return;  // first divergence only
    }
  }
}

// Virtual-rank decompositions: the fingerprint (global-order section
// CRCs) is decomposition-independent, so every pa x pb split must reproduce the
// single-rank trace.
TEST(DeterminismMatrix, RankSplitsProduceOneTrace) {
  struct split {
    int pa, pb;
  };
  for (const split s : {split{2, 1}, split{1, 2}, split{2, 2}}) {
    channel_config cfg = quickstart_config();
    cfg.pa = s.pa;
    cfg.pb = s.pb;
    const std::string tag =
        "p" + std::to_string(s.pa) + "x" + std::to_string(s.pb);
    expect_matches_baseline(cfg, tag);
    if (::testing::Test::HasFailure()) return;
  }
}

// F = 2 makes the *trailing* chunk of the five-field batch a single field
// (5 = 2 + 2 + 1), a chunking no F in {1, 3, 5} produces: the short chunk
// must stay bit-identical.
TEST(DeterminismMatrix, TrailingShortChunkStaysBitIdentical) {
  channel_config cfg = quickstart_config();
  cfg.max_batch = 2;
  expect_matches_baseline(cfg, "f2");
}

}  // namespace
