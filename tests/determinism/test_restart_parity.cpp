// Restart-continuation parity: a run interrupted at step k, destroyed,
// restored from a checkpoint and continued must reproduce the
// uninterrupted run's per-step state CRCs exactly, for every checkpoint
// format and k in {1, mid, N-1}. RK3 carries no nonlinear history across
// step boundaries (zeta_1 = 0), so a checkpoint written at a step
// boundary captures the complete dynamical state — any divergence is a
// bug, and the harness names the step and field where it appears.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "determinism_test_util.hpp"
#include "core/runner.hpp"
#include "io/atomic_file.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::restore_newest_generation;
using pcf::core::resume_or_initialize;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::divergence;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kSteps = PCF_UNDER_TSAN ? 6 : 12;

enum class fmt { per_rank, parallel };

const char* fmt_name(fmt f) {
  return f == fmt::per_rank ? "per_rank" : "parallel";
}

std::string rank_suffix(const communicator& world) {
  return "." + std::to_string(world.rank());
}

/// The uninterrupted reference trace (nranks = 1 unless stated; every
/// scenario below compares its continuation against rows k..N of this).
trace& baseline() {
  static trace t = [] {
    trace b;
    run_world(1, [&](communicator& world) {
      channel_dns dns(quickstart_config(), world);
      dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
      b = record_trace(dns, kSteps);
    });
    return b;
  }();
  return t;
}

trace tail_from(const trace& full, int k) {
  trace t;
  t.steps.assign(full.steps.begin() + k, full.steps.end());
  return t;
}

/// Interrupt at step k under `f`, destroy the simulation, restore a fresh
/// instance from the file, continue to step N, and return the restored
/// run's per-step trace (rows k..N).
trace interrupted_run(fmt f, int k, int nranks) {
  const std::string base = scratch_path(std::string(fmt_name(f)) + "_k" +
                                        std::to_string(k));
  const std::string ckpt = base + ".ckpt";
  const channel_config cfg = quickstart_config();

  run_world(nranks, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    if (f == fmt::per_rank)
      // Through the runner's generation rotation, as a campaign would.
      dns.save_checkpoint(pcf::io::generation_path(ckpt, dns.step_count()) +
                          rank_suffix(world));
    else
      dns.save_checkpoint_parallel(ckpt);
  });  // simulation destroyed here

  trace cont;
  run_world(nranks, [&](communicator& world) {
    channel_dns dns(cfg, world);
    if (f == fmt::per_rank)
      EXPECT_EQ(resume_or_initialize(dns, world, ckpt,
                                     kQuickstartPerturbation,
                                     kQuickstartSeed),
                k);
    else
      dns.load_checkpoint_parallel(ckpt);
    EXPECT_EQ(dns.step_count(), k);
    const trace local = record_trace(dns, kSteps - k);
    if (world.rank() == 0) cont = local;
  });

  std::remove(ckpt.c_str());
  for (int r = 0; r < nranks; ++r)
    std::remove(
        (pcf::io::generation_path(ckpt, k) + "." + std::to_string(r)).c_str());
  return cont;
}

class RestartParity : public ::testing::TestWithParam<fmt> {};

// k in {1, mid, N-1} for each format: the restored-and-continued run's
// trace must equal the uninterrupted run's rows k..N bit for bit.
TEST_P(RestartParity, ContinuationMatchesUninterruptedRun) {
  const fmt f = GetParam();
  for (int k : {1, kSteps / 2, kSteps - 1}) {
    const trace cont = interrupted_run(f, k, 1);
    const auto divs = compare(tail_from(baseline(), k), cont);
    EXPECT_TRUE(divs.empty())
        << "format " << fmt_name(f) << ", checkpoint at step " << k
        << ": restored run diverged:\n"
        << describe(divs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, RestartParity,
                         ::testing::Values(fmt::per_rank, fmt::parallel),
                         [](const auto& info) {
                           return std::string(fmt_name(info.param));
                         });

// The decomposition-changing restart: interrupt on one rank, continue on
// 2 x 2 (the parallel layout is decomposition-independent) — same trace.
TEST(RestartParityMultiRank, ParallelRestartOntoDifferentGridMatches) {
  const int k = kSteps / 2;
  const std::string base = scratch_path("regrid");
  const std::string ckpt = base + ".ckpt";

  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint_parallel(ckpt);
  });

  trace cont;
  channel_config cfg = quickstart_config();
  cfg.pa = 2;
  cfg.pb = 2;
  run_world(4, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.load_checkpoint_parallel(ckpt);
    const trace local = record_trace(dns, kSteps - k);
    if (world.rank() == 0) cont = local;
  });
  std::remove(ckpt.c_str());

  const auto divs = compare(tail_from(baseline(), k), cont);
  EXPECT_TRUE(divs.empty()) << "1-rank -> 2x2 parallel restart diverged:\n"
                            << describe(divs);
}

// Per-rank restart parity on a 2-rank split (resume_or_initialize walks
// the generation list collectively).
TEST(RestartParityMultiRank, PerRankRestartOnTwoRanksMatches) {
  const int k = kSteps / 2;
  channel_config cfg = quickstart_config();
  cfg.pa = 2;

  const std::string base = scratch_path("tworank");
  const std::string ckpt = base + ".ckpt";

  trace uninterrupted;
  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = record_trace(dns, kSteps);
    if (world.rank() == 0) uninterrupted = local;
  });
  {
    const auto divs = compare(baseline(), uninterrupted);
    ASSERT_TRUE(divs.empty())
        << "2-rank uninterrupted run diverged from 1-rank baseline:\n"
        << describe(divs);
  }

  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(pcf::io::generation_path(ckpt, dns.step_count()) +
                        rank_suffix(world));
  });

  trace cont;
  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    const long g = resume_or_initialize(dns, world, ckpt,
                                        kQuickstartPerturbation,
                                        kQuickstartSeed);
    EXPECT_EQ(g, k);
    const trace local = record_trace(dns, kSteps - k);
    if (world.rank() == 0) cont = local;
  });
  for (int r = 0; r < 2; ++r)
    std::remove(
        (pcf::io::generation_path(ckpt, k) + "." + std::to_string(r)).c_str());

  const auto divs = compare(tail_from(uninterrupted, k), cont);
  EXPECT_TRUE(divs.empty()) << "2-rank per-rank restart diverged:\n"
                            << describe(divs);
}

// The blow-up recovery path (runner's reduced-dt retry): blow the run up
// with an absurd dt, restore the newest good generation IN PLACE — the
// solver arenas still hold bands factored for the blow-up dt — reduce dt,
// and continue. The continuation must be bit-identical to a fresh
// instance restored from the same generation with the same reduced dt:
// stale factored bands surviving the restore would diverge at step one.
TEST(RestartRecovery, InPlaceRestoreWithReducedDtMatchesFreshInstance) {
  const int k = 3, m = PCF_UNDER_TSAN ? 3 : 6;
  const double reduced_dt = 5e-5;
  const std::string base = scratch_path("blowup");
  const std::string ckpt = base + ".ckpt";

  trace recovered;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(pcf::io::generation_path(ckpt, dns.step_count()) +
                        rank_suffix(world));
    // Provoke the blow-up: a dt four orders of magnitude past stability.
    dns.set_dt(1.0);
    for (int s = 0; s < 8 && std::isfinite(dns.kinetic_energy()); ++s)
      dns.step();
    ASSERT_FALSE(std::isfinite(dns.kinetic_energy()))
        << "blow-up provocation failed; the recovery path was not exercised";
    const long g = restore_newest_generation(dns, world, ckpt);
    ASSERT_EQ(g, k);
    dns.set_dt(reduced_dt);
    recovered = record_trace(dns, m);
  });

  trace fresh;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.load_checkpoint(pcf::io::generation_path(ckpt, k) + ".0");
    dns.set_dt(reduced_dt);
    fresh = record_trace(dns, m);
  });
  std::remove((pcf::io::generation_path(ckpt, k) + ".0").c_str());

  const auto divs = compare(fresh, recovered);
  EXPECT_TRUE(divs.empty())
      << "in-place blow-up recovery diverged from a fresh restore:\n"
      << describe(divs);
}

// Same-instance reload without any dt change: load_checkpoint must reset
// the run to the saved state exactly even when the instance has already
// stepped past it (the arenas and histories carry no pre-restore state).
TEST(RestartRecovery, InPlaceReloadRewindsExactly) {
  const int k = 2, m = PCF_UNDER_TSAN ? 3 : 5;
  const std::string base = scratch_path("rewind");
  const std::string ckpt = base + ".ckpt.0";

  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < k; ++s) dns.step();
    dns.save_checkpoint(ckpt);
    const trace onward = record_trace(dns, m);
    dns.load_checkpoint(ckpt);
    EXPECT_EQ(dns.step_count(), k);
    const trace replay = record_trace(dns, m);
    const auto divs = compare(onward, replay);
    EXPECT_TRUE(divs.empty())
        << "in-place rewind replay diverged:\n"
        << describe(divs);
  });
  std::remove(ckpt.c_str());
}

}  // namespace
