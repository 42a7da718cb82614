// Whole-file byte pins of the two checkpoint layouts.
//
// Each pin is the CRC-32 of a complete checkpoint file written after two
// quickstart steps, for the default channel and two scenario variants
// (passive scalars; constant flow rate with a scalar, which adds the
// "frc" section), plus the combined determinism fingerprint of the saved
// state. The values were recorded from the hand-written per-layout
// writers and the scratch-file fingerprint before the section-list codec
// replaced them; any change to a header byte, the section order, a
// payload or the fingerprint's section fold moves them.
//
//   per-rank  — the 1 x 1 file, and a fold of the four rank files of a
//               2 x 2 split (rank order), which covers ranks that do not
//               own the mean mode;
//   parallel  — one file, identical for the 1 x 1 and 2 x 2 splits
//               because the layout is decomposition-independent.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "determinism_test_util.hpp"
#include "util/crc.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::forcing_mode;
using pcf::core::scalar_spec;
using pcf::determinism::file_crc32;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kSteps = 2;

struct pins {
  std::uint32_t per_rank = 0;  // per-rank file (1 x 1) or fold (2 x 2)
  std::uint32_t parallel = 0;  // parallel file
  std::uint32_t state = 0;     // combined fingerprint of the saved state
};

/// Save both layouts after kSteps steps on a pa x pb split.
pins save_both(channel_config cfg, int pa, int pb) {
  cfg.pa = pa;
  cfg.pb = pb;
  const int nranks = pa * pb;
  const std::string base =
      scratch_path(std::to_string(pa) + "x" + std::to_string(pb));
  pins got;
  run_world(nranks, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < kSteps; ++s) dns.step();
    const std::uint32_t state = pcf::determinism::fingerprint(dns).combined();
    if (world.rank() == 0) got.state = state;
    dns.save_checkpoint(base + ".rank." + std::to_string(world.rank()));
    dns.save_checkpoint_parallel(base + ".par");
  });
  if (nranks == 1) {
    got.per_rank = file_crc32(base + ".rank.0");
  } else {
    std::uint32_t c = pcf::crc32_init();
    for (int r = 0; r < nranks; ++r) {
      const std::uint32_t f = file_crc32(base + ".rank." + std::to_string(r));
      c = pcf::crc32_update(c, &f, sizeof(f));
    }
    got.per_rank = pcf::crc32_final(c);
  }
  got.parallel = file_crc32(base + ".par");
  for (int r = 0; r < nranks; ++r)
    std::remove((base + ".rank." + std::to_string(r)).c_str());
  std::remove((base + ".par").c_str());
  return got;
}

/// `serial` pins the 1 x 1 split; `split` the 2 x 2 one, where only the
/// per-rank value differs (the parallel file and the state do not depend
/// on the decomposition).
void expect_pins(const channel_config& cfg, const pins& serial,
                 std::uint32_t per_rank_2x2) {
  const pins split = {per_rank_2x2, serial.parallel, serial.state};
  for (const auto& [got, want, name] :
       {std::tuple{save_both(cfg, 1, 1), serial, "1x1"},
        std::tuple{save_both(cfg, 2, 2), split, "2x2"}}) {
    EXPECT_EQ(got.per_rank, want.per_rank)
        << name << " per-rank: 0x" << std::hex << got.per_rank;
    EXPECT_EQ(got.parallel, want.parallel)
        << name << " parallel: 0x" << std::hex << got.parallel;
    EXPECT_EQ(got.state, want.state)
        << name << " fingerprint: 0x" << std::hex << got.state;
  }
}

TEST(CheckpointPins, DefaultChannel) {
  expect_pins(quickstart_config(), {0xfff6eb14u, 0x563ed424u, 0x211c217eu},
              0x43e35552u);
}

TEST(CheckpointPins, TwoPassiveScalars) {
  channel_config cfg = quickstart_config();
  cfg.scenario.scalars.push_back(scalar_spec{0.71, 0.0, 1.0});
  cfg.scenario.scalars.push_back(scalar_spec{7.0, -1.0, 1.0});
  expect_pins(cfg, {0x59e7dd7fu, 0xfaa27d5fu, 0x332ba2fbu}, 0x44ee9ff8u);
}

TEST(CheckpointPins, FlowRateWithOneScalar) {
  channel_config cfg = quickstart_config();
  cfg.scenario.forcing = forcing_mode::flow_rate;
  cfg.scenario.scalars.push_back(scalar_spec{0.71, 0.0, 1.0});
  expect_pins(cfg, {0xcbd6707du, 0x16b42312u, 0x5e4dda27u}, 0x8a56b6f9u);
}

}  // namespace
