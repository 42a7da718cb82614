// The transform autotuner: cache round trips, key discrimination, the
// measure-agree-persist flow, and the per-communicator strategy choice.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "pencil/autotune.hpp"
#include "pencil/pencil.hpp"
#include "util/crc.hpp"

namespace {

using pcf::pencil::apply_tuning;
using pcf::pencil::autotune_decomposition;
using pcf::pencil::autotune_transforms;
using pcf::pencil::decomp_tune_report;
using pcf::pencil::decomposition;
using pcf::pencil::exchange_strategy;
using pcf::pencil::find_tuning_entry;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::load_tuning_cache;
using pcf::pencil::make_tune_key;
using pcf::pencil::parallel_fft;
using pcf::pencil::save_tuning_cache;
using pcf::pencil::tune_choice;
using pcf::pencil::tune_entry;
using pcf::pencil::tune_key;
using pcf::pencil::tune_options;
using pcf::pencil::tune_report;
using pcf::vmpi::cart2d;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

std::string cache_path(const std::string& tag) {
  const std::string p = ::testing::TempDir() + "/pcf_tune_" + tag + ".bin";
  std::remove(p.c_str());
  return p;
}

tune_key key_for(std::uint32_t nx) {
  tune_key k;
  k.nx = nx;
  k.ny = 17;
  k.nz = 8;
  k.pa = 2;
  k.pb = 2;
  k.max_batch = 5;
  k.flags = 3;
  return k;
}

TEST(TuningCache, MissingFileIsASilentMiss) {
  std::vector<std::string> warnings;
  const auto entries =
      load_tuning_cache(cache_path("missing"), &warnings);
  EXPECT_TRUE(entries.empty());
  EXPECT_TRUE(warnings.empty());
}

TEST(TuningCache, RoundTripsEntries) {
  const std::string path = cache_path("roundtrip");
  std::vector<tune_entry> in;
  in.push_back({key_for(16),
                {exchange_strategy::pairwise, exchange_strategy::alltoall, 5}});
  in.push_back({key_for(32),
                {exchange_strategy::alltoall, exchange_strategy::pairwise, 3}});
  save_tuning_cache(path, in);

  std::vector<std::string> warnings;
  const auto out = load_tuning_cache(path, &warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, in[0].key);
  EXPECT_EQ(out[0].choice, in[0].choice);
  EXPECT_EQ(out[1].key, in[1].key);
  EXPECT_EQ(out[1].choice, in[1].choice);
  std::remove(path.c_str());
}

TEST(TuningCache, LookupDiscriminatesEveryKeyField) {
  std::vector<tune_entry> entries = {{key_for(16), tune_choice{}}};
  EXPECT_NE(find_tuning_entry(entries, key_for(16)), nullptr);
  EXPECT_EQ(find_tuning_entry(entries, key_for(32)), nullptr);
  tune_key k = key_for(16);
  k.pb = 4;
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
  k = key_for(16);
  k.flags = 1;  // different kernel flags = different measurement
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
  k = key_for(16);
  k.max_batch = 3;
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
}

TEST(TuningCache, ApplyTuningMapsEveryChoiceField) {
  kernel_config base;
  base.max_batch = 5;
  const kernel_config k = apply_tuning(
      base, {exchange_strategy::pairwise, exchange_strategy::alltoall, 3});
  EXPECT_EQ(k.strategy_a, exchange_strategy::pairwise);
  EXPECT_EQ(k.strategy_b, exchange_strategy::alltoall);
  EXPECT_EQ(k.max_batch, 3);
}

TEST(Autotune, MeasuresAgreesAndPersists) {
  const std::string path = cache_path("flow");
  run_world(4, [&](communicator& world) {
    cart2d cart(world, 2, 2);
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 5;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;

    const tune_report cold = autotune_transforms(g, world, cart, base, opt);
    EXPECT_FALSE(cold.from_cache);
    // F in {1, 3, 5}.
    EXPECT_EQ(cold.measured.size(), 3u);
    EXPECT_GT(cold.per_field_s, 0.0);
    // The argmin includes the per-field baseline, so the winner is never
    // slower than per-field *as measured*.
    EXPECT_LE(cold.chosen_s, cold.per_field_s);
    EXPECT_GE(cold.choice.batch, 1);
    EXPECT_LE(cold.choice.batch, 5);
    if (world.rank() == 0) {
      EXPECT_TRUE(cold.stored);
    }

    // Every rank agreed on the same choice, strategies included (each
    // CommA/CommB group sees only its own exchanges, so this holds only
    // because the timings are agreed over the whole world).
    double mine[3] = {static_cast<double>(cold.choice.batch),
                      static_cast<double>(cold.choice.strat_a),
                      static_cast<double>(cold.choice.strat_b)};
    double mx[3], mn[3];
    world.allreduce_max(mine, mx, 3);
    world.allreduce_min(mine, mn, 3);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(mx[i], mn[i]) << "field " << i;

    // Second call hits the cache and returns the identical choice without
    // measuring.
    const tune_report warm = autotune_transforms(g, world, cart, base, opt);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.measured.empty());
    EXPECT_EQ(warm.choice, cold.choice);

    // force_retune ignores the hit but still lands on a valid choice.
    tune_options forced = opt;
    forced.force_retune = true;
    const tune_report again =
        autotune_transforms(g, world, cart, base, forced);
    EXPECT_FALSE(again.from_cache);
    EXPECT_EQ(again.measured.size(), 3u);
  });
  std::remove(path.c_str());
}

TEST(Autotune, EmptyCachePathMeasuresAndPersistsNothing) {
  run_world(4, [](communicator& world) {
    cart2d cart(world, 2, 2);
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;  // no cache_path
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, cart, base, opt);
    EXPECT_FALSE(rep.from_cache);
    EXPECT_FALSE(rep.stored);
    // max_batch = 3 prunes the F = 5 candidate.
    EXPECT_EQ(rep.measured.size(), 2u);
    EXPECT_LE(rep.choice.batch, 3);
  });
}

TEST(Autotune, SizeOneCommunicatorGetsAlltoallAndTheTunedKernelRuns) {
  // 1 x 4 slab cart: CommA has one rank, so its exchange is a local copy
  // and the tuner records alltoall for it without a probe.
  run_world(4, [](communicator& world) {
    cart2d cart(world, 1, 4);
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, cart, base, opt);
    EXPECT_EQ(rep.choice.strat_a, exchange_strategy::alltoall);
    EXPECT_EQ(rep.measured.size(), 2u);

    // The tuned kernel runs and matches the untuned one bit for bit.
    parallel_fft tuned(g, cart, apply_tuning(base, rep.choice));
    parallel_fft plain(g, cart, base);
    const auto& d = tuned.dec();
    std::vector<pcf::pencil::cplx> spec(d.y_pencil_elems());
    for (std::size_t i = 0; i < spec.size(); ++i)
      spec[i] = {0.25 * static_cast<double>(i % 7), 0.0};
    std::vector<double> got(d.x_pencil_real_elems());
    std::vector<double> want(got.size());
    tuned.to_physical(spec.data(), got.data());
    plain.to_physical(spec.data(), want.data());
    EXPECT_EQ(got, want);
  });
}

// Transpose stages one timed substage (3 fields down, 5 up, in chunks of
// F; warm-up + reps) runs on each communicator.
std::uint64_t substage_stages(int F, int reps) {
  const auto chunks = [F](int n) { return (n + F - 1) / F; };
  return static_cast<std::uint64_t>((chunks(3) + chunks(5)) * (1 + reps));
}

TEST(Autotune, WidestBatchKernelIsTimedOnce) {
  // On 2 x 2 the tuner times three kernels at the widest F (the alltoall
  // baseline and one pairwise trial per communicator), then sweeps only
  // the narrower F: the sweep reuses the probe's time for the widest F.
  // Each timed kernel's stages land on each communicator as one alltoallv
  // (alltoall) or one exchange per partner (pairwise, p - 1 = 1 here),
  // whichever strategies win.
  for (const int max_batch : {1, 5}) {
    run_world(4, [&](communicator& world) {
      cart2d cart(world, 2, 2);
      const grid g{8, 9, 8};
      kernel_config base;
      base.max_batch = max_batch;
      tune_options opt;
      opt.reps = 1;
      const auto a0 = cart.comm_a().stats();
      const auto b0 = cart.comm_b().stats();
      const tune_report rep = autotune_transforms(g, world, cart, base, opt);
      const auto a1 = cart.comm_a().stats();
      const auto b1 = cart.comm_b().stats();

      std::uint64_t want = 3 * substage_stages(max_batch, opt.reps);
      for (const int F : {1, 3})
        if (F < max_batch) want += substage_stages(F, opt.reps);
      EXPECT_EQ(a1.alltoall_calls - a0.alltoall_calls + a1.exchange_calls -
                    a0.exchange_calls,
                want)
          << "max_batch " << max_batch;
      EXPECT_EQ(b1.alltoall_calls - b0.alltoall_calls + b1.exchange_calls -
                    b0.exchange_calls,
                want)
          << "max_batch " << max_batch;
      EXPECT_EQ(rep.measured.size(), max_batch == 1 ? 1u : 3u);
      EXPECT_EQ(rep.measured.back().batch, max_batch);
    });
  }
}

TEST(TuningCache, EntryWithReservedWordNotOneIsReMeasured) {
  // A v2 entry whose reserved word 14 (once the pipeline depth) holds 2
  // passes its CRC but is implausible: the tuner skips it with a warning,
  // measures, and stores the entry back with the word at 1.
  const std::string path = cache_path("reserved_word");
  const grid g{8, 9, 8};
  kernel_config base;
  base.max_batch = 5;
  const tune_key k = make_tune_key(g, base, 1, 1);
  constexpr std::size_t kWords = 18;
  std::uint32_t w[kWords + 1] = {k.nx, k.ny, k.nz, k.pa, k.pb,
                                 k.fft_threads, k.reorder_threads,
                                 k.max_batch, k.flags, k.decomp_kind,
                                 k.replica_c,
                                 0, 0,  // alltoall, alltoall
                                 5,     // batch
                                 2,     // reserved word: not 1
                                 0, 0, 0};
  w[kWords] = pcf::crc32(w, kWords * sizeof(std::uint32_t));
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t hdr[3] = {0x50465443u, 2u, 1u};
    out.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
    out.write(reinterpret_cast<const char*>(w), sizeof(w));
  }
  std::vector<std::string> warnings;
  EXPECT_TRUE(load_tuning_cache(path, &warnings).empty());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("implausible"), std::string::npos);

  run_world(1, [&](communicator& world) {
    cart2d cart(world, 1, 1);
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, cart, base, opt);
    EXPECT_FALSE(rep.from_cache);
    EXPECT_EQ(rep.measured.size(), 3u);
    EXPECT_TRUE(rep.stored);
  });

  std::ifstream in(path, std::ios::binary);
  std::uint32_t raw[3 + kWords + 1] = {};
  in.read(reinterpret_cast<char*>(raw), sizeof(raw));
  ASSERT_TRUE(in.good());
  EXPECT_EQ(raw[2], 1u);           // the bad entry was replaced, not kept
  EXPECT_EQ(raw[3 + 14], 1u);      // reserved word written as 1
  EXPECT_EQ(in.peek(), EOF);
  warnings.clear();
  EXPECT_NE(find_tuning_entry(load_tuning_cache(path, &warnings), k),
            nullptr);
  EXPECT_TRUE(warnings.empty());
  std::remove(path.c_str());
}

TEST(TuningCache, RoundTripsDecompositionEntries) {
  // v2 payload: decomposition entries carry the layout kind and the
  // resolved process grid alongside the transform fields.
  const std::string path = cache_path("decomp_roundtrip");
  tune_entry e;
  e.key = key_for(16);
  e.key.decomp_kind = static_cast<std::uint32_t>(decomposition::tuned);
  e.key.replica_c = 2;
  e.choice.decomp = decomposition::hybrid_25d;
  e.choice.pa = 2;
  e.choice.pb = 2;
  save_tuning_cache(path, {e});

  std::vector<std::string> warnings;
  const auto out = load_tuning_cache(path, &warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, e.key);
  EXPECT_EQ(out[0].choice.decomp, decomposition::hybrid_25d);
  EXPECT_EQ(out[0].choice.pa, 2);
  EXPECT_EQ(out[0].choice.pb, 2);

  // The kind is part of the key: a transform entry and a decomposition
  // entry at the same grid never collide.
  EXPECT_EQ(find_tuning_entry(out, key_for(16)), nullptr);
  EXPECT_NE(find_tuning_entry(out, e.key), nullptr);
  std::remove(path.c_str());
}

TEST(AutotuneDecomp, ExplicitLayoutIsPlannedNotMeasured) {
  run_world(4, [](communicator& world) {
    const grid g{8, 9, 8};
    tune_options opt;
    opt.reps = 1;
    const decomp_tune_report rep = autotune_decomposition(
        g, world, decomposition::slab, 0, 0, 0, kernel_config{}, opt);
    EXPECT_EQ(rep.plan.kind, decomposition::slab);
    EXPECT_EQ(rep.plan.pa, 1);
    EXPECT_EQ(rep.plan.pb, 4);
    EXPECT_TRUE(rep.measured.empty());
    EXPECT_FALSE(rep.from_cache);
    EXPECT_FALSE(rep.stored);
  });
}

TEST(AutotuneDecomp, TunedMeasuresPersistsAndReplays) {
  const std::string path = cache_path("decomp_flow");
  run_world(4, [&](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 5;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;

    const decomp_tune_report cold = autotune_decomposition(
        g, world, decomposition::tuned, 2, 2, 0, base, opt);
    EXPECT_FALSE(cold.from_cache);
    // Candidates at 4 ranks on this grid: pencil 2x2, slab 1x4, hybrid
    // 4x1 (the minimal hybrid 2x2 duplicates the configured pencil grid).
    ASSERT_GE(cold.measured.size(), 2u);
    EXPECT_EQ(cold.measured[0].plan.kind, decomposition::pencil2d);
    EXPECT_EQ(cold.plan.pa * cold.plan.pb, 4);
    // Strict-< argmin with pencil first: the chosen layout is never
    // slower than the measured pencil baseline.
    double chosen_s = 0.0, pencil_s = 0.0;
    for (const auto& m : cold.measured) {
      if (m.plan == cold.plan) chosen_s = m.seconds;
      if (m.plan.kind == decomposition::pencil2d) pencil_s = m.seconds;
    }
    EXPECT_GT(pencil_s, 0.0);
    EXPECT_LE(chosen_s, pencil_s);
    if (world.rank() == 0) {
      EXPECT_TRUE(cold.stored);
    }

    // Every rank agreed on the same resolved grid.
    double mine[2] = {static_cast<double>(cold.plan.pa),
                      static_cast<double>(cold.plan.pb)};
    double mx[2], mn[2];
    world.allreduce_max(mine, mx, 2);
    world.allreduce_min(mine, mn, 2);
    EXPECT_EQ(mx[0], mn[0]);
    EXPECT_EQ(mx[1], mn[1]);

    // Warm call replays the persisted winner without re-measuring.
    const decomp_tune_report warm = autotune_decomposition(
        g, world, decomposition::tuned, 2, 2, 0, base, opt);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.measured.empty());
    EXPECT_EQ(warm.plan, cold.plan);
  });
  std::remove(path.c_str());
}

TEST(Autotune, TunedConfigConstructsWithoutRemeasuring) {
  const std::string path = cache_path("construct");
  run_world(4, [&](communicator& world) {
    cart2d cart(world, 2, 2);
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 5;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, cart, base, opt);
    const kernel_config tuned = apply_tuning(base, rep.choice);
    parallel_fft pf(g, cart, tuned);
    EXPECT_EQ(pf.config().strategy_a, rep.choice.strat_a);
    EXPECT_EQ(pf.config().strategy_b, rep.choice.strat_b);
    EXPECT_EQ(pf.config().max_batch, rep.choice.batch);
  });
  std::remove(path.c_str());
}

}  // namespace
