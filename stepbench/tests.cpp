// The benchmark's own tests: the correctness claims its workloads rest on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <string>

#include "bench.hpp"

namespace {

using namespace stepbench;

/// A scratch directory unique to this test process, removed afterwards.
class scratch_dir {
 public:
  scratch_dir()
      : path_((std::filesystem::current_path() /
               ("stepbench_test_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::create_directories(path_);
  }
  ~scratch_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  scratch_dir(const scratch_dir&) = delete;
  scratch_dir& operator=(const scratch_dir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Stepbench, SerialAndTwoByTwoReachIdenticalFingerprints) {
  const scratch_dir dir;
  const std::uint64_t seed = derive_seed(42, 0);
  const auto serial = dns32_fingerprint(1, 1, seed, 4, dir.path());
  const auto split = dns32_fingerprint(2, 2, seed, 4, dir.path());
  EXPECT_EQ(serial.step, 4);
  EXPECT_EQ(serial, split) << std::hex << serial.combined() << " vs "
                           << split.combined();
}

TEST(Stepbench, EvictedSweepJobMatchesItsSoloRun) {
  const scratch_dir dir;
  std::vector<pcf::campaign::job_spec> jobs = sweep_jobs(7, 0);
  for (auto& j : jobs) j.steps = 16;  // two slices: evicted in between
  pcf::campaign::campaign_server server(sweep_campaign(dir.path()));
  std::map<std::uint64_t, const pcf::campaign::job_spec*> spec_of;
  for (const auto& j : jobs) spec_of[server.enqueue(j)] = &j;
  std::mutex mu;
  std::map<std::uint64_t, pcf::determinism::step_fingerprint> final_fp;
  server.set_step_observer([&](std::uint64_t id, pcf::core::channel_dns& dns) {
    if (dns.step_count() != spec_of.at(id)->steps) return;
    const auto fp = pcf::determinism::fingerprint(
        dns, dir.path() + "/fp" + std::to_string(id) + ".ckpt");
    std::lock_guard<std::mutex> lk(mu);
    final_fp[id] = fp;
  });
  const auto rep = server.run();
  ASSERT_GT(rep.evictions, 0u);
  const pcf::campaign::job_status* evicted = nullptr;
  for (const auto& j : rep.jobs) {
    ASSERT_EQ(j.state, pcf::campaign::job_state::done) << j.name << j.error;
    if (evicted == nullptr && j.evictions > 0) evicted = &j;
  }
  ASSERT_NE(evicted, nullptr);
  ASSERT_EQ(final_fp.count(evicted->id), 1u);
  EXPECT_EQ(final_fp.at(evicted->id),
            solo_fingerprint(*spec_of.at(evicted->id), dir.path()))
      << evicted->name << " (" << evicted->evictions << " evictions)";
}

TEST(Stepbench, UntracedRunRecordsNoSpans) {
  const scratch_dir dir;
  run_options opt;
  opt.workload = "sweep16_evict";
  opt.seed = 3;
  opt.seconds = 0.01;  // the minimum number of campaigns
  opt.trace = false;
  opt.scratch = dir.path();
  tracer tr(false);
  const outcome out = run_sweep(opt, tr);
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_GT(out.attempted, 0);
  EXPECT_EQ(out.failed, 0) << (out.failures.empty() ? "" : out.failures[0]);
  EXPECT_EQ(out.metrics.size(), 5u);  // every end-to-end metric
}

}  // namespace
