#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "io/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc.hpp"

namespace {

using pcf::io::atomic_file_writer;
using pcf::io::fault_injection_scope;
using pcf::io::fault_kind;
using pcf::io::fault_policy;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {};
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

std::string tmp_target(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(AtomicFile, CommitReplacesTargetAtomically) {
  const std::string path = tmp_target("af_commit.bin");
  spit(path, "previous checkpoint");
  {
    atomic_file_writer w(path);
    w.write("new data", 8);
    // Until commit, the target still holds the old bytes.
    EXPECT_EQ(slurp(path), "previous checkpoint");
    w.commit();
  }
  EXPECT_EQ(slurp(path), "new data");
  // The temp file is gone after commit.
  EXPECT_TRUE(slurp(atomic_file_writer::temp_path(path)).empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, AbandonedWriterLeavesTargetUntouched) {
  const std::string path = tmp_target("af_abandon.bin");
  spit(path, "previous checkpoint");
  {
    atomic_file_writer w(path);
    w.write("half-written garb", 17);
    // Destroyed without commit(): models a crash mid-save.
  }
  EXPECT_EQ(slurp(path), "previous checkpoint");
  EXPECT_TRUE(slurp(atomic_file_writer::temp_path(path)).empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, WriteAtPlacesBytesAtAbsoluteOffsets) {
  const std::string path = tmp_target("af_offsets.bin");
  {
    atomic_file_writer w(path);
    w.write_at(4, "BBBB", 4);
    w.write_at(0, "AAAA", 4);
    w.commit();
  }
  EXPECT_EQ(slurp(path), "AAAABBBB");
  std::remove(path.c_str());
}

TEST(AtomicFile, JoinerWritesIntoOwnersTempFile) {
  const std::string path = tmp_target("af_join.bin");
  {
    atomic_file_writer owner(path);
    owner.write_at(0, "XXXX----", 8);
    owner.flush();
    {
      auto joiner = atomic_file_writer::join(path);
      joiner.write_at(4, "YYYY", 4);
      joiner.close();
    }
    owner.commit();
  }
  EXPECT_EQ(slurp(path), "XXXXYYYY");
  std::remove(path.c_str());
}

TEST(AtomicFile, FailOpenFaultThrowsBeforeTouchingAnything) {
  const std::string path = tmp_target("af_failopen.bin");
  spit(path, "previous checkpoint");
  {
    fault_injection_scope fault({fault_kind::fail_open, 0, "af_failopen"});
    EXPECT_THROW(atomic_file_writer w(path), pcf::precondition_error);
  }
  EXPECT_EQ(slurp(path), "previous checkpoint");
  std::remove(path.c_str());
}

TEST(AtomicFile, ShortWriteFaultDropsBytesPastTheLimit) {
  const std::string path = tmp_target("af_short.bin");
  {
    fault_injection_scope fault({fault_kind::short_write, 5, "af_short"});
    atomic_file_writer w(path);
    w.write("0123456789", 10);
    w.commit();  // the writer itself does not notice the torn write
  }
  EXPECT_EQ(slurp(path), "01234");
  std::remove(path.c_str());
}

TEST(AtomicFile, BitFlipFaultInvertsExactlyOneBit) {
  const std::string path = tmp_target("af_flip.bin");
  {
    fault_injection_scope fault({fault_kind::bit_flip, 2, "af_flip"});
    atomic_file_writer w(path);
    w.write("abcdef", 6);
    w.commit();
  }
  EXPECT_EQ(slurp(path), std::string("ab") +
                             static_cast<char>('c' ^ 1) + "def");
  std::remove(path.c_str());
}

TEST(AtomicFile, CrashFaultAbandonsTheTempAndKeepsTheTarget) {
  const std::string path = tmp_target("af_crash.bin");
  spit(path, "previous checkpoint");
  {
    fault_injection_scope fault({fault_kind::crash_after_n, 3, "af_crash"});
    EXPECT_THROW(
        {
          atomic_file_writer w(path);
          w.write("0123456789", 10);
          w.commit();
        },
        pcf::io::injected_crash);
  }
  EXPECT_EQ(slurp(path), "previous checkpoint");
  EXPECT_TRUE(slurp(atomic_file_writer::temp_path(path)).empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, FaultPolicyOnlyFiresOnMatchingPaths) {
  const std::string path = tmp_target("af_other.bin");
  {
    fault_injection_scope fault(
        {fault_kind::crash_after_n, 0, "some_other_file"});
    atomic_file_writer w(path);
    w.write("safe", 4);
    w.commit();
  }
  EXPECT_EQ(slurp(path), "safe");
  std::remove(path.c_str());
}

/// Writer w's payload: 256 KiB of a w-specific pattern then its CRC-32.
std::string payload(int w) {
  std::string body(256 * 1024, '\0');
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<char>((i * 31 + 7 * static_cast<std::size_t>(w)) &
                                0xFF);
  const std::uint32_t crc = pcf::crc32(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return body;
}

TEST(AtomicFile, ConcurrentProcessesLeaveOneCompletePayload) {
  // Two processes save the same target over and over, in small flushed
  // pieces so their writes interleave. Each must commit every time, and
  // the target must end as one writer's whole payload with a valid CRC.
  const std::string path = tmp_target("af_concurrent.bin");
  constexpr int kWriters = 2, kRounds = 40;
  pid_t pids[kWriters];
  for (int w = 0; w < kWriters; ++w) {
    pids[w] = ::fork();
    ASSERT_GE(pids[w], 0);
    if (pids[w] == 0) {
      int status = 0;
      try {
        const std::string data = payload(w);
        for (int round = 0; round < kRounds; ++round) {
          atomic_file_writer out(path);
          for (std::size_t off = 0; off < data.size(); off += 4096) {
            out.write(data.data() + off,
                      std::min<std::size_t>(4096, data.size() - off));
            out.flush();
          }
          out.commit();
        }
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
  }
  for (pid_t pid : pids) {
    int status = -1;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a writer failed to commit";
  }
  const std::string got = slurp(path);
  ASSERT_EQ(got.size(), payload(0).size());
  std::uint32_t stored = 0;
  std::memcpy(&stored, got.data() + got.size() - sizeof(stored),
              sizeof(stored));
  EXPECT_EQ(pcf::crc32(got.data(), got.size() - sizeof(stored)), stored);
  EXPECT_TRUE(got == payload(0) || got == payload(1));
  std::remove(path.c_str());
}

TEST(AtomicFile, GenerationNamingRoundTrips) {
  EXPECT_EQ(pcf::io::generation_path("run/ckpt", 1500), "run/ckpt.g1500");
}

TEST(AtomicFile, ListAndPruneGenerations) {
  const std::string prefix = tmp_target("af_gen");
  for (long g : {400L, 100L, 300L, 200L})
    spit(pcf::io::generation_path(prefix, g) + ".0", "x");
  // An unrelated suffix must not be picked up.
  spit(pcf::io::generation_path(prefix, 999) + ".1", "x");
  auto gens = pcf::io::list_generations(prefix, ".0");
  ASSERT_EQ(gens.size(), 4u);
  EXPECT_EQ(gens.front(), 100);
  EXPECT_EQ(gens.back(), 400);

  pcf::io::prune_generations(prefix, ".0", 2);
  gens = pcf::io::list_generations(prefix, ".0");
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 300);
  EXPECT_EQ(gens[1], 400);
  // The other suffix survives pruning.
  EXPECT_EQ(slurp(pcf::io::generation_path(prefix, 999) + ".1"), "x");

  for (long g : {300L, 400L})
    std::remove((pcf::io::generation_path(prefix, g) + ".0").c_str());
  std::remove((pcf::io::generation_path(prefix, 999) + ".1").c_str());
}

}  // namespace
