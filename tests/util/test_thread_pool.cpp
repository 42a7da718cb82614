#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace {

using pcf::thread_pool;

TEST(ThreadPool, SingleThreadRunsWholeRange) {
  thread_pool pool(1);
  std::vector<int> hit(100, 0);
  pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i]++;
  });
  for (int h : hit) EXPECT_EQ(h, 1);
}

class ThreadPoolP : public ::testing::TestWithParam<int> {};
class ThreadPoolExceptionP : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolP, EveryIndexVisitedExactlyOnce) {
  thread_pool pool(GetParam());
  std::vector<std::atomic<int>> hit(1013);
  pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  for (auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST_P(ThreadPoolP, RangeSmallerThanThreadCount) {
  thread_pool pool(GetParam());
  std::vector<std::atomic<int>> hit(2);
  pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
  });
  EXPECT_EQ(hit[0].load(), 1);
  EXPECT_EQ(hit[1].load(), 1);
}

TEST_P(ThreadPoolP, RepeatedRunsAreIndependent) {
  thread_pool pool(GetParam());
  std::atomic<long> sum{0};
  for (int rep = 0; rep < 20; ++rep) {
    pool.run(64, [&](std::size_t b, std::size_t e) {
      long local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 20L * (63 * 64 / 2));
}

TEST_P(ThreadPoolP, RunPerThreadTouchesEveryThreadOnce) {
  const int n = GetParam();
  thread_pool pool(n);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.run_per_thread([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, ThreadPoolP, ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadPool, ZeroLengthRunIsNoop) {
  thread_pool pool(4);
  bool called = false;
  pool.run(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(thread_pool pool(0), pcf::precondition_error);
}

// An exception escaping a worker thread would std::terminate the process;
// the pool must capture it and rethrow on the calling thread instead.
TEST_P(ThreadPoolExceptionP, WorkerExceptionRethrownOnCaller) {
  thread_pool pool(GetParam());
  const auto n = static_cast<std::size_t>(4 * pool.num_threads());
  EXPECT_THROW(
      pool.run(n,
               [&](std::size_t, std::size_t e) {
                 // The chunk holding the last index throws — for a 1-thread
                 // pool that is the caller's (only) chunk, otherwise the
                 // last worker's.
                 if (e == n) throw std::runtime_error("chunk failed");
               }),
      std::runtime_error);
}

TEST_P(ThreadPoolExceptionP, PoolStaysUsableAfterAChunkThrows) {
  thread_pool pool(GetParam());
  const auto n = static_cast<std::size_t>(8 * pool.num_threads());
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.run(n,
                          [&](std::size_t, std::size_t) {
                            throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The next dispatch must run normally on every thread.
    std::vector<std::atomic<int>> hit(n);
    pool.run(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
    });
    for (auto& h : hit) EXPECT_EQ(h.load(), 1);
  }
}

TEST_P(ThreadPoolExceptionP, CallerChunkExceptionAlsoPropagates) {
  thread_pool pool(GetParam());
  // Thread 0 is the calling thread and owns the first chunk.
  EXPECT_THROW(
      pool.run(static_cast<std::size_t>(pool.num_threads()),
               [&](std::size_t b, std::size_t) {
                 if (b == 0) throw std::logic_error("caller chunk");
               }),
      std::logic_error);
}

TEST_P(ThreadPoolExceptionP, PerThreadExceptionRethrown) {
  thread_pool pool(GetParam());
  EXPECT_THROW(pool.run_per_thread([&](int tid) {
    if (tid == pool.num_threads() - 1)
      throw std::runtime_error("per-thread failure");
  }),
               std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsWhenSeveralChunksThrow) {
  thread_pool pool(4);
  try {
    pool.run(8, [&](std::size_t b, std::size_t) {
      throw std::runtime_error("chunk " + std::to_string(b));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("chunk ", 0), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ThreadPoolExceptionP,
                         ::testing::Values(1, 2, 4));

// --- submit-without-join (the campaign scheduler's task queue) ---

TEST(ThreadPoolSubmit, TasksRunFifoWithOneWorker) {
  thread_pool pool(2);  // caller + exactly one worker => FIFO completion
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_submitted();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolSubmit, WaitOnTicketSeesThatTasksEffect) {
  thread_pool pool(2);
  std::atomic<int> stage{0};
  const auto t1 = pool.submit([&] { stage.store(1); });
  const auto t2 = pool.submit([&] { stage.store(2); });
  pool.wait_submitted(t1);
  EXPECT_GE(stage.load(), 1);
  pool.wait_submitted(t2);
  EXPECT_EQ(stage.load(), 2);
}

TEST(ThreadPoolSubmit, SingleThreadPoolRunsInline) {
  thread_pool pool(1);
  int x = 0;
  const auto t = pool.submit([&] { x = 42; });
  EXPECT_EQ(x, 42);  // executed before submit returned
  pool.wait_submitted(t);
  EXPECT_EQ(x, 42);
}

TEST(ThreadPoolSubmit, CallerComputesWhileTaskRuns) {
  thread_pool pool(2);
  std::atomic<bool> task_done{false};
  const auto t = pool.submit([&] { task_done.store(true); });
  long sum = 0;  // caller-side "compute" overlapping the task
  for (long i = 0; i < 1000; ++i) sum += i;
  pool.wait_submitted(t);
  EXPECT_TRUE(task_done.load());
  EXPECT_EQ(sum, 999L * 1000 / 2);
}

TEST(ThreadPoolSubmit, ExceptionRethrownAtWaitAndPoolStaysUsable) {
  for (int threads : {1, 2}) {
    thread_pool pool(threads);
    const auto t =
        pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait_submitted(t), std::runtime_error);
    std::atomic<int> ran{0};
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait_submitted();
    EXPECT_EQ(ran.load(), 1);
  }
}

TEST(ThreadPoolSubmit, MixesWithForkJoinDispatch) {
  thread_pool pool(4);
  std::atomic<int> async_hits{0};
  for (int round = 0; round < 5; ++round) {
    const auto t = pool.submit([&] { async_hits.fetch_add(1); });
    std::vector<std::atomic<int>> hit(64);
    pool.run(hit.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
    });
    for (auto& h : hit) EXPECT_EQ(h.load(), 1);
    pool.wait_submitted(t);
  }
  EXPECT_EQ(async_hits.load(), 5);
}

TEST(ThreadPoolSubmit, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    thread_pool pool(2);
    for (int i = 0; i < 8; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    // No wait: destruction must still execute everything queued.
  }
  EXPECT_EQ(ran.load(), 8);
}

// --- priority / tenant-fairness / cancellation (the campaign work queue) ---

/// Holds the single worker of a pool(2) inside a task until release(), so
/// everything submitted meanwhile queues up and the scheduling decision is
/// observable in the execution order.
class worker_gate {
 public:
  explicit worker_gate(thread_pool& pool) {
    pool.submit([this] {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return open_; });
    });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPoolSubmit, HigherPriorityTasksStartFirst) {
  thread_pool pool(2);
  worker_gate gate(pool);
  std::vector<std::string> order;
  auto record = [&order](std::string tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  pool.submit(record("low0"), {.priority = 0});
  pool.submit(record("low1"), {.priority = 0});
  pool.submit(record("high0"), {.priority = 5});
  pool.submit(record("high1"), {.priority = 5});
  gate.release();
  pool.wait_submitted();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "high0");
  EXPECT_EQ(order[1], "high1");
  EXPECT_EQ(order[2], "low0");
  EXPECT_EQ(order[3], "low1");
}

TEST(ThreadPoolSubmit, TenantsAreServedRoundRobinWithinAPriority) {
  thread_pool pool(2);
  worker_gate gate(pool);
  std::vector<std::string> order;
  auto record = [&order](std::string tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  // Tenant 1 floods the queue before tenant 2 submits anything; fairness
  // must still alternate them instead of draining tenant 1 first.
  for (int i = 0; i < 3; ++i)
    pool.submit(record("a" + std::to_string(i)), {.tenant = 1});
  for (int i = 0; i < 3; ++i)
    pool.submit(record("b" + std::to_string(i)), {.tenant = 2});
  gate.release();
  pool.wait_submitted();
  const std::vector<std::string> want = {"a0", "b0", "a1", "b1", "a2", "b2"};
  EXPECT_EQ(order, want);
}

TEST(ThreadPoolSubmit, PriorityBeatsFairnessAcrossLevels) {
  thread_pool pool(2);
  worker_gate gate(pool);
  std::vector<std::string> order;
  auto record = [&order](std::string tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  pool.submit(record("bg"), {.priority = 0, .tenant = 1});
  pool.submit(record("urgent"), {.priority = 1, .tenant = 2});
  gate.release();
  pool.wait_submitted();
  const std::vector<std::string> want = {"urgent", "bg"};
  EXPECT_EQ(order, want);
}

TEST(ThreadPoolSubmit, CancelTenantDropsOnlyThatTenantsQueuedTasks) {
  thread_pool pool(2);
  worker_gate gate(pool);
  std::atomic<int> ran1{0}, ran2{0};
  for (int i = 0; i < 4; ++i)
    pool.submit([&ran1] { ran1.fetch_add(1); }, {.tenant = 1});
  for (int i = 0; i < 3; ++i)
    pool.submit([&ran2] { ran2.fetch_add(1); }, {.tenant = 2});
  EXPECT_EQ(pool.cancel_tenant(1), 4u);
  EXPECT_EQ(pool.cancel_tenant(1), 0u);  // idempotent once drained
  gate.release();
  pool.wait_submitted();  // must not hang: cancelled tasks count completed
  EXPECT_EQ(ran1.load(), 0);
  EXPECT_EQ(ran2.load(), 3);
}

TEST(ThreadPoolSubmit, DefaultOptionsKeepFifoCompletionWithOneWorker) {
  thread_pool pool(2);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 16; ++i)
    pool.submit([&, i] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
    });
  pool.wait_submitted();
  std::vector<int> want(16);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

}  // namespace
