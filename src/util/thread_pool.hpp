// Persistent worker pool for on-node threading.
//
// The paper threads three functions with OpenMP — batched FFTs, the N-S
// time-advance line solves, and the on-node transpose reorder — with a
// *different* degree of parallelism for each (Section 4.2). A pool with an
// explicit thread count models that directly and keeps the threading bench
// (Table 3/4) independent of the OpenMP runtime's global state.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pcf {

/// Fixed-size pool executing static contiguous-chunk parallel loops.
/// Thread 0 is the calling thread, so `thread_pool(1)` is serial with no
/// synchronization overhead in the loop body.
class thread_pool {
 public:
  /// @param num_threads total workers including the caller; >= 1.
  explicit thread_pool(int num_threads);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Execute fn(begin, end) over a static partition of [0, n) into
  /// num_threads contiguous chunks. Blocks until every chunk completes.
  /// If chunks throw, every chunk still runs to completion (or throws),
  /// and the first captured exception is rethrown on the calling thread —
  /// an exception escaping a worker thread would otherwise std::terminate
  /// the process.
  ///
  /// The callable is kept on the caller's stack and dispatched through a
  /// function pointer + context, so run() never heap-allocates — required
  /// by the RK3 substage's zero-allocation contract (every hot pencil /
  /// advance loop goes through here with a capturing lambda).
  template <class F>
  void run(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    if (num_threads_ == 1 || n <= 1) {
      if (n > 0) fn(0, n);
      return;
    }
    run_erased(
        n,
        [](void* ctx, std::size_t b, std::size_t e) {
          (*static_cast<Fn*>(ctx))(b, e);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Execute fn(thread_id) once on every thread (for per-thread setup).
  /// Same exception contract (and zero-allocation dispatch) as run().
  template <class F>
  void run_per_thread(F&& fn) {
    using Fn = std::remove_reference_t<F>;
    if (num_threads_ == 1) {
      fn(0);
      return;
    }
    run_per_thread_erased(
        [](void* ctx, int tid) { (*static_cast<Fn*>(ctx))(tid); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Ticket identifying a task handed to submit(); strictly increasing in
  /// submission order.
  using ticket = std::uint64_t;

  /// Scheduling attributes of a submitted task. The defaults reproduce the
  /// historical single-consumer FIFO queue exactly: one tenant, one
  /// priority level, strict submission order.
  struct task_options {
    /// Higher priorities start first. Within one priority level tenants
    /// are served round-robin (see below).
    int priority = 0;
    /// Fairness domain. The queue serves tenants of the top priority
    /// level in least-recently-served order, one task at a time, so a
    /// tenant with a thousand queued tasks cannot starve a tenant with
    /// one — the property the campaign scheduler's time slicing relies
    /// on. Tasks of one tenant at one priority still start in FIFO order.
    std::uint64_t tenant = 0;
  };

  /// Enqueue fn for execution on a pool worker and return immediately
  /// (submit-without-join) — the caller keeps computing while the task
  /// runs. With default options tasks start in FIFO order; with exactly
  /// one worker (a pool of two threads) they also *complete* in FIFO
  /// order. On a single-thread pool the task runs inline
  /// (serial fallback). A task exception is captured and rethrown by the
  /// next wait_submitted().
  ticket submit(std::function<void()> fn);
  ticket submit(std::function<void()> fn, const task_options& opt);

  /// Drop every still-queued task of `tenant` (tasks already running are
  /// not interrupted — the campaign layer checks its own cancel flag
  /// between time slices). Dropped tasks count as completed so pending
  /// wait_submitted() calls can make progress; returns how many were
  /// dropped.
  std::size_t cancel_tenant(std::uint64_t tenant);

  /// Block until `t` submitted tasks have completed (exact ticket
  /// semantics under FIFO completion, i.e. default options and at most
  /// one worker; under priorities/cancellation it is a completed-count
  /// threshold). Rethrows the first captured task exception.
  void wait_submitted(ticket t);

  /// Block until every submitted task has finished; same exception
  /// contract.
  void wait_submitted();

 private:
  // Type-erased fork-join dispatch (the callable lives on the caller's
  // stack for the duration of the barrier, so a raw pointer is safe).
  using range_thunk = void (*)(void*, std::size_t, std::size_t);
  using thread_thunk = void (*)(void*, int);
  void run_erased(std::size_t n, range_thunk fn, void* ctx);
  void run_per_thread_erased(thread_thunk fn, void* ctx);

  void worker_loop(int id);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Task state, guarded by mutex_.
  range_thunk range_fn_ = nullptr;
  thread_thunk thread_fn_ = nullptr;
  void* task_ctx_ = nullptr;
  std::size_t task_n_ = 0;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
  std::exception_ptr error_;  // first exception thrown by any chunk
  // Submit-without-join queue, guarded by mutex_. Workers drain it between
  // fork-join generations (and before exiting on shutdown), picking the
  // highest-priority task and rotating fairly across tenants within a
  // priority level (pick_queued_locked).
  struct queued_task {
    std::function<void()> fn;
    int priority = 0;
    std::uint64_t tenant = 0;
    std::uint64_t seq = 0;  // submission order, for FIFO within a tenant
  };
  std::deque<queued_task> async_queue_;
  std::uint64_t async_submitted_ = 0;
  std::uint64_t async_completed_ = 0;
  // Tenant fairness state: when each tenant was last handed a task, in
  // service-counter ticks (absent = never served).
  struct tenant_service {
    std::uint64_t tenant = 0;
    std::uint64_t served_at = 0;
  };
  std::vector<tenant_service> tenant_service_;
  std::uint64_t service_clock_ = 0;

  std::function<void()> pick_queued_locked();

  void chunk(std::size_t n, int tid, std::size_t& begin, std::size_t& end) const;
  void dispatch_and_wait();
};

}  // namespace pcf
