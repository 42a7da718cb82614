#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pcf {

thread_pool::thread_pool(int num_threads) : num_threads_(num_threads) {
  PCF_REQUIRE(num_threads >= 1, "thread_pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int id = 1; id < num_threads; ++id)
    workers_.emplace_back([this, id] { worker_loop(id); });
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::chunk(std::size_t n, int tid, std::size_t& begin,
                        std::size_t& end) const {
  const auto t = static_cast<std::size_t>(num_threads_);
  const std::size_t base = n / t, rem = n % t;
  const auto u = static_cast<std::size_t>(tid);
  begin = u * base + std::min(u, rem);
  end = begin + base + (u < rem ? 1 : 0);
}

void thread_pool::worker_loop(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    range_thunk rfn = nullptr;
    thread_thunk tfn = nullptr;
    void* ctx = nullptr;
    std::function<void()> task;
    std::size_t n = 0;
    bool fork_join = false;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_start_.wait(lk, [&] {
        return shutdown_ || generation_ != seen || !async_queue_.empty();
      });
      if (generation_ != seen) {
        // A fork-join dispatch takes priority so run() latency stays low.
        fork_join = true;
        seen = generation_;
        rfn = range_fn_;
        tfn = thread_fn_;
        ctx = task_ctx_;
        n = task_n_;
      } else if (!async_queue_.empty()) {
        task = pick_queued_locked();
      } else {
        return;  // shutdown with a drained queue
      }
    }
    try {
      if (fork_join) {
        if (rfn != nullptr) {
          std::size_t b, e;
          chunk(n, id, b, e);
          if (b < e) rfn(ctx, b, e);
        } else if (tfn != nullptr) {
          tfn(ctx, id);
        }
      } else {
        task();
      }
    } catch (...) {
      // An exception escaping a worker thread would std::terminate the
      // whole process; capture the first one for the calling thread.
      std::lock_guard<std::mutex> lk(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (fork_join) {
        if (--pending_ == 0) cv_done_.notify_all();
      } else {
        ++async_completed_;
        cv_done_.notify_all();
      }
    }
  }
}

void thread_pool::dispatch_and_wait() {
  // Caller participates as thread 0.
  try {
    if (range_fn_ != nullptr) {
      std::size_t b, e;
      chunk(task_n_, 0, b, e);
      if (b < e) range_fn_(task_ctx_, b, e);
    } else if (thread_fn_ != nullptr) {
      thread_fn_(task_ctx_, 0);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  std::unique_lock<std::mutex> lk(mutex_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  range_fn_ = nullptr;
  thread_fn_ = nullptr;
  task_ctx_ = nullptr;
  // Rethrow only after the barrier, when every worker is parked again and
  // the pool is reusable.
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void thread_pool::run_erased(std::size_t n, range_thunk fn, void* ctx) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    range_fn_ = fn;
    thread_fn_ = nullptr;
    task_ctx_ = ctx;
    task_n_ = n;
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  dispatch_and_wait();
}

std::function<void()> thread_pool::pick_queued_locked() {
  // Single queued task: no scheduling decision to make.
  if (async_queue_.size() == 1) {
    queued_task t = std::move(async_queue_.front());
    async_queue_.pop_front();
    return std::move(t.fn);
  }
  // Highest priority level first.
  int best_prio = async_queue_.front().priority;
  for (const queued_task& t : async_queue_) best_prio = std::max(best_prio, t.priority);
  // Among that level's tenants, serve the least recently served one; a
  // tenant never served before beats any that has, and ties fall back to
  // submission order. Only each tenant's *first* queued task is a
  // candidate, so one tenant's order stays FIFO.
  auto served_at = [&](std::uint64_t tenant) -> std::uint64_t {
    for (const tenant_service& s : tenant_service_)
      if (s.tenant == tenant) return s.served_at;
    return 0;  // never served
  };
  std::size_t best = async_queue_.size();
  std::uint64_t best_served = 0;
  std::uint64_t seen_tenants[16];  // small-queue fast path for dedup
  std::size_t nseen = 0;
  std::vector<std::uint64_t> seen_overflow;
  for (std::size_t i = 0; i < async_queue_.size(); ++i) {
    const queued_task& t = async_queue_[i];
    if (t.priority != best_prio) continue;
    bool first_of_tenant = true;
    for (std::size_t j = 0; j < nseen && first_of_tenant; ++j)
      if (seen_tenants[j] == t.tenant) first_of_tenant = false;
    for (std::size_t j = 0; j < seen_overflow.size() && first_of_tenant; ++j)
      if (seen_overflow[j] == t.tenant) first_of_tenant = false;
    if (!first_of_tenant) continue;
    if (nseen < 16)
      seen_tenants[nseen++] = t.tenant;
    else
      seen_overflow.push_back(t.tenant);
    const std::uint64_t sa = served_at(t.tenant);
    if (best == async_queue_.size() || sa < best_served) {
      best = i;
      best_served = sa;
    }
  }
  queued_task chosen = std::move(async_queue_[best]);
  async_queue_.erase(async_queue_.begin() + static_cast<std::ptrdiff_t>(best));
  ++service_clock_;
  bool found = false;
  for (tenant_service& s : tenant_service_)
    if (s.tenant == chosen.tenant) {
      s.served_at = service_clock_;
      found = true;
      break;
    }
  if (!found) tenant_service_.push_back({chosen.tenant, service_clock_});
  return std::move(chosen.fn);
}

thread_pool::ticket thread_pool::submit(std::function<void()> fn) {
  return submit(std::move(fn), task_options{});
}

std::size_t thread_pool::cancel_tenant(std::uint64_t tenant) {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto it = async_queue_.begin(); it != async_queue_.end();) {
      if (it->tenant == tenant) {
        it = async_queue_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    async_completed_ += dropped;
  }
  if (dropped > 0) cv_done_.notify_all();
  return dropped;
}

thread_pool::ticket thread_pool::submit(std::function<void()> fn,
                                        const task_options& opt) {
  if (num_threads_ == 1) {
    // Serial fallback: run inline so a 1-thread pool needs no workers, with
    // the same deferred-exception contract as the queued path.
    ticket t;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      t = ++async_submitted_;
    }
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mutex_);
    ++async_completed_;
    return t;
  }
  ticket t;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    t = ++async_submitted_;
    async_queue_.push_back({std::move(fn), opt.priority, opt.tenant, t});
  }
  cv_start_.notify_all();
  return t;
}

void thread_pool::wait_submitted(ticket t) {
  std::unique_lock<std::mutex> lk(mutex_);
  cv_done_.wait(lk, [&] { return async_completed_ >= t; });
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void thread_pool::wait_submitted() {
  std::unique_lock<std::mutex> lk(mutex_);
  cv_done_.wait(lk, [&] { return async_completed_ >= async_submitted_; });
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void thread_pool::run_per_thread_erased(thread_thunk fn, void* ctx) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    range_fn_ = nullptr;
    thread_fn_ = fn;
    task_ctx_ = ctx;
    task_n_ = 0;
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  dispatch_and_wait();
}

}  // namespace pcf
