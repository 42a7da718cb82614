#include "trace.hpp"

#include <time.h>

#include <chrono>
#include <string_view>

namespace stepbench {

namespace {
thread_local int t_rank = 0;

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

void tracer::record(const char* name, double t0, double t1, long count) {
  if (!on_) return;
  const span_record r{name, t0, t1, t_rank, count};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(r);
}

void tracer::set_thread_rank(int rank) { t_rank = rank; }

std::size_t tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<double> tracer::per_item(const char* name, int rank) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : spans_)
    if (s.rank == rank && std::string_view(s.name) == name && s.count > 0)
      out.push_back((s.t1 - s.t0) / static_cast<double>(s.count));
  return out;
}

}  // namespace stepbench
