// In-memory span recorder for the step benchmark.
//
// Spans are recorded only by the benchmark's own code, around calls into
// each layer's public entry points; nothing inside the library is
// instrumented. A disabled tracer records nothing, so the untraced runs
// that produce the end-to-end metrics pay one branch per span site.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace stepbench {

/// Monotonic wall clock in seconds (steady_clock).
double now_s();

/// CPU seconds used so far by every thread of this process
/// (CLOCK_PROCESS_CPUTIME_ID). Time a thread spends runnable but off the
/// CPU - waiting for a run queue or, on a virtualised host, stolen by the
/// hypervisor - is not counted.
double process_cpu_s();

/// CPU seconds used so far by the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_s();

struct span_record {
  const char* name = "";  // static string: "<layer>.<operation>"
  double t0 = 0.0, t1 = 0.0;
  int rank = 0;    // vmpi rank of the recording thread (0 off-world)
  long count = 1;  // work items inside the span (lines, solves, ...)
};

class tracer {
 public:
  explicit tracer(bool enabled) : on_(enabled) {}
  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;

  [[nodiscard]] bool enabled() const { return on_; }

  /// RAII span: opened at construction, recorded at destruction. A scope
  /// of a disabled tracer (or of nullptr) does nothing.
  class scope {
   public:
    scope(tracer* t, const char* name, long count)
        : t_(t != nullptr && t->on_ ? t : nullptr),
          name_(name),
          count_(count),
          t0_(t_ != nullptr ? now_s() : 0.0) {}
    ~scope() {
      if (t_ != nullptr) t_->record(name_, t0_, now_s(), count_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer* t_;
    const char* name_;
    long count_;
    double t0_;
  };

  [[nodiscard]] scope span(const char* name, long count = 1) {
    return scope(this, name, count);
  }

  /// Record an interval measured elsewhere (e.g. between two callbacks).
  void record(const char* name, double t0, double t1, long count = 1);

  /// Tag the calling thread's spans with its vmpi rank.
  static void set_thread_rank(int rank);

  [[nodiscard]] std::size_t size() const;

  /// Per-item durations (span duration / count) of every span called
  /// `name` recorded on `rank`, in recording order.
  [[nodiscard]] std::vector<double> per_item(const char* name,
                                             int rank = 0) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<span_record> spans_;  // guarded by mu_
};

}  // namespace stepbench
