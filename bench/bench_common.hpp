// Shared helpers for the table-reproduction benchmark harness.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pencil/pencil.hpp"
#include "util/aligned.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pcf::bench {

/// Environment-tunable workload scale so CI runs stay short:
/// PCF_BENCH_SCALE=1 (default) reproduces the table shapes quickly;
/// larger values run closer to publication sizes.
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}

/// Time `fn` by repeating it until ~min_seconds has elapsed; returns
/// seconds per call.
template <class F>
double time_call(F&& fn, double min_seconds = 0.05, int min_reps = 3) {
  // Warm up.
  fn();
  int reps = min_reps;
  for (;;) {
    wall_timer t;
    for (int i = 0; i < reps; ++i) fn();
    const double s = t.seconds();
    if (s >= min_seconds || reps > (1 << 22)) return s / reps;
    reps *= 4;
  }
}

/// Seconds per to_physical + to_spectral cycle of the pencil kernel on a
/// pa x pb virtual-MPI grid: rank 0's wall clock over `repeats` cycles
/// after one warm-up cycle.
inline double transform_cycle_seconds(int pa, int pb, const pencil::grid& g,
                                      const pencil::kernel_config& cfg,
                                      int repeats) {
  double out = 0.0;  // written by rank 0 only; run_world joins the ranks
  vmpi::run_world(pa * pb, [&](vmpi::communicator& world) {
    vmpi::cart2d cart(world, pa, pb);
    pencil::parallel_fft pf(g, cart, cfg);
    const auto& d = pf.dec();
    aligned_buffer<pencil::cplx> spec(d.y_pencil_elems(), {0.5, -0.5});
    aligned_buffer<double> phys(d.x_pencil_real_elems());
    auto cycle = [&] {
      pf.to_physical(spec.data(), phys.data());
      pf.to_spectral(phys.data(), spec.data());
    };
    cycle();
    wall_timer t;
    for (int r = 0; r < repeats; ++r) cycle();
    if (world.rank() == 0) out = t.seconds() / repeats;
  });
  return out;
}

inline void print_header(const char* table, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", table, description);
  std::printf("==============================================================\n");
}

/// Minimal JSON emitter for the bench result files: objects, arrays,
/// keys, numbers, strings and bools, indented two spaces per level. A
/// container opened `flat` (and everything inside it) stays on one line,
/// one table row per line. Inside an object every value follows key().
/// Check the writer after construction: a file that cannot be opened is
/// reported on stderr and yields a false writer.
class json_writer {
 public:
  explicit json_writer(const char* path) : f_(std::fopen(path, "w")) {
    if (f_ == nullptr) std::perror(path);
  }
  ~json_writer() {
    if (f_ == nullptr) return;
    std::fputc('\n', f_);
    std::fclose(f_);
  }
  json_writer(const json_writer&) = delete;
  json_writer& operator=(const json_writer&) = delete;
  explicit operator bool() const { return f_ != nullptr; }

  json_writer& object(bool flat = false) { return open('{', '}', flat); }
  json_writer& array(bool flat = false) { return open('[', ']', flat); }
  json_writer& end() {
    const frame fr = stack_.back();
    stack_.pop_back();
    if (!fr.flat && !fr.first) newline();
    std::fputc(fr.close, f_);
    return *this;
  }

  json_writer& key(const std::string& k) {
    item();
    quoted(k.c_str());
    std::fputs(": ", f_);
    keyed_ = true;
    return *this;
  }
  json_writer& num(double v, const char* fmt = "%.6e") {
    item();
    std::fprintf(f_, fmt, v);
    return *this;
  }
  template <class I>
  json_writer& integer(I v) {
    item();
    std::fputs(std::to_string(v).c_str(), f_);
    return *this;
  }
  json_writer& str(const std::string& s) {
    item();
    quoted(s.c_str());
    return *this;
  }
  json_writer& boolean(bool b) {
    item();
    std::fputs(b ? "true" : "false", f_);
    return *this;
  }

 private:
  struct frame {
    char close;
    bool flat;
    bool first;
  };

  json_writer& open(char o, char c, bool flat) {
    item();
    std::fputc(o, f_);
    stack_.push_back({c, flat || (!stack_.empty() && stack_.back().flat),
                      true});
    return *this;
  }
  // Separator and line break before a value or key; a value that follows
  // its key gets none.
  void item() {
    if (keyed_ || stack_.empty()) {
      keyed_ = false;
      return;
    }
    frame& fr = stack_.back();
    if (!fr.first) std::fputs(fr.flat ? ", " : ",", f_);
    if (!fr.flat) newline();
    fr.first = false;
  }
  void newline() {
    std::fputc('\n', f_);
    for (std::size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", f_);
  }
  void quoted(const char* s) {
    std::fputc('"', f_);
    for (; *s != '\0'; ++s) {
      if (*s == '"' || *s == '\\') std::fputc('\\', f_);
      std::fputc(*s, f_);
    }
    std::fputc('"', f_);
  }

  std::FILE* f_;
  std::vector<frame> stack_;
  bool keyed_ = false;
};

}  // namespace pcf::bench
