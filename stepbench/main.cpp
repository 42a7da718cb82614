// stepbench: DNS step time end to end and per layer.
//
//   stepbench --workload <dns32_serial|dns32_2x2|sweep16_evict>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Prints a detail line (every metric with its sample count, and the
// failures) and, as the last line of stdout, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. run.py builds this binary and adds provenance.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const stepbench::outcome& out) {
  std::string detail = "{\"detail\": {\"metrics\": {";
  std::string result = "{\"correct\": ";
  result += out.failed == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(out.attempted);
  result += ", \"failed\": " + std::to_string(out.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    const std::string sep = i == 0 ? "" : ", ";
    result += sep + json_string(m.name) + ": {\"value\": " +
              json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    detail += sep + json_string(m.name) + ": {\"value\": " +
              json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
              ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  detail += "}, \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i)
    detail += (i == 0 ? "" : ", ") + json_string(out.failures[i]);
  detail += "]}}";
  std::printf("%s\n%s}}\n", detail.c_str(), result.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload "
               "<dns32_serial|dns32_2x2|sweep16_evict> --seed <n> --seconds "
               "<s> --trace <0|1> --scratch <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  stepbench::run_options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--scratch") {
        opt.scratch = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.scratch.empty())
    usage("--seed, --seconds > 0, --trace and --scratch are required");
  if (opt.workload != "dns32_serial" && opt.workload != "dns32_2x2" &&
      opt.workload != "sweep16_evict")
    usage("unknown workload");

  stepbench::tracer tr(opt.trace);
  try {
    std::filesystem::create_directories(opt.scratch);
    stepbench::outcome out;
    if (opt.workload == "dns32_serial")
      out = stepbench::run_dns32(opt, 1, 1, tr);
    else if (opt.workload == "dns32_2x2")
      out = stepbench::run_dns32(opt, 2, 2, tr);
    else
      out = stepbench::run_sweep(opt, tr);
    for (auto& m : out.metrics) {
      if (std::isfinite(m.value)) continue;
      out.fail(m.name + " could not be measured");
      m.value = 0.0;  // keeps the result valid JSON; the run is failed
    }
    std::filesystem::remove_all(opt.scratch);
    for (const auto& f : out.failures)
      std::fprintf(stderr, "stepbench: failed: %s\n", f.c_str());
    print_result(out);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "stepbench: %s\n", ex.what());
    std::error_code ec;
    std::filesystem::remove_all(opt.scratch, ec);
    return 1;
  }
  return 0;
}
