// Workspace arena v2 benchmark: the pooled (block-leasing) lanes against
// the owned slabs they replaced, emitting BENCH_workspace.json so later
// changes have a perf trajectory to compare against.
//
// Four sections:
//   lease     — block_pool acquire/release latency by lease size, with the
//               per-thread cache on (hit path, no pool mutex) and off
//               (bitmap first-fit path), plus the pool's own lease_ns
//               telemetry for cross-checking.
//   advance   — seconds per quickstart step with owned lanes vs
//               pool-leased lanes, on the process CPU-time clock with the
//               two regimes' steps interleaved. The pool only changes
//               where the slabs live, so pooled must stay within 2% of
//               owned.
//   cycle     — suspend()/resume() round-trip latency: every leased block
//               released back to the pool and the four workspace holders
//               re-bound onto (possibly different) blocks.
//   interleave— N small-grid simulations sharing the global pool,
//               suspended whenever not stepping, swept through M
//               suspend/resume cycles. With at most one resumed at a
//               time the pool's block high-water must stay far below
//               N x one simulation's footprint — the multi-tenant memory
//               win the pool exists for.
//
// Usage: bench_workspace [--fast]
//   --fast: few steps / sims / cycles — the ctest `perf`-label smoke
//   variant. Env: PCF_BENCH_REPS overrides the advance step count.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "util/block_pool.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::block_pool;
using pcf::block_pool_config;
using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config quickstart_config(bool pooled) {
  channel_config cfg;
  cfg.nx = 16;
  cfg.nz = 16;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  cfg.pooled_workspace = pooled;
  return cfg;
}

// --- lease latency ----------------------------------------------------------

struct lease_point {
  std::size_t bytes = 0;
  double cached_ns = 0.0;    // acquire+release, thread cache on (hit path)
  double uncached_ns = 0.0;  // acquire+release, bitmap path
  double pool_lease_ns = 0.0;  // the pool's own lease_ns / leases telemetry
};

lease_point measure_lease(std::size_t bytes) {
  lease_point out;
  out.bytes = bytes;
  block_pool_config cfg;
  cfg.hugepages = false;
  {
    cfg.thread_cache_blocks = 64;
    block_pool pool(cfg);
    auto warm = pool.acquire(bytes);  // maps the segment once
    pool.release(warm);
    out.cached_ns = 1e9 * pcf::bench::time_call([&] {
      auto l = pool.acquire(bytes);
      l.data()[0] = 1;  // keep the lease from being optimized away
      pool.release(l);
    });
  }
  {
    cfg.thread_cache_blocks = 0;
    block_pool pool(cfg);
    auto warm = pool.acquire(bytes);
    pool.release(warm);
    out.uncached_ns = 1e9 * pcf::bench::time_call([&] {
      auto l = pool.acquire(bytes);
      l.data()[0] = 1;
      pool.release(l);
    });
    const auto st = pool.stats();
    if (st.leases > 0)
      out.pool_lease_ns =
          static_cast<double>(st.lease_ns) / static_cast<double>(st.leases);
  }
  return out;
}

// --- advance: owned vs pooled ----------------------------------------------

struct advance_result {
  double owned_s = 0.0;   // median CPU seconds per step
  double pooled_s = 0.0;
  double ratio = 0.0;     // median over step quads of pooled / owned
};

// CPU seconds used by the whole process (std::clock). The bench steps on
// one thread, so this is that thread's work; time it spends off its CPU
// (steal, another process's turn) does not count.
double process_cpu_s() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double median(std::vector<double> v) {  // upper median
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One owned and one pooled simulation of the same problem, stepped in
// quads owned, pooled, pooled, owned. Within a quad each regime takes one
// step right after its own (warm caches) and one right after the other's,
// and a linear host drift lands on both alike.
advance_result time_advance(int quads) {
  advance_result out;
  run_world(1, [&](communicator& world) {
    channel_dns owned(quickstart_config(false), world);
    channel_dns pooled(quickstart_config(true), world);
    owned.initialize(0.1, 1);
    pooled.initialize(0.1, 1);
    for (int s = 0; s < 3; ++s) {  // warm: solver caches, FFT plans
      owned.step();
      pooled.step();
    }
    auto timed_step = [](channel_dns& dns) {
      const double t0 = process_cpu_s();
      dns.step();
      return process_cpu_s() - t0;
    };
    std::vector<double> o, p, r;
    for (int q = 0; q < quads; ++q) {
      double to = timed_step(owned);
      const double tp = timed_step(pooled) + timed_step(pooled);
      to += timed_step(owned);
      o.push_back(0.5 * to);
      p.push_back(0.5 * tp);
      r.push_back(tp / to);
    }
    out.owned_s = median(o);
    out.pooled_s = median(p);
    out.ratio = median(r);
  });
  return out;
}

// --- suspend/resume round trip ---------------------------------------------

struct cycle_result {
  double suspend_us = 0.0;
  double resume_us = 0.0;
  std::uint64_t cache_hits = 0;  // pool hits over the measured cycles
};

cycle_result measure_cycle(int cycles) {
  std::mutex m;
  cycle_result out;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(true), world);
    dns.initialize(0.1, 1);
    dns.step();  // populate solver caches before the first release
    dns.suspend();
    dns.resume();  // one full round trip before timing
    const auto hits0 = block_pool::global().stats().cache_hits;
    double sus = 0.0, res = 0.0;
    for (int c = 0; c < cycles; ++c) {
      pcf::wall_timer t1;
      dns.suspend();
      sus += t1.seconds();
      pcf::wall_timer t2;
      dns.resume();
      res += t2.seconds();
    }
    std::lock_guard<std::mutex> lk(m);
    out.suspend_us = 1e6 * sus / cycles;
    out.resume_us = 1e6 * res / cycles;
    out.cache_hits = block_pool::global().stats().cache_hits - hits0;
  });
  return out;
}

// --- interleaved multi-simulation sweep ------------------------------------

struct interleave_result {
  int sims = 0;
  int cycles = 0;
  std::uint64_t footprint_blocks = 0;  // one simulation's workspace lease
  std::uint64_t peak_blocks = 0;       // pool high-water over the sweep
  double ratio = 0.0;                  // peak / footprint (bound: < sims)
};

interleave_result measure_interleave(int sims, int cycles) {
  std::mutex m;
  interleave_result out;
  out.sims = sims;
  out.cycles = cycles;
  run_world(1, [&](communicator& world) {
    auto& pool = block_pool::global();
    const auto leased0 = pool.stats().blocks_leased;
    std::vector<channel_dns*> dns;
    for (int i = 0; i < sims; ++i) {
      dns.push_back(new channel_dns(quickstart_config(true), world));
      dns.back()->initialize(0.1, 1 + static_cast<std::uint64_t>(i));
      dns.back()->step();  // realistic: solver caches exist before parking
      if (i == 0)
        out.footprint_blocks = pool.stats().blocks_leased - leased0;
      dns.back()->suspend();  // construct-then-suspend: blocks recycle
    }
    const auto peak0 = pool.stats().blocks_peak;
    for (int c = 0; c < cycles; ++c) {
      for (int i = 0; i < sims; ++i) {
        dns[i]->resume();
        if (c % 8 == 0) dns[i]->step();  // periodic real work while resumed
        dns[i]->suspend();
      }
    }
    std::lock_guard<std::mutex> lk(m);
    // The high-water over the sweep itself; construction transients (all
    // sims live before the first suspend on a pristine pool) are peak0.
    out.peak_blocks = std::max(pool.stats().blocks_peak, peak0) -
                      (leased0 > 0 ? leased0 : 0);
    if (out.footprint_blocks > 0)
      out.ratio = static_cast<double>(out.peak_blocks) /
                  static_cast<double>(out.footprint_blocks);
    for (auto* d : dns) delete d;
  });
  return out;
}

// --- JSON -------------------------------------------------------------------

void write_json(const char* path, const std::vector<lease_point>& lease,
                const advance_result& adv, const cycle_result& cyc,
                int cyc_cycles, const interleave_result& il) {
  pcf::bench::json_writer w(path);
  if (!w) return;
  w.object();
  w.key("bench").str("workspace");
  w.key("grid").array(true).integer(16).integer(33).integer(16).end();
  w.key("lease_latency").array();
  for (const auto& p : lease) {
    w.object(true).key("bytes").integer(p.bytes);
    w.key("cached_ns").num(p.cached_ns, "%.1f");
    w.key("uncached_ns").num(p.uncached_ns, "%.1f");
    w.key("pool_lease_ns").num(p.pool_lease_ns, "%.1f").end();
  }
  w.end();
  w.key("advance").object();
  w.key("owned_s_per_step").num(adv.owned_s);
  w.key("pooled_s_per_step").num(adv.pooled_s);
  w.key("pooled_over_owned").num(adv.ratio, "%.4f");
  w.key("bound").num(1.02, "%.2f");
  w.key("within_bound").boolean(adv.ratio <= 1.02);
  w.end();
  w.key("suspend_resume").object();
  w.key("cycles").integer(cyc_cycles);
  w.key("suspend_us").num(cyc.suspend_us, "%.2f");
  w.key("resume_us").num(cyc.resume_us, "%.2f");
  w.key("pool_cache_hits").integer(cyc.cache_hits);
  w.end();
  w.key("interleave").object();
  w.key("sims").integer(il.sims).key("cycles").integer(il.cycles);
  w.key("footprint_blocks").integer(il.footprint_blocks);
  w.key("peak_blocks").integer(il.peak_blocks);
  w.key("peak_over_footprint").num(il.ratio, "%.3f");
  w.key("bound").integer(il.sims);
  w.key("within_bound").boolean(il.ratio < static_cast<double>(il.sims));
  w.end();
  w.end();
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
  const int steps = static_cast<int>(
      pcf::bench::env_long("PCF_BENCH_REPS", fast ? 48 : 160));
  const int cyc_cycles = fast ? 16 : 64;
  const int il_sims = fast ? 3 : 8;
  const int il_cycles = fast ? 8 : 64;

  pcf::bench::print_header(
      "BENCH workspace",
      "block-pool leases: latency, advance parity, suspend/resume sweep");

  std::vector<lease_point> lease;
  for (std::size_t bytes :
       {std::size_t{1} << 16, std::size_t{1} << 20, std::size_t{1} << 23})
    lease.push_back(measure_lease(bytes));
  for (const auto& p : lease)
    std::printf(
        "lease %8zu B: cached %7.1f ns  uncached %7.1f ns  (pool telemetry "
        "%.1f ns)\n",
        p.bytes, p.cached_ns, p.uncached_ns, p.pool_lease_ns);

  const int quads = std::max(1, steps / 2);
  const advance_result adv = time_advance(quads);
  std::printf(
      "advance (%d steps each, CPU time): owned %.3f ms/step, "
      "pooled %.3f ms/step, ratio %.4f (bound 1.02)\n",
      2 * quads, 1e3 * adv.owned_s, 1e3 * adv.pooled_s, adv.ratio);

  const cycle_result cyc = measure_cycle(cyc_cycles);
  std::printf(
      "suspend/resume (%d cycles): suspend %.1f us, resume %.1f us, %llu "
      "pool cache hits\n",
      cyc_cycles, cyc.suspend_us, cyc.resume_us,
      static_cast<unsigned long long>(cyc.cache_hits));

  const interleave_result il = measure_interleave(il_sims, il_cycles);
  std::printf(
      "interleave (%d sims x %d cycles): footprint %llu blocks, peak %llu "
      "blocks, ratio %.3f (bound < %d)\n",
      il.sims, il.cycles,
      static_cast<unsigned long long>(il.footprint_blocks),
      static_cast<unsigned long long>(il.peak_blocks), il.ratio, il.sims);

  write_json("BENCH_workspace.json", lease, adv, cyc,
             cyc_cycles, il);
  std::printf("wrote BENCH_workspace.json\n");
  return 0;
}
