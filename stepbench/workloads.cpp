// The three workloads and their correctness checks.
//
// End-to-end times are read from the work clock (work_s below), layer
// spans and layer shares from the wall clock.
//
// dns32_*: a run is a sequence of jobs, each constructed, initialized
// from its own seed and stepped K times on pa x pb ranks. A job's set-up
// is construction + initialize + the first step (which builds the factored
// solver arenas); every later step is timed on rank 0. All checks run
// after the timed call returns.
//
// sweep16_evict: a run is a sequence of campaigns over one
// campaign_server each, then one check campaign that no metric counts.
// The server destroys a finished tenant inside run(), so the end-of-job
// state check has to run in the step observer; it runs once per job,
// after that job's done time is taken. The evicted-job-vs-solo
// fingerprint check runs only in the check campaign.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "bench.hpp"
#include "probes.hpp"
#include "util/block_pool.hpp"

namespace stepbench {

namespace campaign = pcf::campaign;
namespace core = pcf::core;

// Steps per dns32 job: about 1.5 s of stepping per job at the time of
// writing. Short jobs give many set-up and job samples per run, so a
// burst of contention (on a virtualised host, vCPU steal stalls every rank
// at the next barrier) skews a minority of them and the medians hold.
constexpr int kSerialJobSteps = 8;
constexpr int kSplitJobSteps = 24;
constexpr int kMinJobs = 6;
constexpr int kMinTracedJobs = 8;  // alternating untraced / traced

constexpr int kSweepJobs = 16;
constexpr long kSweepJobSteps = 32;
constexpr int kMinCampaigns = 3;
constexpr int kMinTracedCampaigns = 4;

core::channel_config dns32_config(int pa, int pb) {
  core::channel_config c;
  c.nx = 32;
  c.nz = 32;
  c.ny = 65;
  c.re_tau = 180.0;
  c.dt = 1e-4;
  c.pa = pa;
  c.pb = pb;
  c.max_batch = 5;
  c.pipeline_depth = 1;
  c.autotune = false;
  c.pooled_workspace = false;
  return c;
}

namespace {

/// The clock of the end-to-end metrics: CPU seconds of the whole process
/// per worker thread (a vmpi rank of dns32, a campaign worker of the
/// sweep). While every worker computes it keeps pace with the wall clock;
/// a worker that is runnable but off the CPU - its vCPU stolen by the
/// hypervisor of a shared host, or queued behind another process - does
/// not advance it, so the figures repeat from run to run on a busy host.
/// A worker that blocks (a rank in a barrier, an idle campaign worker)
/// does not advance it either.
double work_s(int workers) { return process_cpu_s() / workers; }

/// A default sweep tenant as campaign_server admits it: 16x33x16,
/// Re_tau=180, dt 1e-4, one rank, pooled workspace.
core::channel_config sweep_tenant_config() {
  core::channel_config c;
  c.nx = 16;
  c.nz = 16;
  c.ny = 33;
  c.re_tau = 180.0;
  c.dt = 1e-4;
  c.pooled_workspace = true;
  return c;
}

}  // namespace

std::vector<campaign::job_spec> sweep_jobs(std::uint64_t seed, int index) {
  std::vector<campaign::job_spec> jobs;
  const auto base = static_cast<std::uint64_t>(index) * 1000;
  for (int i = 0; i < kSweepJobs; ++i) {
    campaign::job_spec j;
    j.config = sweep_tenant_config();
    j.steps = kSweepJobSteps;
    j.perturbation = kDnsPerturbation;
    j.seed = derive_seed(seed, base + static_cast<std::uint64_t>(i));
    switch (i % 4) {
      case 0:
        j.name = "default";
        break;
      case 1:
        j.name = "adaptive_cfl";
        j.cfl_target = 0.5;
        j.dt_min = 2e-5;
        j.dt_max = 2e-4;
        break;
      case 2:
        j.name = "couette";
        j.config.forcing = 0.0;
        j.config.scenario.wall_u_lo = -1.0;
        j.config.scenario.wall_u_hi = 1.0;
        break;
      default:
        j.name = "flow_rate_scalar";
        j.config.scenario.forcing = core::forcing_mode::flow_rate;
        j.config.scenario.scalars.push_back({0.71, 0.0, 1.0});
        break;
    }
    j.name += std::to_string(i);
    jobs.push_back(std::move(j));
  }
  // Seeded queue order (Fisher-Yates).
  for (std::size_t i = jobs.size() - 1; i > 0; --i)
    std::swap(jobs[i], jobs[derive_seed(seed, base + 500 + i) % (i + 1)]);
  return jobs;
}

campaign::campaign_config sweep_campaign(const std::string& spill_dir) {
  campaign::campaign_config c;
  c.workers = 4;
  c.slice_steps = 8;
  c.max_resident = 6;
  c.spill_dir = spill_dir;
  return c;
}

bool state_ok(core::channel_dns& dns, std::string* why) {
  const double ke = dns.kinetic_energy();
  const double bulk = dns.bulk_velocity();
  const double div = dns.max_divergence();
  if (!std::isfinite(ke) || !std::isfinite(bulk)) {
    *why = "non-finite kinetic energy or bulk velocity at step " +
           std::to_string(dns.step_count());
    return false;
  }
  if (!(div <= 1e-12)) {
    *why = "max_divergence " + std::to_string(div) + " > 1e-12 at step " +
           std::to_string(dns.step_count());
    return false;
  }
  return true;
}

pcf::determinism::step_fingerprint dns32_fingerprint(
    int pa, int pb, std::uint64_t seed, int steps, const std::string& scratch) {
  pcf::determinism::step_fingerprint fp;
  const core::channel_config cfg = dns32_config(pa, pb);
  pcf::vmpi::run_world(pa * pb, [&](pcf::vmpi::communicator& world) {
    core::channel_dns dns(cfg, world);
    dns.initialize(kDnsPerturbation, seed);
    for (int s = 0; s < steps; ++s) dns.step();
    const auto f = pcf::determinism::fingerprint(dns, scratch + "/dns32_fp.ckpt");
    if (world.rank() == 0) fp = f;
  });
  std::filesystem::remove(scratch + "/dns32_fp.ckpt");
  return fp;
}

pcf::determinism::step_fingerprint solo_fingerprint(
    const campaign::job_spec& job, const std::string& scratch) {
  pcf::determinism::step_fingerprint fp;
  core::channel_config cfg = job.config;
  cfg.pa = 1;  // as campaign_server admits every tenant
  cfg.pb = 1;
  cfg.pooled_workspace = true;
  pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& world) {
    core::channel_dns dns(cfg, world);
    dns.initialize(job.perturbation, job.seed);
    if (job.cfl_target > 0.0)
      dns.set_cfl_target(job.cfl_target, job.dt_min, job.dt_max);
    for (long s = 0; s < job.steps; ++s) dns.step();
    fp = pcf::determinism::fingerprint(dns, scratch + "/solo_fp.ckpt");
  });
  std::filesystem::remove(scratch + "/solo_fp.ckpt");
  return fp;
}

namespace {

void add_end_to_end(outcome& out, const std::vector<double>& steps,
                    double steps_per_s, std::size_t rate_samples,
                    const std::vector<double>& done,
                    const std::vector<double>& setups) {
  out.add("steps_per_s", steps_per_s, "steps/s", rate_samples);
  out.add("step_s.p50", median(steps), "s", steps.size());
  out.add("job_done_s.p50", median(done), "s", done.size());
  out.add("setup_s", median(setups), "s", setups.size());
  out.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

struct pool_marks {
  pcf::block_pool::stats_t at = pcf::block_pool::global().stats();
  void deltas(layer_inputs& in) const {
    const auto now = pcf::block_pool::global().stats();
    in.pool_leases = static_cast<double>(now.leases - at.leases);
    in.pool_cache_hits = static_cast<double>(now.cache_hits - at.cache_hits);
  }
};

}  // namespace

outcome run_dns32(const run_options& opt, int pa, int pb, tracer& tr) {
  const core::channel_config cfg = dns32_config(pa, pb);
  const int job_steps = pa * pb == 1 ? kSerialJobSteps : kSplitJobSteps;
  const int min_jobs = opt.trace ? kMinTracedJobs : kMinJobs;
  outcome out;
  layer_inputs in;
  if (opt.trace) in.host = probe_host(tr);
  const pool_marks pool;

  // Rank 0's samples of the untraced jobs, on the work clock, and the
  // same step times on the wall clock for the layer shares. Only rank 0
  // writes them and `out`.
  std::vector<double> steps, wall_steps, setups, done, rates;
  const double t_start = now_s();
  pcf::vmpi::run_world(pa * pb, [&](pcf::vmpi::communicator& world) {
    tracer::set_thread_rank(world.rank());
    const bool lead = world.rank() == 0;
    std::unique_ptr<kernel_probe> probe;
    if (opt.trace) probe = std::make_unique<kernel_probe>(cfg, world, tr);
    int rounds = 0;
    auto count_check = [&](core::channel_dns& dns) {
      std::string why;
      const bool ok = state_ok(dns, &why);
      if (lead) {
        ++out.attempted;
        if (!ok) out.fail(why);
      }
    };
    for (int job = 0;; ++job) {
      const bool traced = opt.trace && job % 2 == 1;
      tracer* t = traced ? &tr : nullptr;
      world.barrier();
      const double t0 = work_s(pa * pb);
      std::unique_ptr<core::channel_dns> dns;
      {
        tracer::scope sp(t, "core.construct", 1);
        dns = std::make_unique<core::channel_dns>(cfg, world);
      }
      {
        tracer::scope sp(t, "core.initialize", 1);
        dns->initialize(kDnsPerturbation,
                        derive_seed(opt.seed, static_cast<std::uint64_t>(job)));
      }
      {
        tracer::scope sp(t, "core.first_step", 1);
        dns->step();
      }
      const double setup = work_s(pa * pb) - t0;
      count_check(*dns);
      double stepping = 0.0;
      for (int k = 0; k < job_steps; ++k) {
        const double s0 = work_s(pa * pb), w0 = now_s();
        {
          tracer::scope sp(t, "core.step", 1);
          dns->step();
        }
        const double dt = work_s(pa * pb) - s0, wall = now_s() - w0;
        if (traced) {
          tracer::scope sp(t, "vmpi.barrier", 1);
          world.barrier();
        }
        stepping += dt;
        if (lead && !traced) {
          steps.push_back(dt);
          wall_steps.push_back(wall);
        }
        count_check(*dns);
      }
      if (lead && !traced) {
        setups.push_back(setup);
        done.push_back(setup + stepping);
        rates.push_back(job_steps / stepping);
      }
      if (traced && job == 1) {
        probe_instance(*dns, cfg, world, tr, opt.scratch, out, &in.ckpt_bytes);
      }
      dns.reset();
      if (probe) {
        probe->round();
        ++rounds;
      }
      int more = lead && (job + 1 < min_jobs || now_s() - t_start < opt.seconds);
      world.bcast(&more, 1, 0);
      if (more == 0) break;
    }
    if (probe) {
      for (; rounds < kMinProbeRounds; ++rounds) probe->round();
      if (lead) in.kernel = probe->counts();
    }
  });

  if (!opt.trace) {
    add_end_to_end(out, steps, median(rates), rates.size(), done, setups);
    return out;
  }
  // On one rank every exchange is a local forward; the vmpi metrics then
  // come from a 2x2 world of the same problem.
  tracer exchange_tr(true);
  if (pa * pb == 1) {
    in.exchange = probe_exchange(dns32_config(2, 2), opt.seed, exchange_tr, out);
    in.exchange_ranks = 4;
  } else {
    in.exchange = in.kernel;
    in.exchange_ranks = pa * pb;
  }
  probe_util(in.kernel.workspace_bytes, tr);
  pool.deltas(in);
  in.steps = wall_steps;
  in.traced_step_s = median(tr.per_item("core.step"));
  layer_metrics(cfg, in, tr, pa * pb == 1 ? exchange_tr : tr, out);
  return out;
}

outcome run_sweep(const run_options& opt, tracer& tr) {
  const int min_campaigns = opt.trace ? kMinTracedCampaigns : kMinCampaigns;
  const std::string spill = opt.scratch + "/spill";
  std::filesystem::create_directories(spill);
  outcome out;
  layer_inputs in;
  if (opt.trace) in.host = probe_host(tr);
  const pool_marks pool;

  // Layer probes at a default tenant's configuration; their rounds run
  // between campaigns, on a single-rank world that (like a tenant's) can
  // be driven from any thread.
  const core::channel_config cfg = sweep_tenant_config();
  std::unique_ptr<kernel_probe> probe;
  if (opt.trace) {
    std::optional<pcf::vmpi::communicator> world;
    pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& w) { world.emplace(w); });
    probe = std::make_unique<kernel_probe>(cfg, *world, tr);
  }
  int rounds = 0;

  // On the work clock, except wall_steps (the layer shares' step times).
  std::vector<double> steps, wall_steps, done, setups;
  double total_steps = 0.0, total_elapsed = 0.0;
  const int workers = sweep_campaign(spill).workers;

  // One campaign. A measured one feeds the metrics (or, when traced, the
  // spans); the check campaign, run once after the measured ones, is left
  // out of every metric and fingerprints each job's final state, so the
  // evicted-job-vs-solo check costs the measured campaigns nothing.
  enum class kind { measured, traced, check };
  auto run_campaign = [&](int c, kind k) {
    const bool traced = k == kind::traced;
    const std::vector<campaign::job_spec> jobs = sweep_jobs(opt.seed, c);
    campaign::campaign_server server(sweep_campaign(spill));
    std::map<std::uint64_t, const campaign::job_spec*> spec_of;
    for (const auto& j : jobs) spec_of[server.enqueue(j)] = &j;

    // Observer state: written by the workers under `mu`.
    std::mutex mu;
    double t0 = 0.0, first = -1.0;
    std::vector<double> c_steps, c_wall_steps, c_done;
    std::map<std::uint64_t, pcf::determinism::step_fingerprint> final_fp;
    // Per-worker previous callback, to time consecutive in-slice steps on
    // the worker's own CPU clock (and, for the layer shares, the wall
    // clock). Workers are created by run(), so the generation tag `c`
    // keeps a stale value from an earlier campaign from matching.
    struct last_cb {
      int gen = -1;
      std::uint64_t id = 0;
      long step = -1;
      double cpu = 0.0, wall = 0.0;
    };
    static thread_local last_cb last;
    server.set_step_observer([&](std::uint64_t id, core::channel_dns& dns) {
      const double cpu = thread_cpu_s(), wall = now_s();
      const double t = work_s(workers);
      const long sc = dns.step_count();
      const bool in_slice =
          last.gen == c && last.id == id && last.step + 1 == sc;
      const bool final = sc == spec_of.at(id)->steps;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (first < 0.0) first = t - t0;
        if (in_slice) {
          c_steps.push_back(cpu - last.cpu);
          c_wall_steps.push_back(wall - last.wall);
          if (traced) tr.record("core.step", last.wall, wall);
        }
        if (final) c_done.push_back(t - t0);
      }
      if (final) {
        // The server destroys a finished tenant inside run(), so its final
        // state can only be checked here, after its done time is taken.
        std::string why;
        const bool ok = state_ok(dns, &why);
        std::optional<pcf::determinism::step_fingerprint> fp;
        if (k == kind::check)
          fp = pcf::determinism::fingerprint(
              dns, opt.scratch + "/sweep_fp" + std::to_string(id) + ".ckpt");
        std::lock_guard<std::mutex> lk(mu);
        if (!ok) out.fail(spec_of.at(id)->name + ": " + why);
        if (fp) final_fp[id] = *fp;
      }
      last = {c, id, sc, thread_cpu_s(), now_s()};
    });

    campaign::campaign_report rep;
    t0 = work_s(workers);
    try {
      tracer::scope sp(traced ? &tr : nullptr, "campaign.run", 1);
      rep = server.run();
    } catch (const std::exception& ex) {
      out.attempted += kSweepJobs;
      out.fail(std::string("campaign run failed: ") + ex.what());
      return false;
    }
    const double elapsed = work_s(workers) - t0;

    std::vector<const campaign::job_status*> evicted;
    for (const auto& j : rep.jobs) {
      ++out.attempted;
      if (j.state != campaign::job_state::done)
        out.fail(j.name + " ended " + campaign::to_string(j.state) + " " + j.error);
      if (j.evictions > 0) evicted.push_back(&j);
    }
    if (rep.stranded_blocks != 0) out.fail("campaign stranded pool blocks");
    if (k == kind::check) {
      // A seeded pick among the tenants that went through the eviction
      // churn must match its solo run bit for bit.
      if (evicted.empty()) {
        out.fail("check campaign evicted no job");
      } else {
        const auto& j = *evicted[derive_seed(opt.seed, 9000) % evicted.size()];
        const auto it = final_fp.find(j.id);
        if (it == final_fp.end() ||
            !(it->second == solo_fingerprint(*spec_of.at(j.id), opt.scratch)))
          out.fail(j.name + " differs from its solo run");
      }
      for (const auto& [id, fp] : final_fp)
        std::filesystem::remove(opt.scratch + "/sweep_fp" + std::to_string(id) +
                                ".ckpt");
      return true;
    }
    if (!traced) {
      steps.insert(steps.end(), c_steps.begin(), c_steps.end());
      wall_steps.insert(wall_steps.end(), c_wall_steps.begin(),
                        c_wall_steps.end());
      done.insert(done.end(), c_done.begin(), c_done.end());
      setups.push_back(first);
      total_steps += static_cast<double>(rep.total_steps);
      total_elapsed += elapsed;
    }
    in.campaigns += 1.0;
    in.evictions += static_cast<double>(rep.evictions);
    in.readmissions += static_cast<double>(rep.readmissions);
    in.plan_hits += static_cast<double>(rep.plan_cache_hits);
    in.plan_lookups +=
        static_cast<double>(rep.plan_cache_hits + rep.plan_cache_misses);
    in.memo_hits += static_cast<double>(rep.tuning_memo_hits);
    in.memo_lookups +=
        static_cast<double>(rep.tuning_memo_hits + rep.tuning_memo_misses);
    in.pool_peak_bytes =
        std::max(in.pool_peak_bytes, static_cast<double>(rep.pool_peak_bytes));
    in.stranded_blocks += static_cast<double>(rep.stranded_blocks);
    return true;
  };

  const double t_start = now_s();
  int c = 0;
  for (;; ++c) {
    const bool traced = opt.trace && c % 2 == 1;
    if (!run_campaign(c, traced ? kind::traced : kind::measured)) break;
    if (probe) {
      probe->round();
      ++rounds;
    }
    if (c + 1 >= min_campaigns && now_s() - t_start >= opt.seconds) break;
  }
  run_campaign(c + 1, kind::check);

  if (!opt.trace) {
    add_end_to_end(out, steps, total_steps / total_elapsed, setups.size(), done,
                   setups);
    return out;
  }
  pool.deltas(in);
  for (; rounds < kMinProbeRounds; ++rounds) probe->round();
  in.kernel = probe->counts();
  in.exchange = in.kernel;
  probe.reset();
  pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& w) {
    core::channel_dns dns(cfg, w);
    dns.initialize(kDnsPerturbation, opt.seed);
    dns.step();
    probe_instance(dns, cfg, w, tr, opt.scratch, out, &in.ckpt_bytes);
  });
  probe_util(in.kernel.workspace_bytes, tr);
  in.steps = wall_steps;
  in.traced_step_s = median(tr.per_item("core.step"));
  layer_metrics(cfg, in, tr, tr, out);
  return out;
}

}  // namespace stepbench
