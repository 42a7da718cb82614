#include "core/stages/implicit_stage.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace pcf::core {

implicit_stage::implicit_stage(stage_context& ctx, phase_timer::id parent)
    : ctx_(ctx),
      ph_run_(ctx.timers.add("implicit", parent)),
      ph_build_(ctx.timers.add("build", ph_run_)) {
  // Group scalars by Prandtl number (first-occurrence order) so scalars
  // with equal diffusivity share one factored operator and one blocked
  // multi-RHS pass per mode.
  const auto& scalars = ctx.cfg.scenario.scalars;
  for (std::size_t s = 0; s < scalars.size(); ++s) {
    const double kappa = 1.0 / (ctx.cfg.re_tau * scalars[s].prandtl);
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const scalar_group& g) {
                             return g.kappa == kappa;
                           });
    if (it == groups_.end()) {
      groups_.push_back({kappa, 0, 0});
      it = groups_.end() - 1;
    }
    it->count += 1;
  }
  std::size_t start = 0;
  for (auto& g : groups_) {
    g.start = start;
    start += g.count;
  }
  order_.resize(scalars.size());
  std::vector<std::size_t> fill(groups_.size(), 0);
  for (std::size_t s = 0; s < scalars.size(); ++s) {
    const double kappa = 1.0 / (ctx.cfg.re_tau * scalars[s].prandtl);
    for (std::size_t g = 0; g < groups_.size(); ++g)
      if (groups_[g].kappa == kappa) {
        order_[groups_[g].start + fill[g]++] = s;
        break;
      }
  }
  for (auto& a : sc_arena_) a.resize(groups_.size());
}

void implicit_stage::invalidate() {
  for (auto& a : arena_) a.clear();
  for (auto& v : sc_arena_)
    for (auto& a : v) a.clear();
}

void implicit_stage::drop_arenas() {
  for (auto& a : arena_) a.reset();
  for (auto& v : sc_arena_)
    for (auto& a : v) a.reset();
}

void implicit_stage::run(int i) {
  phase_timer::section sec(ctx_.timers, ph_run_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;
  aligned_buffer<cplx>& hv = st.u_s;
  aligned_buffer<cplx>& hg = st.v_s;

  const double nu = 1.0 / ctx_.cfg.re_tau;
  const double ca = rk3::kAlpha[i] * ctx_.cfg.dt * nu;
  const double cb = rk3::kBeta[i] * ctx_.cfg.dt * nu;
  const double g = rk3::kGamma[i] * ctx_.cfg.dt;
  const double z = rk3::kZeta[i] * ctx_.cfg.dt;

  // (Re)build the substep's solver arena if dt changed or it was never
  // built; assembly and factorization are parallel on the advance pool.
  if (ctx_.cfg.cache_solvers &&
      (!arena_[i].built() || arena_[i].coeff() != cb)) {
    phase_timer::section build(ctx_.timers, ph_build_);
    arena_[i].build(ops, cb, mt.k2s, ctx_.pool);
  }
  if (ctx_.cfg.cache_solvers) {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      scalar_arena& a = sc_arena_[i][gi];
      const double cbs = rk3::kBeta[i] * ctx_.cfg.dt * groups_[gi].kappa;
      if (!a.built() || a.coeff() != cbs) {
        phase_timer::section build(ctx_.timers, ph_build_);
        a.build(ops, cbs, mt.k2s, ctx_.pool);
      }
    }
  }

  std::atomic<int> tid_counter{0};
  ctx_.pool.run(mt.nmodes, [&](std::size_t mb, std::size_t me) {
    // Transient per-thread panels: x gathers the lines the RHS operator
    // reads, rhs receives the right-hand sides and is solved in place.
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    workspace_lane::scope scratch(ctx_.ws.thread(tid));
    auto& lane = ctx_.ws.thread(tid);
    const std::size_t width =
        std::max<std::size_t>(2, std::min(order_.size(), kPanelLines));
    cplx* x = lane.alloc<cplx>(width * n);
    cplx* rhs = lane.alloc<cplx>(width * n);
    static thread_local std::unique_ptr<mode_solver> uncached;
    for (std::size_t m = mb; m < me; ++m) {
      if (mt.skip[m]) {
        if (!(mt.has_mean && m == mt.mean_idx)) {
          // Spanwise Nyquist modes are held at zero.
          std::fill_n(st.line(st.c_v, m), n, cplx{0, 0});
          std::fill_n(st.line(st.c_om, m), n, cplx{0, 0});
          std::fill_n(st.line(st.c_phi, m), n, cplx{0, 0});
          for (auto& sc : st.scalars)
            std::fill_n(st.line(sc.c_th, m), n, cplx{0, 0});
        }
        continue;
      }
      const double k2 = mt.k2s[m];
      // Both right-hand sides of the fused solve as one 4-lane panel
      // (omega, phi): the RHS operator in one pass, then the explicit
      // nonlinear terms per entry.
      const cplx* om_phi[2] = {st.line(st.c_om, m), st.line(st.c_phi, m)};
      pack_panel(om_phi, 2, n, x);
      ops.apply_rhs_operator(ca, k2, lanes_of(x), 4, lanes_of(rhs), 4, 4);
      const cplx* hgm = st.line(hg, m);
      cplx* hgp = st.line(st.hg_prev, m);
      const cplx* hvm = st.line(hv, m);
      cplx* hvp = st.line(st.hv_prev, m);
      for (std::size_t j = 0; j < n; ++j) {
        rhs[2 * j] += g * hgm[j] + z * hgp[j];
        rhs[2 * j + 1] += g * hvm[j] + z * hvp[j];
      }
      // One 4-lane Helmholtz solve covers omega and phi, then the Poisson
      // recovery of v with the influence correction.
      if (ctx_.cfg.cache_solvers) {
        arena_[i].solve_block(static_cast<int>(m), rhs, st.line(st.c_om, m),
                              st.line(st.c_phi, m), st.line(st.c_v, m));
      } else {
        uncached = std::make_unique<mode_solver>(ops, cb, k2);
        uncached->solve_block(rhs, st.line(st.c_om, m), st.line(st.c_phi, m),
                              st.line(st.c_v, m));
      }
      // Save nonlinear history for the next substep.
      std::copy_n(hgm, n, hgp);
      std::copy_n(hvm, n, hvp);
      // Passive scalars: per Prandtl group, up to kPanelLines scalars at a
      // time ride one panel through the RHS operator and one panel band
      // pass (homogeneous Dirichlet — wall values live in the mean).
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        const scalar_group& grp = groups_[gi];
        const double cas = rk3::kAlpha[i] * ctx_.cfg.dt * grp.kappa;
        for (std::size_t r0 = 0; r0 < grp.count; r0 += kPanelLines) {
          const std::size_t cnt = std::min(kPanelLines, grp.count - r0);
          const int lanes = 2 * static_cast<int>(cnt);
          const std::size_t* idx = order_.data() + grp.start + r0;
          const cplx* th[kPanelLines];
          for (std::size_t r = 0; r < cnt; ++r)
            th[r] = st.line(st.scalars[idx[r]].c_th, m);
          pack_panel(th, cnt, n, x);
          ops.apply_rhs_operator(cas, k2, lanes_of(x), lanes, lanes_of(rhs),
                                 lanes, lanes);
          for (std::size_t r = 0; r < cnt; ++r) {
            auto& sc = st.scalars[idx[r]];
            const cplx* hm = st.line(sc.th_s, m);
            cplx* hp = st.line(sc.hth_prev, m);
            for (std::size_t j = 0; j < n; ++j)
              rhs[j * cnt + r] += g * hm[j] + z * hp[j];
            std::copy_n(hm, n, hp);
          }
          if (ctx_.cfg.cache_solvers) {
            sc_arena_[i][gi].solve(static_cast<int>(m), rhs, cnt);
          } else {
            const double cbs = rk3::kBeta[i] * ctx_.cfg.dt * grp.kappa;
            banded::compact_banded Hs = ops.helmholtz(cbs, k2);
            Hs.factorize();
            for (std::size_t r = 0; r < cnt; ++r) {
              rhs[r] = cplx{0, 0};
              rhs[(n - 1) * cnt + r] = cplx{0, 0};
            }
            Hs.solve_panel(lanes_of(rhs), static_cast<std::size_t>(lanes),
                           lanes);
          }
          for (std::size_t r = 0; r < cnt; ++r) {
            cplx* c_th = st.line(st.scalars[idx[r]].c_th, m);
            for (std::size_t j = 0; j < n; ++j) c_th[j] = rhs[j * cnt + r];
          }
        }
      }
    }
  });
}

}  // namespace pcf::core
