#include "core/stages/nonlinear_stage.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace pcf::core {

nonlinear_stage::nonlinear_stage(stage_context& ctx, phase_timer::id parent)
    : ctx_(ctx),
      cfl_maxes_(ctx.ws.shared().alloc<double>(
          static_cast<std::size_t>(ctx.pool.num_threads()))),
      ph_run_(ctx.timers.add("nonlinear", parent)),
      ph_vel_(ctx.timers.add("velocities", ph_run_)) {
  // The kernel's to_physical / to_spectral trees join this stage's.
  ctx.pf.time_into(ctx.timers, ph_run_);
  ph_prod_ = ctx.timers.add("products", ph_run_);
  ph_asm_ = ctx.timers.add("assemble", ph_run_);
}

void nonlinear_stage::rebind_workspace() {
  cfl_maxes_ = ctx_.ws.shared().alloc<double>(
      static_cast<std::size_t>(ctx_.pool.num_threads()));
}

void nonlinear_stage::run() {
  phase_timer::section sec(ctx_.timers, ph_run_);
  compute_velocities();
  velocities_to_physical();
  compute_products();
  products_to_spectral();
  assemble();
}

void nonlinear_stage::compute_velocities() {
  phase_timer::section sec(ctx_.timers, ph_vel_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;
  const std::size_t nsc = st.scalars.size();
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(mt.nmodes, [&](std::size_t mb, std::size_t me) {
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    workspace_lane::scope scratch(ctx_.ws.thread(tid));
    auto& lane = ctx_.ws.thread(tid);
    // Lane-interleaved panels: x gathers coefficient lines, y receives
    // their point values, dv the wall-normal derivative of v.
    cplx* x = lane.alloc<cplx>(kPanelLines * n);
    cplx* y = lane.alloc<cplx>(kPanelLines * n);
    cplx* dv = lane.alloc<cplx>(n);
    for (std::size_t m = mb; m < me; ++m) {
      cplx* us = st.line(st.u_s, m);
      cplx* vs = st.line(st.v_s, m);
      cplx* ws = st.line(st.w_s, m);
      if (mt.skip[m]) {
        std::fill_n(us, n, cplx{0, 0});
        std::fill_n(vs, n, cplx{0, 0});
        std::fill_n(ws, n, cplx{0, 0});
        for (auto& sc : st.scalars)
          std::fill_n(st.line(sc.th_s, m), n, cplx{0, 0});
        if (mt.has_mean && m == mt.mean_idx) {
          // The real mean profiles U, W (and each scalar's) at the points
          // ride the mean mode's lines, one real lane each.
          double* xr = lanes_of(x);
          double* yr = lanes_of(y);
          const double* prof[2 + kMaxScalars] = {st.c_U.data(),
                                                 st.c_W.data()};
          for (std::size_t s = 0; s < nsc; ++s)
            prof[2 + s] = st.scalars[s].c_T.data();
          const std::size_t cnt = 2 + nsc;
          pack_panel(prof, cnt, n, xr);
          ops.to_points(xr, cnt, yr, cnt, static_cast<int>(cnt));
          for (std::size_t i = 0; i < n; ++i) {
            us[i] = yr[i * cnt];
            ws[i] = yr[i * cnt + 1];
          }
          for (std::size_t s = 0; s < nsc; ++s) {
            cplx* ths = st.line(st.scalars[s].th_s, m);
            for (std::size_t i = 0; i < n; ++i) ths[i] = yr[i * cnt + 2 + s];
          }
        }
        continue;
      }
      // Scalars at the collocation points, up to kPanelLines per panel.
      for (std::size_t s0 = 0; s0 < nsc; s0 += kPanelLines) {
        const std::size_t cnt = std::min(kPanelLines, nsc - s0);
        const int lanes = 2 * static_cast<int>(cnt);
        const cplx* th[kPanelLines];
        for (std::size_t r = 0; r < cnt; ++r)
          th[r] = st.line(st.scalars[s0 + r].c_th, m);
        pack_panel(th, cnt, n, x);
        ops.to_points(lanes_of(x), lanes, lanes_of(y), lanes, lanes);
        for (std::size_t r = 0; r < cnt; ++r) {
          cplx* ths = st.line(st.scalars[s0 + r].th_s, m);
          for (std::size_t i = 0; i < n; ++i) ths[i] = y[i * cnt + r];
        }
      }
      // v and omega at the points in one 4-lane pass, v' from v's lanes.
      const cplx* v_om[2] = {st.line(st.c_v, m), st.line(st.c_om, m)};
      pack_panel(v_om, 2, n, x);
      ops.to_points(lanes_of(x), 4, lanes_of(y), 4, 4);
      ops.deriv1_points(lanes_of(x), 4, lanes_of(dv), 2, 2);
      const double k2 = mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m];
      const cplx ikx{0.0, mt.kx[m] / k2};
      const cplx ikz{0.0, mt.kz[m] / k2};
      for (std::size_t i = 0; i < n; ++i) {
        const cplx om = y[2 * i + 1];
        vs[i] = y[2 * i];
        us[i] = ikx * dv[i] - ikz * om;
        ws[i] = ikz * dv[i] + ikx * om;
      }
    }
  });
}

void nonlinear_stage::velocities_to_physical() {
  auto& st = ctx_.state;
  // Fixed-size pointer tables (kMaxScalars-bounded) keep this hot path
  // allocation-free; the scalars ride the same aggregated exchange as the
  // velocity components.
  const std::size_t nsc = st.scalars.size();
  const cplx* specs[3 + kMaxScalars] = {st.u_s.data(), st.v_s.data(),
                                        st.w_s.data()};
  double* phys[3 + kMaxScalars] = {st.u_p.data(), st.v_p.data(),
                                   st.w_p.data()};
  for (std::size_t s = 0; s < nsc; ++s) {
    specs[3 + s] = st.scalars[s].th_s.data();
    phys[3 + s] = st.scalars[s].th_p.data();
  }
  ctx_.pf.to_physical_batch(specs, phys, 3 + nsc);
}

void nonlinear_stage::compute_products() {
  phase_timer::section sec(ctx_.timers, ph_prod_);
  auto& st = ctx_.state;
  const auto& d = ctx_.d;
  const std::size_t ps = d.x_pencil_real_elems();
  const double dx = ctx_.cfg.lx / static_cast<double>(d.nxf);
  const double dz = ctx_.cfg.lz / static_cast<double>(d.nzf);
  double dy_min = 2.0;
  const auto& pts = ctx_.ops.points();
  for (std::size_t i = 1; i < pts.size(); ++i)
    dy_min = std::min(dy_min, pts[i] - pts[i - 1]);
  const auto nthreads = static_cast<std::size_t>(ctx_.pool.num_threads());
  std::fill_n(cfl_maxes_, nthreads, 0.0);
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(ps, [&](std::size_t b, std::size_t e) {
    const int tid = tid_counter.fetch_add(1);
    double mx = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      const double u = st.u_p[i], v = st.v_p[i], w = st.w_p[i];
      st.f1[i] = u * u - v * v;
      st.f2[i] = u * v;
      st.f3[i] = u * w;
      st.f4[i] = v * w;
      st.f5[i] = w * w - v * v;
      mx = std::max(mx, std::abs(u) / dx + std::abs(v) / dy_min +
                            std::abs(w) / dz);
    }
    cfl_maxes_[static_cast<std::size_t>(tid)] = mx;
    // Scalar advective fluxes u theta / v theta / w theta, after the
    // velocity loop so the CFL kernel above is untouched.
    for (auto& sc : st.scalars)
      for (std::size_t i = b; i < e; ++i) {
        const double th = sc.th_p[i];
        sc.gu[i] = st.u_p[i] * th;
        sc.gv[i] = st.v_p[i] * th;
        sc.gw[i] = st.w_p[i] * th;
      }
  });
  st.cfl_local = 0.0;
  for (std::size_t t = 0; t < nthreads; ++t)
    st.cfl_local = std::max(st.cfl_local, cfl_maxes_[t] * ctx_.cfg.dt);
}

void nonlinear_stage::products_to_spectral() {
  auto& st = ctx_.state;
  const std::size_t nsc = st.scalars.size();
  const double* prods[5 + 3 * kMaxScalars] = {st.f1.data(), st.f2.data(),
                                              st.f3.data(), st.f4.data(),
                                              st.f5.data()};
  cplx* specs[5 + 3 * kMaxScalars] = {st.q1.data(), st.q2.data(),
                                      st.q3.data(), st.q4.data(),
                                      st.q5.data()};
  for (std::size_t s = 0; s < nsc; ++s) {
    auto& sc = st.scalars[s];
    prods[5 + 3 * s + 0] = sc.gu.data();
    prods[5 + 3 * s + 1] = sc.gv.data();
    prods[5 + 3 * s + 2] = sc.gw.data();
    specs[5 + 3 * s + 0] = sc.qu.data();
    specs[5 + 3 * s + 1] = sc.qv.data();
    specs[5 + 3 * s + 2] = sc.qw.data();
  }
  ctx_.pf.to_spectral_batch(prods, specs, 5 + 3 * nsc);
}

void nonlinear_stage::assemble() {
  phase_timer::section sec(ctx_.timers, ph_asm_);
  const auto& mt = ctx_.modes;
  auto& st = ctx_.state;
  const auto& ops = ctx_.ops;
  const std::size_t n = mt.n;
  // h_v and h_g are assembled into the velocity work buffers (free once
  // the products are formed); the mean forcing of this substep starts from
  // zero every call, exactly like the zero-initialized locals it replaced.
  aligned_buffer<cplx>& hv = st.u_s;
  aligned_buffer<cplx>& hg = st.v_s;
  std::fill_n(st.hU, n, 0.0);
  std::fill_n(st.hW, n, 0.0);
  for (auto& sc : st.scalars) std::fill(sc.hT.begin(), sc.hT.end(), 0.0);
  const std::size_t nsc = st.scalars.size();
  std::atomic<int> tid_counter{0};
  ctx_.pool.run(mt.nmodes, [&](std::size_t mb, std::size_t me) {
    const auto tid = static_cast<std::size_t>(tid_counter.fetch_add(1));
    workspace_lane::scope scratch(ctx_.ws.thread(tid));
    auto& lane = ctx_.ws.thread(tid);
    // One mode's products as a lane-interleaved panel, q2 and q4 first so
    // their second derivative reads lanes 0..3: c holds the spline
    // coefficients, d1 their first and d2 (q2, q4 only) their second
    // derivative at the points.
    cplx* c = lane.alloc<cplx>(kPanelLines * n);
    cplx* d1 = lane.alloc<cplx>(kPanelLines * n);
    cplx* d2 = lane.alloc<cplx>(2 * n);
    // Spline coefficients of `cnt` point-value lines, then d/dy at the
    // points: d1[i * cnt + f] is line f's derivative at point i.
    auto derive = [&](const cplx* const* lines, std::size_t cnt) {
      const int lanes = 2 * static_cast<int>(cnt);
      pack_panel(lines, cnt, n, c);
      ops.to_coefficients(lanes_of(c), lanes, lanes);
      ops.deriv1_points(lanes_of(c), lanes, lanes_of(d1), lanes, lanes);
    };
    for (std::size_t m = mb; m < me; ++m) {
      cplx* hvm = st.line(hv, m);
      cplx* hgm = st.line(hg, m);
      // Scalar right-hand sides h_theta = -(i kx (u th)^ + d(v th)^/dy +
      // i kz (w th)^), assembled into th_s (free once the products are
      // formed, mirroring h_v / h_g into u_s / v_s); the mean mode feeds
      // <H_theta> = -d<v theta>/dy into hT. The v-fluxes ride panels of
      // up to kPanelLines scalars.
      const bool is_mean = mt.has_mean && m == mt.mean_idx;
      if (mt.skip[m])
        for (auto& sc : st.scalars)
          std::fill_n(st.line(sc.th_s, m), n, cplx{0, 0});
      if (!mt.skip[m] || is_mean) {
        for (std::size_t s0 = 0; s0 < nsc; s0 += kPanelLines) {
          const std::size_t cnt = std::min(kPanelLines, nsc - s0);
          const cplx* qv[kPanelLines];
          for (std::size_t r = 0; r < cnt; ++r)
            qv[r] = st.line(st.scalars[s0 + r].qv, m);
          derive(qv, cnt);
          for (std::size_t r = 0; r < cnt; ++r) {
            auto& sc = st.scalars[s0 + r];
            if (mt.skip[m]) {
              for (std::size_t i = 0; i < n; ++i)
                sc.hT[i] = -d1[i * cnt + r].real();
              continue;
            }
            cplx* hthm = st.line(sc.th_s, m);
            const cplx ikxs{0.0, mt.kx[m]};
            const cplx ikzs{0.0, mt.kz[m]};
            const cplx* pu = st.line(sc.qu, m);
            const cplx* pw = st.line(sc.qw, m);
            for (std::size_t i = 0; i < n; ++i)
              hthm[i] = -(ikxs * pu[i] + d1[i * cnt + r] + ikzs * pw[i]);
          }
        }
      }
      const cplx* p1 = st.line(st.q1, m);
      const cplx* p2 = st.line(st.q2, m);
      const cplx* p3 = st.line(st.q3, m);
      const cplx* p4 = st.line(st.q4, m);
      const cplx* p5 = st.line(st.q5, m);
      if (mt.skip[m]) {
        std::fill_n(hvm, n, cplx{0, 0});
        std::fill_n(hgm, n, cplx{0, 0});
        if (is_mean) {
          // <H1> = -d<uv>/dy, <H3> = -d<vw>/dy (real parts of mode 0).
          const cplx* q24[2] = {p2, p4};
          derive(q24, 2);
          for (std::size_t i = 0; i < n; ++i) {
            st.hU[i] = -d1[2 * i].real();
            st.hW[i] = -d1[2 * i + 1].real();
          }
        }
        continue;
      }
      const double kxm = mt.kx[m], kzm = mt.kz[m];
      const double k2 = kxm * kxm + kzm * kzm;
      const cplx* q[kPanelLines] = {p2, p4, p1, p3, p5};
      derive(q, kPanelLines);
      ops.deriv2_points(lanes_of(c), 2 * kPanelLines, lanes_of(d2), 4, 4);
      const cplx i_unit{0.0, 1.0};
      for (std::size_t i = 0; i < n; ++i) {
        const cplx* di = d1 + i * kPanelLines;
        const cplx d2a = di[0], d4a = di[1], dd1 = di[2], d3 = di[3],
                   d5 = di[4];
        const cplx d2b = d2[2 * i], d4b = d2[2 * i + 1];
        // h_g = kx kz (f1 - f5) + (kz^2 - kx^2) f3
        //       - i kz d(f2)/dy + i kx d(f4)/dy
        hgm[i] = kxm * kzm * (p1[i] - p5[i]) +
                 (kzm * kzm - kxm * kxm) * p3[i] -
                 i_unit * kzm * d2a + i_unit * kxm * d4a;
        // h_v = i k2 (kx f2 + kz f4) - d/dy [ kx^2 f1 + 2 kx kz f3
        //       + kz^2 f5 - i kx d(f2)/dy - i kz d(f4)/dy ]
        hvm[i] = i_unit * k2 * (kxm * p2[i] + kzm * p4[i]) -
                 (kxm * kxm * dd1 + 2.0 * kxm * kzm * d3 +
                  kzm * kzm * d5 - i_unit * kxm * d2b -
                  i_unit * kzm * d4b);
      }
    }
  });
}

}  // namespace pcf::core
