// channel_dns lifecycle and stepping: construction/wiring (via
// channel_dns::impl in simulation_impl.hpp), initial conditions, the step
// entry points and the timing report. Observables live in observables.cpp,
// checkpointing in checkpoint.cpp.
#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/simulation_impl.hpp"
#include "util/rng.hpp"

namespace pcf::core {

channel_dns::channel_dns(const channel_config& cfg, vmpi::communicator& world)
    : impl_((cfg.validate(), new impl(cfg, world))) {}
channel_dns::~channel_dns() = default;

const channel_config& channel_dns::config() const { return impl_->cfg; }
const wall_normal_operators& channel_dns::operators() const {
  return impl_->ops;
}
const pencil::decomp& channel_dns::dec() const { return impl_->d; }

void channel_dns::initialize(double perturbation, std::uint64_t seed) {
  auto& s = *impl_;
  s.ensure_resumed();
  const auto& mt = s.modes;
  s.state.zero();
  const std::size_t n = mt.n;
  const auto& pts = s.ops.points();

  if (mt.has_mean) {
    if (perturbation <= 0.0) {
      // Laminar Poiseuille: U = Re_tau (1 - y^2) / 2 for unit pressure
      // gradient (scaled by the configured forcing) — the exact steady
      // state of the unperturbed discrete system.
      for (std::size_t i = 0; i < n; ++i)
        s.state.c_U[i] =
            s.cfg.forcing * s.cfg.re_tau * 0.5 * (1.0 - pts[i] * pts[i]);
    } else {
      // Perturbed start: a turbulent mean estimate (Reichardt's profile in
      // wall units). Starting from laminar Poiseuille at the same pressure
      // gradient would give a centerline velocity Re_tau/2 — five times
      // the turbulent mean — and violate the convective CFL limit.
      const double kappa = 0.41;
      for (std::size_t i = 0; i < n; ++i) {
        const double yp = (1.0 - std::abs(pts[i])) * s.cfg.re_tau;
        s.state.c_U[i] = s.cfg.forcing *
                         (std::log(1.0 + kappa * yp) / kappa +
                          7.8 * (1.0 - std::exp(-yp / 11.0) -
                                 (yp / 11.0) * std::exp(-yp / 3.0)));
      }
    }
    const auto& scen = s.cfg.scenario;
    if (scen.wall_u_lo != 0.0 || scen.wall_u_hi != 0.0) {
      // Plane Couette contribution: the linear profile carrying the wall
      // velocities rides on top of the pressure-driven base (the laminar
      // steady state of the combined scenario is exactly the
      // superposition). Guarded so the classical channel's start is
      // bit-identical.
      for (std::size_t i = 0; i < n; ++i)
        s.state.c_U[i] += scen.wall_u_lo * 0.5 * (1.0 - pts[i]) +
                          scen.wall_u_hi * 0.5 * (1.0 + pts[i]);
    }
    s.ops.to_coefficients(s.state.c_U.data());
    if (scen.wall_w_lo != 0.0 || scen.wall_w_hi != 0.0) {
      for (std::size_t i = 0; i < n; ++i)
        s.state.c_W[i] = scen.wall_w_lo * 0.5 * (1.0 - pts[i]) +
                         scen.wall_w_hi * 0.5 * (1.0 + pts[i]);
      s.ops.to_coefficients(s.state.c_W.data());
    }
    // Scalar means start on the steady conduction profile (linear between
    // the wall values); fluctuations start at zero and develop through
    // advection by the velocity perturbations.
    for (std::size_t sc = 0; sc < s.state.scalars.size(); ++sc) {
      const auto& spec = scen.scalars[sc];
      auto& th = s.state.scalars[sc].c_T;
      for (std::size_t i = 0; i < n; ++i)
        th[i] = spec.wall_lo * 0.5 * (1.0 - pts[i]) +
                spec.wall_hi * 0.5 * (1.0 + pts[i]);
      s.ops.to_coefficients(th.data());
    }
  }

  if (perturbation > 0.0) {
    // Divergence-free perturbations on low modes with shapes satisfying
    // all boundary conditions: v ~ (1-y^2)^2, omega_y ~ (1-y^2).
    // Deterministic in the *global* mode indices, so any decomposition
    // produces the same field; the kx = 0 plane is kept Hermitian in kz.
    // Amplitude is relative to a nominal turbulent bulk velocity (~15 in
    // friction units).
    const double amp = perturbation * 15.0;
    auto coeffs = [&](std::size_t jx, std::size_t jz) {
      const std::size_t jzc = (s.cfg.nz - jz) % s.cfg.nz;
      const bool conj_plane = (jx == 0) && (jz > jzc);
      const std::size_t jz_eff = conj_plane ? jzc : jz;
      rng r(seed * 0x10001 + jx * 7919 + jz_eff * 104729 + 13);
      cplx a{r.uniform(-1, 1), r.uniform(-1, 1)};
      cplx b{r.uniform(-1, 1), r.uniform(-1, 1)};
      if (jx == 0 && jz == jzc) {  // self-conjugate: must be real
        a = a.real();
        b = b.real();
      }
      if (conj_plane) {
        a = std::conj(a);
        b = std::conj(b);
      }
      return std::pair<cplx, cplx>{a, b};
    };
    workspace_lane::scope scratch(s.ws.shared());
    cplx* vpts = s.ws.shared().alloc<cplx>(n);
    cplx* ompts = s.ws.shared().alloc<cplx>(n);
    cplx* phipts = s.ws.shared().alloc<cplx>(n);
    cplx* v0 = s.ws.shared().alloc<cplx>(n);
    for (std::size_t m = 0; m < mt.nmodes; ++m) {
      if (mt.skip[m]) continue;
      const std::size_t jx = s.d.xs.offset + m / s.d.zs.count;
      const std::size_t jz = s.d.zs.offset + m % s.d.zs.count;
      const long mz = jz < s.cfg.nz / 2
                          ? static_cast<long>(jz)
                          : static_cast<long>(jz) - static_cast<long>(s.cfg.nz);
      if (jx > 2 || std::abs(mz) > 2) continue;
      auto [a, b] = coeffs(jx, jz);
      const double k2 = mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m];
      for (std::size_t i = 0; i < n; ++i) {
        const double y = pts[i];
        const double sv = (1.0 - y * y) * (1.0 - y * y);
        const double so = (1.0 - y * y);
        vpts[i] = amp * a * sv;
        ompts[i] = amp * b * so;
      }
      cplx* cv = s.line(s.state.c_v, m);
      cplx* co = s.line(s.state.c_om, m);
      cplx* cp = s.line(s.state.c_phi, m);
      std::copy_n(vpts, n, cv);
      std::copy_n(ompts, n, co);
      s.ops.to_coefficients(cv);
      s.ops.to_coefficients(co);
      // phi = (D^2 - k^2) v at the points, then back to coefficients.
      s.ops.deriv2_points(cv, phipts);
      s.ops.to_points(cv, v0);
      for (std::size_t i = 0; i < n; ++i) phipts[i] -= k2 * v0[i];
      std::copy_n(phipts, n, cp);
      s.ops.to_coefficients(cp);
    }
  }
  s.time = 0.0;
  s.steps = 0;
}

void channel_dns::step() { impl_->step(); }

void channel_dns::suspend() { impl_->suspend(); }
void channel_dns::resume() { impl_->resume(); }
bool channel_dns::suspended() const { return impl_->suspended_; }

void channel_dns::set_dt(double dt) {
  PCF_REQUIRE(dt > 0.0, "dt must be positive");
  impl_->cfg.dt = dt;
  impl_->invalidate_solvers();
}

void channel_dns::set_cfl_target(double target, double dt_min,
                                 double dt_max) {
  PCF_REQUIRE(target <= 0.0 || (dt_min > 0.0 && dt_max >= dt_min),
              "need 0 < dt_min <= dt_max for an active CFL target");
  impl_->diagnostics.set_cfl_target(target, dt_min, dt_max);
}

double channel_dns::time() const { return impl_->time; }
long channel_dns::step_count() const { return impl_->steps; }
double channel_dns::dt() const { return impl_->cfg.dt; }
double channel_dns::cfl() const { return impl_->state.cfl_global; }

std::string format_phase_tree(const step_timings& t) {
  std::string out = "  stage                       seconds     calls     GFlop"
                    "  GB moved\n";
  char line[128];
  for (const auto& p : t.phases) {
    const std::string name =
        std::string(static_cast<std::size_t>(2 * p.depth), ' ') + p.name;
    std::snprintf(line, sizeof line, "  %-26s %9.3f %9ld %9.3f %9.3f\n",
                  name.c_str(), p.seconds, p.calls,
                  static_cast<double>(p.ops.flops) / 1e9,
                  static_cast<double>(p.ops.bytes_read + p.ops.bytes_written) /
                      1e9);
    out += line;
  }
  return out;
}

step_timings channel_dns::timings() const { return impl_->diagnostics.report(); }

void channel_dns::reset_timings() { impl_->timers.reset(); }

}  // namespace pcf::core
