#include "pencil/pencil.hpp"

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "fft/plan_cache.hpp"
#include "util/aligned.hpp"
#include "util/counters.hpp"
#include "util/thread_pool.hpp"

namespace pcf::pencil {

block block_range(std::size_t n, int p, int r) {
  PCF_REQUIRE(p >= 1 && r >= 0 && r < p, "invalid block decomposition");
  const std::size_t base = n / static_cast<std::size_t>(p);
  const std::size_t rem = n % static_cast<std::size_t>(p);
  const auto ur = static_cast<std::size_t>(r);
  block b;
  b.offset = ur * base + std::min(ur, rem);
  b.count = base + (ur < rem ? 1 : 0);
  return b;
}

decomp::decomp(const grid& gg, const kernel_config& cfg, int pa_, int pb_,
               int ca_, int cb_)
    : g(gg), pa(pa_), pb(pb_), ca(ca_), cb(cb_) {
  PCF_REQUIRE(g.nx % 4 == 0, "nx must be divisible by 4");
  PCF_REQUIRE(g.nz % 2 == 0, "nz must be even");
  PCF_REQUIRE(g.ny >= 1, "ny must be positive");
  nxs = g.nxh() + (cfg.drop_nyquist ? 0 : 1);
  nxf = cfg.dealias ? g.nxp() : g.nx;
  nzf = cfg.dealias ? g.nzp() : g.nz;
  xs = block_range(nxs, pa, ca);
  zs = block_range(g.nz, pb, cb);
  yb = block_range(g.ny, pb, cb);
  zp = block_range(nzf, pa, ca);
}

// ---------------------------------------------------------------------------
//
// Batched layout conventions (nf = fields in the current group):
//
//  * exchange buffers: the per-rank segment for rank q starts at
//    nf * displ[q] and holds the nf fields back to back, field f at
//    nf * displ[q] + f * count[q]. Scaling the seed's dense prefix-sum
//    displacements by nf is all the "extended build_counts()" needed, so
//    all fields ride ONE alltoallv/pairwise exchange per transpose stage.
//  * compute buffers (z-pencil / x-pencil layouts): field f lives at
//    offset f * wstride, where wstride is the seed's single-field
//    workspace size. w1/w2 (and w3 in P3DFFT mode) are allocated
//    max_batch * wstride so both layouts always fit.
//
// With nf == 1 every offset degenerates to the seed's, and every pool loop
// runs the same partition, so the single-field path is bit-identical to
// the pre-batching kernel.

namespace {

/// Elements of one field's single-buffer workspace slot: the max over
/// every intermediate layout a field occupies on its way through the
/// pipeline.
std::size_t slot_elems(const decomp& d) {
  const std::size_t yz_total = d.xs.count * d.g.nz * d.yb.count;
  const std::size_t zx_total = d.nxs * d.yb.count * d.zp.count;
  std::size_t m = d.y_pencil_elems();
  m = std::max(m, yz_total);
  m = std::max(m, d.z_pencil_elems());
  m = std::max(m, zx_total);
  m = std::max(m, d.x_pencil_spec_elems());
  return m;
}

std::size_t round_to_alignment(std::size_t bytes) {
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

/// The kernel functions a transform runs, one timed phase each, in the
/// inverse direction's execution order. Stage B is the y<->z transpose
/// (CommB), stage A the z<->x one (CommA).
enum section : int {
  pack_b, exchange_b, unpack_b, fft_z, pack_a, exchange_a, unpack_a, fft_x,
  n_sections
};
constexpr const char* kSectionName[n_sections] = {
    "pack_b", "exchange_b", "unpack_b", "fft_z",
    "pack_a", "exchange_a", "unpack_a", "fft_x"};

}  // namespace

std::size_t transform_workspace_bytes(const decomp& d,
                                      const kernel_config& cfg) {
  const int nbuf = (!cfg.drop_nyquist && !cfg.dealias) ? 3 : 2;  // P3DFFT: 3x
  const std::size_t wn =
      slot_elems(d) * static_cast<std::size_t>(std::max(1, cfg.max_batch));
  return static_cast<std::size_t>(nbuf) * round_to_alignment(wn * sizeof(cplx));
}

struct parallel_fft::impl {
  decomp d;
  kernel_config cfg;
  vmpi::communicator comm_a;  // copies share the underlying group state
  vmpi::communicator comm_b;

  // Leased from the process-wide plan cache (fft/plan_cache.hpp): N
  // kernels on the same grid — a campaign sweep of identical configs —
  // share one immutable plan per (length, direction) instead of each
  // rebuilding the twiddle tables. Execution is thread-safe, so sharing
  // across concurrently-stepping simulations is sound.
  std::shared_ptr<const fft::c2c_plan> z_fwd, z_inv;
  std::shared_ptr<const fft::r2c_plan> x_fwd;
  std::shared_ptr<const fft::c2r_plan> x_inv;

  thread_pool fft_pool;
  thread_pool reorder_pool;

  // Workspaces. The customized kernel ping-pongs between two buffers; the
  // P3DFFT-mode kernel uses a third (its documented 3x footprint). Each
  // holds max_batch single-field workspaces side by side. Storage is
  // either owned here or borrowed from a caller's workspace lane (the
  // simulation's field_workspace arena) — wbuf abstracts over both.
  struct wbuf {
    cplx* p = nullptr;
    std::size_t n = 0;
    aligned_buffer<cplx> own;

    void reset_owned(std::size_t count) {
      own.reset(count);
      p = own.data();
      n = count;
    }
    void borrow(cplx* q, std::size_t count) {
      p = q;
      n = count;
    }
    [[nodiscard]] cplx* data() { return p; }
    [[nodiscard]] bool empty() const { return n == 0; }
    [[nodiscard]] std::size_t size() const { return n; }
  };
  wbuf w1, w2, w3;
  std::size_t wstride = 0;  // elements of one field's workspace slot
  workspace_lane* ws_ = nullptr;  // borrow source (null = owned buffers)

  // alltoallv counts/displacements, in complex elements (single-field).
  std::vector<std::size_t> sc_yz, sd_yz, rc_yz, rd_yz;  // CommB, y<->z
  std::vector<std::size_t> sc_zx, sd_zx, rc_zx, rd_zx;  // CommA, z<->x

  // Hot-path scratch, sized once at construction so transforms never
  // allocate: batch-scaled counts/displacements for do_exchange_batch
  // (4 * max(pa, pb)).
  std::vector<std::size_t> exch_scratch_;

  // Degenerate transpose stages (slab: pa == 1; 2.5D replica groups keep
  // both > 1 but small). A size-1 communicator's exchange is the identity
  // on the packed buffer, so the drivers forward it straight to the unpack.
  bool skip_a_ = false, skip_b_ = false;

  // The timer the kernel charges (own_timer_ unless re-attached). Each
  // direction's root id is followed by its sections' (root + 1 + s).
  phase_timer own_timer_{false};
  phase_timer* timer_ = &own_timer_;
  phase_timer::id inv_ph_ = -1, fwd_ph_ = -1;

  // Batched-path counters. Written by the rank's own threads only; reads
  // are ordered behind the transform call.
  std::uint64_t transforms_ = 0, fields_ = 0, exchanges_ = 0;
  std::uint64_t reorder_calls_ = 0, reorder_fields_ = 0;

  impl(const grid& g, vmpi::cart2d& cart, kernel_config c,
       workspace_lane* ws)
      : d(g, c, cart.pa(), cart.pb(), cart.coord_a(), cart.coord_b()),
        cfg(c),
        comm_a(cart.comm_a()),
        comm_b(cart.comm_b()),
        z_fwd(fft::shared_c2c(d.nzf, fft::direction::forward)),
        z_inv(fft::shared_c2c(d.nzf, fft::direction::inverse)),
        x_fwd(fft::shared_r2c(d.nxf)),
        x_inv(fft::shared_c2r(d.nxf)),
        fft_pool(std::max(1, c.fft_threads)),
        reorder_pool(std::max(1, c.reorder_threads)) {
    PCF_REQUIRE(cfg.max_batch >= 1, "max_batch must be >= 1");
    PCF_REQUIRE(cfg.pipeline_depth == 1,
                "pipeline_depth must be 1: the comm-thread transform driver "
                "was removed");
    skip_a_ = comm_a.size() == 1;
    skip_b_ = comm_b.size() == 1;
    time_into(own_timer_, -1);
    build_counts();
    exch_scratch_.resize(4 *
                         static_cast<std::size_t>(std::max(d.pa, d.pb)));
    wstride = slot_elems(d);
    const std::size_t wn = wstride * static_cast<std::size_t>(cfg.max_batch);
    const bool p3d = !cfg.drop_nyquist && !cfg.dealias;
    ws_ = ws;
    if (ws != nullptr) {
      // Permanent checkouts from the caller's arena (sized by
      // transform_workspace_bytes).
      w1.borrow(ws->alloc<cplx>(wn), wn);
      w2.borrow(ws->alloc<cplx>(wn), wn);
      if (p3d) w3.borrow(ws->alloc<cplx>(wn), wn);
    } else {
      w1.reset_owned(wn);
      w2.reset_owned(wn);
      if (p3d) w3.reset_owned(wn);
    }
  }

  void time_into(phase_timer& t, phase_timer::id parent) {
    timer_ = &t;
    inv_ph_ = t.add("to_physical", parent);
    for (const char* name : kSectionName) t.add(name, inv_ph_);
    fwd_ph_ = t.add("to_spectral", parent);
    for (const char* name : kSectionName) t.add(name, fwd_ph_);
  }

  /// RAII interval of section `s` under the direction root `dir`.
  phase_timer::section timed(phase_timer::id dir, section s) {
    return {*timer_, dir + 1 + s};
  }

  /// Seconds over the given sections of both directions.
  [[nodiscard]] double seconds(std::initializer_list<section> ss) const {
    double sum = 0.0;
    for (const phase_timer::id dir : {inv_ph_, fwd_ph_})
      for (const section s : ss)
        sum += timer_->phases()[static_cast<std::size_t>(dir + 1 + s)].seconds;
    return sum;
  }

  /// One exchange with either strategy. The pairwise algorithm runs p-1
  /// rounds with partner (rank + r) mod p — the MPI_Sendrecv pattern FFTW's
  /// transpose planner generates.
  void do_exchange(vmpi::communicator& comm, exchange_strategy strat,
                   const cplx* send, const std::size_t* sc,
                   const std::size_t* sd, cplx* recv, const std::size_t* rc,
                   const std::size_t* rd) {
    if (strat == exchange_strategy::alltoall) {
      comm.alltoallv(send, sc, sd, recv, rc, rd);
      return;
    }
    const int p = comm.size();
    const int me = comm.rank();
    std::copy_n(send + sd[me], sc[me],
                recv + rd[me]);  // self block, no communication
    for (int r = 1; r < p; ++r) {
      const int dest = (me + r) % p;
      const int src = (me + p - r) % p;
      comm.exchange(send + sd[dest], sc[dest], dest, recv + rd[src], rc[src]);
    }
  }

  /// Aggregated exchange carrying nf fields: counts and displacements are
  /// the single-field ones scaled by nf (valid because the displacements
  /// are dense prefix sums). The scaled arrays live in the preallocated
  /// exch_scratch_: a transform call is serialized per instance, and every
  /// exchange runs on the calling thread.
  void do_exchange_batch(vmpi::communicator& comm, exchange_strategy strat,
                         const cplx* send, const std::size_t* sc,
                         const std::size_t* sd, cplx* recv,
                         const std::size_t* rc, const std::size_t* rd,
                         std::size_t nf) {
    if (comm.size() == 1) {
      // Degenerate stage (slab / 2.5D layouts): the packed buffer already
      // has the unpack's expected layout (sc[0] == rc[0]), so the exchange
      // is a pure local copy. Not counted as an exchange — the non-P3DFFT
      // drivers skip even this copy by forwarding the packed buffer
      // straight into the unpack.
      std::copy_n(send, nf * sc[0], recv);
      return;
    }
    ++exchanges_;
    if (nf == 1) {
      do_exchange(comm, strat, send, sc, sd, recv, rc, rd);
      return;
    }
    const auto p = static_cast<std::size_t>(comm.size());
    std::size_t* bsc = exch_scratch_.data();
    std::size_t* bsd = bsc + p;
    std::size_t* brc = bsd + p;
    std::size_t* brd = brc + p;
    for (std::size_t q = 0; q < p; ++q) {
      bsc[q] = nf * sc[q];
      bsd[q] = nf * sd[q];
      brc[q] = nf * rc[q];
      brd[q] = nf * rd[q];
    }
    do_exchange(comm, strat, send, bsc, bsd, recv, brc, brd);
  }

  void build_counts() {
    const int pb = d.pb, pa = d.pa;
    sc_yz.resize(static_cast<std::size_t>(pb));
    sd_yz.resize(static_cast<std::size_t>(pb));
    rc_yz.resize(static_cast<std::size_t>(pb));
    rd_yz.resize(static_cast<std::size_t>(pb));
    std::size_t s = 0, r = 0;
    for (int q = 0; q < pb; ++q) {
      const block yq = block_range(d.g.ny, pb, q);
      const block zq = block_range(d.g.nz, pb, q);
      sc_yz[static_cast<std::size_t>(q)] = d.xs.count * d.zs.count * yq.count;
      sd_yz[static_cast<std::size_t>(q)] = s;
      s += sc_yz[static_cast<std::size_t>(q)];
      rc_yz[static_cast<std::size_t>(q)] = d.xs.count * zq.count * d.yb.count;
      rd_yz[static_cast<std::size_t>(q)] = r;
      r += rc_yz[static_cast<std::size_t>(q)];
    }
    sc_zx.resize(static_cast<std::size_t>(pa));
    sd_zx.resize(static_cast<std::size_t>(pa));
    rc_zx.resize(static_cast<std::size_t>(pa));
    rd_zx.resize(static_cast<std::size_t>(pa));
    s = r = 0;
    for (int q = 0; q < pa; ++q) {
      const block zq = block_range(d.nzf, pa, q);
      const block xq = block_range(d.nxs, pa, q);
      sc_zx[static_cast<std::size_t>(q)] = d.xs.count * d.yb.count * zq.count;
      sd_zx[static_cast<std::size_t>(q)] = s;
      s += sc_zx[static_cast<std::size_t>(q)];
      rc_zx[static_cast<std::size_t>(q)] = xq.count * d.yb.count * d.zp.count;
      rd_zx[static_cast<std::size_t>(q)] = r;
      r += rc_zx[static_cast<std::size_t>(q)];
    }
  }

  /// Padded position of spectral z mode zg (3/2-rule: negative modes move
  /// to the end of the padded line).
  [[nodiscard]] std::size_t zpad_pos(std::size_t zg) const {
    return zg < d.g.nz / 2 ? zg : zg + (d.nzf - d.g.nz);
  }

  /// Byte-counter accounting shared by every pack/unpack kernel:
  /// `reads`/`writes` are the per-field element counts; the batch counters
  /// additionally record how wide the fused kernels ran.
  void account(std::size_t reads, std::size_t writes, std::size_t nf) {
    counters::add_read(reads * nf * sizeof(cplx));
    counters::add_written(writes * nf * sizeof(cplx));
    ++reorder_calls_;
    reorder_fields_ += nf;
  }

  // --- inverse path (spectral -> physical) --------------------------------
  //
  // Every reorder kernel widens its thread-pool loop by nf with fields in
  // the inner blocking (index i -> item i/nf, field i%nf), so small
  // per-field pencils still feed all reorder/fft threads.

  void pack_y_to_z(const cplx* const* specs, cplx* send, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, pack_b);
    const std::size_t zc = d.zs.count, ny = d.g.ny;
    const std::size_t* sc = sc_yz.data();
    const std::size_t* sd = sd_yz.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        const cplx* spec = specs[f];
        for (int q = 0; q < d.pb; ++q) {
          const block yq = block_range(ny, d.pb, q);
          cplx* seg = send + nf * sd[q] + f * sc[q];
          for (std::size_t z = 0; z < zc; ++z)
            std::copy_n(spec + (x * zc + z) * ny + yq.offset, yq.count,
                        seg + (x * zc + z) * yq.count);
        }
      }
    });
    account(d.y_pencil_elems(), d.y_pencil_elems(), nf);
  }

  void unpack_z_pencil(const cplx* recv, cplx* zbuf, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, unpack_b);
    const std::size_t yc = d.yb.count, nzf = d.nzf, nzg = d.g.nz;
    const bool dealias = nzf > nzg;
    const std::size_t* rc = rc_yz.data();
    const std::size_t* rd = rd_yz.data();
    // Zero the dealiasing gap once per line. The gap also swallows the
    // spanwise Nyquist mode nz/2: on the padded grid +nz/2 and -nz/2 are
    // distinct modes, so the (self-conjugate) Nyquist coefficient is not
    // representable and is dropped, as in the paper (Section 4.4).
    if (dealias) {
      reorder_pool.run(d.xs.count * yc * nf,
                       [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const std::size_t l = i / nf, f = i % nf;
          std::fill_n(zbuf + f * wstride + l * nzf + nzg / 2, nzf - nzg + 1,
                      cplx{0.0, 0.0});
        }
      });
    }
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pb; ++q) {
          const block zq = block_range(nzg, d.pb, q);
          const cplx* seg = recv + nf * rd[q] + f * rc[q];
          for (std::size_t zl = 0; zl < zq.count; ++zl) {
            const std::size_t zg = zq.offset + zl;
            if (dealias && zg == nzg / 2) continue;  // dropped Nyquist
            const std::size_t zp = zpad_pos(zg);
            const cplx* src = seg + (x * zq.count + zl) * yc;
            for (std::size_t y = 0; y < yc; ++y)
              zb[(x * yc + y) * nzf + zp] = src[y];
          }
        }
      }
    });
    account(d.xs.count * nzg * yc, d.z_pencil_elems(), nf);
  }

  void pack_z_to_x(const cplx* zbuf, cplx* send, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, pack_a);
    const std::size_t yc = d.yb.count, nzf = d.nzf;
    const std::size_t* sc = sc_zx.data();
    const std::size_t* sd = sd_zx.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        const cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block zq = block_range(nzf, d.pa, q);
          cplx* seg = send + nf * sd[q] + f * sc[q];
          for (std::size_t y = 0; y < yc; ++y)
            std::copy_n(zb + (x * yc + y) * nzf + zq.offset, zq.count,
                        seg + (x * yc + y) * zq.count);
        }
      }
    });
    account(d.z_pencil_elems(), d.z_pencil_elems(), nf);
  }

  void unpack_x_pencil(const cplx* recv, cplx* xbuf, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, unpack_a);
    const std::size_t yc = d.yb.count, zc = d.zp.count;
    const std::size_t modes = d.x_line_modes();
    const std::size_t* rc = rc_zx.data();
    const std::size_t* rd = rd_zx.data();
    // Zero the dealiasing pad region of each x line.
    if (modes > d.nxs) {
      reorder_pool.run(zc * yc * nf, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const std::size_t l = i / nf, f = i % nf;
          std::fill_n(xbuf + f * wstride + l * modes + d.nxs, modes - d.nxs,
                      cplx{0.0, 0.0});
        }
      });
    }
    reorder_pool.run(zc * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t z = i / nf, f = i % nf;
        cplx* xb = xbuf + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block xq = block_range(d.nxs, d.pa, q);
          const cplx* seg = recv + nf * rd[q] + f * rc[q];
          // y outer / xl inner: the xb writes are unit-stride in xl, so
          // this loop vectorizes as a strided gather + contiguous store.
          for (std::size_t y = 0; y < yc; ++y) {
            cplx* dst = xb + (z * yc + y) * modes + xq.offset;
            const cplx* src = seg + y * zc + z;
            for (std::size_t xl = 0; xl < xq.count; ++xl)
              dst[xl] = src[xl * yc * zc];
          }
        }
      }
    });
    account(d.nxs * yc * zc, d.x_pencil_spec_elems(), nf);
  }

  // --- forward path (physical -> spectral) --------------------------------

  void pack_x_to_z(const cplx* xspec, cplx* send, std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, pack_a);
    const std::size_t yc = d.yb.count, zc = d.zp.count;
    const std::size_t modes = d.x_line_modes();
    const std::size_t* rc = rc_zx.data();
    const std::size_t* rd = rd_zx.data();
    reorder_pool.run(zc * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t z = i / nf, f = i % nf;
        const cplx* xb = xspec + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block xq = block_range(d.nxs, d.pa, q);
          cplx* seg = send + nf * rd[q] + f * rc[q];
          // Mirror of unpack_x_pencil: contiguous loads in xl, strided
          // scatter stores.
          for (std::size_t y = 0; y < yc; ++y) {
            const cplx* src = xb + (z * yc + y) * modes + xq.offset;
            cplx* dst = seg + y * zc + z;
            for (std::size_t xl = 0; xl < xq.count; ++xl)
              dst[xl * yc * zc] = src[xl];
          }
        }
      }
    });
    account(d.nxs * yc * zc, d.nxs * yc * zc, nf);
  }

  void unpack_z_from_x(const cplx* recv, cplx* zbuf, std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, unpack_a);
    const std::size_t yc = d.yb.count, nzf = d.nzf;
    const std::size_t* sc = sc_zx.data();
    const std::size_t* sd = sd_zx.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pa; ++q) {
          const block zq = block_range(nzf, d.pa, q);
          const cplx* seg = recv + nf * sd[q] + f * sc[q];
          for (std::size_t y = 0; y < yc; ++y)
            std::copy_n(seg + (x * yc + y) * zq.count, zq.count,
                        zb + (x * yc + y) * nzf + zq.offset);
        }
      }
    });
    account(d.z_pencil_elems(), d.z_pencil_elems(), nf);
  }

  void pack_z_to_y(const cplx* zbuf, cplx* send, double scale,
                   std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, pack_b);
    const std::size_t yc = d.yb.count, nzf = d.nzf, nzg = d.g.nz;
    const std::size_t* rc = rc_yz.data();
    const std::size_t* rd = rd_yz.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        const cplx* zb = zbuf + f * wstride;
        for (int q = 0; q < d.pb; ++q) {
          const block zq = block_range(nzg, d.pb, q);
          cplx* seg = send + nf * rd[q] + f * rc[q];
          for (std::size_t zl = 0; zl < zq.count; ++zl) {
            const std::size_t zg = zq.offset + zl;
            cplx* dst = seg + (x * zq.count + zl) * yc;
            if (nzf > nzg && zg == nzg / 2) {  // dropped Nyquist
              std::fill_n(dst, yc, cplx{0.0, 0.0});
              continue;
            }
            const std::size_t zp = zpad_pos(zg);
            for (std::size_t y = 0; y < yc; ++y)
              dst[y] = zb[(x * yc + y) * nzf + zp] * scale;
          }
        }
      }
    });
    account(d.xs.count * nzg * yc, d.xs.count * nzg * yc, nf);
  }

  void unpack_y_pencil(const cplx* recv, cplx* const* specs, std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, unpack_b);
    const std::size_t zc = d.zs.count, ny = d.g.ny;
    const std::size_t* sc = sc_yz.data();
    const std::size_t* sd = sd_yz.data();
    reorder_pool.run(d.xs.count * nf, [&](std::size_t ib, std::size_t ie) {
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t x = i / nf, f = i % nf;
        cplx* spec = specs[f];
        for (int q = 0; q < d.pb; ++q) {
          const block yq = block_range(ny, d.pb, q);
          const cplx* seg = recv + nf * sd[q] + f * sc[q];
          for (std::size_t z = 0; z < zc; ++z)
            std::copy_n(seg + (x * zc + z) * yq.count, yq.count,
                        spec + (x * zc + z) * ny + yq.offset);
        }
      }
    });
    account(d.y_pencil_elems(), d.y_pencil_elems(), nf);
  }

  // --- FFT stages ----------------------------------------------------------
  //
  // The line loops are widened to lines * nf and re-split at field
  // boundaries, so a chunk never spans two fields' workspace slots.

  void z_fft(cplx* zbuf, const fft::c2c_plan& plan, phase_timer::id dir,
             std::size_t nf) {
    const auto time_sec = timed(dir, fft_z);
    const std::size_t lines = d.xs.count * d.yb.count;
    const std::size_t len = d.nzf;
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        cplx* base = zbuf + f * wstride + l0 * len;
        plan.execute_many(base, len, base, len, cnt);
        b += cnt;
      }
    });
  }

  void x_c2r(const cplx* xspec, double* const* phys, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, fft_x);
    const std::size_t lines = d.zp.count * d.yb.count;
    const std::size_t modes = d.x_line_modes();
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        x_inv->execute_many(xspec + f * wstride + l0 * modes, modes,
                           phys[f] + l0 * d.nxf, d.nxf, cnt);
        b += cnt;
      }
    });
  }

  void x_r2c(const double* const* phys, cplx* xspec, std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, fft_x);
    const std::size_t lines = d.zp.count * d.yb.count;
    const std::size_t modes = d.x_line_modes();
    fft_pool.run(lines * nf, [&](std::size_t b, std::size_t e) {
      while (b < e) {
        const std::size_t f = b / lines, l0 = b % lines;
        const std::size_t cnt = std::min(e - b, lines - l0);
        x_fwd->execute_many(phys[f] + l0 * d.nxf, d.nxf,
                           xspec + f * wstride + l0 * modes, modes, cnt);
        b += cnt;
      }
    });
  }

  // --- transposes (communication) ------------------------------------------

  void a2a_yz(const cplx* send, cplx* recv, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, exchange_b);
    do_exchange_batch(comm_b, cfg.strategy_b, send, sc_yz.data(),
                      sd_yz.data(), recv, rc_yz.data(), rd_yz.data(), nf);
  }
  void a2a_zy(const cplx* send, cplx* recv, std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, exchange_b);
    do_exchange_batch(comm_b, cfg.strategy_b, send, rc_yz.data(),
                      rd_yz.data(), recv, sc_yz.data(), sd_yz.data(), nf);
  }
  void a2a_zx(const cplx* send, cplx* recv, std::size_t nf) {
    const auto time_sec = timed(inv_ph_, exchange_a);
    do_exchange_batch(comm_a, cfg.strategy_a, send, sc_zx.data(),
                      sd_zx.data(), recv, rc_zx.data(), rd_zx.data(), nf);
  }
  void a2a_xz(const cplx* send, cplx* recv, std::size_t nf) {
    const auto time_sec = timed(fwd_ph_, exchange_a);
    do_exchange_batch(comm_a, cfg.strategy_a, send, rc_zx.data(),
                      rd_zx.data(), recv, sc_zx.data(), sd_zx.data(), nf);
  }

  // --- batched drivers -----------------------------------------------------

  void to_physical_batch(const cplx* const* specs, double* const* phys,
                         std::size_t nf) {
    PCF_REQUIRE(nf >= 1, "batch needs at least one field");
    const phase_timer::section time_sec(*timer_, inv_ph_);
    ++transforms_;
    fields_ += nf;
    const auto mb = static_cast<std::size_t>(cfg.max_batch);
    for (std::size_t f0 = 0; f0 < nf; f0 += mb)
      inverse_chunk(specs + f0, phys + f0, std::min(mb, nf - f0));
  }

  void to_spectral_batch(const double* const* phys, cplx* const* specs,
                         std::size_t nf) {
    PCF_REQUIRE(nf >= 1, "batch needs at least one field");
    const phase_timer::section time_sec(*timer_, fwd_ph_);
    ++transforms_;
    fields_ += nf;
    const auto mb = static_cast<std::size_t>(cfg.max_batch);
    for (std::size_t f0 = 0; f0 < nf; f0 += mb)
      forward_chunk(phys + f0, specs + f0, std::min(mb, nf - f0));
  }

  void inverse_chunk(const cplx* const* specs, double* const* phys,
                     std::size_t nf) {
    cplx* a = w1.data();
    cplx* b = w2.data();
    pack_y_to_z(specs, a, nf);
    if (w3.empty()) {
      // Degenerate stages (size-1 communicator) skip the exchange AND the
      // copy: the packed buffer feeds the unpack directly, and the usual
      // ping-pong rotation is suppressed for that stage.
      cplx* zsrc = a;
      cplx* zdst = b;
      if (!skip_b_) {
        a2a_yz(a, b, nf);
        zsrc = b;
        zdst = a;
      }
      unpack_z_pencil(zsrc, zdst, nf);
      z_fft(zdst, *z_inv, inv_ph_, nf);
      pack_z_to_x(zdst, zsrc, nf);
      cplx* xsrc = zsrc;
      cplx* xdst = zdst;
      if (!skip_a_) {
        a2a_zx(zsrc, zdst, nf);
        xsrc = zdst;
        xdst = zsrc;
      }
      unpack_x_pencil(xsrc, xdst, nf);
      x_c2r(xdst, phys, nf);
    } else {
      // P3DFFT-style: dedicated buffers per stage (3x footprint).
      cplx* c = w3.data();
      a2a_yz(a, b, nf);
      unpack_z_pencil(b, c, nf);
      z_fft(c, *z_inv, inv_ph_, nf);
      pack_z_to_x(c, a, nf);
      a2a_zx(a, b, nf);
      unpack_x_pencil(b, c, nf);
      x_c2r(c, phys, nf);
    }
  }

  void forward_chunk(const double* const* phys, cplx* const* specs,
                     std::size_t nf) {
    cplx* a = w1.data();
    cplx* b = w2.data();
    const double scale =
        1.0 / (static_cast<double>(d.nxf) * static_cast<double>(d.nzf));
    x_r2c(phys, a, nf);
    if (w3.empty()) {
      // Mirror of inverse_chunk: degenerate stages forward the packed
      // buffer into the unpack, suppressing that stage's ping-pong.
      pack_x_to_z(a, b, nf);
      cplx* zsrc = b;
      cplx* zdst = a;
      if (!skip_a_) {
        a2a_xz(b, a, nf);
        zsrc = a;
        zdst = b;
      }
      unpack_z_from_x(zsrc, zdst, nf);
      z_fft(zdst, *z_fwd, fwd_ph_, nf);
      pack_z_to_y(zdst, zsrc, scale, nf);
      const cplx* ysrc = zsrc;
      if (!skip_b_) {
        a2a_zy(zsrc, zdst, nf);
        ysrc = zdst;
      }
      unpack_y_pencil(ysrc, specs, nf);
    } else {
      cplx* c = w3.data();
      pack_x_to_z(a, b, nf);
      a2a_xz(b, c, nf);
      unpack_z_from_x(c, a, nf);
      z_fft(a, *z_fwd, fwd_ph_, nf);
      pack_z_to_y(a, b, scale, nf);
      a2a_zy(b, c, nf);
      unpack_y_pencil(c, specs, nf);
    }
  }
};

parallel_fft::parallel_fft(const grid& g, vmpi::cart2d& cart,
                           kernel_config cfg)
    : impl_(new impl(g, cart, cfg, nullptr)) {}
parallel_fft::parallel_fft(const grid& g, vmpi::cart2d& cart,
                           kernel_config cfg, workspace_lane& transform_ws)
    : impl_(new impl(g, cart, cfg, &transform_ws)) {}
parallel_fft::~parallel_fft() = default;

const decomp& parallel_fft::dec() const { return impl_->d; }
const kernel_config& parallel_fft::config() const { return impl_->cfg; }

void parallel_fft::to_physical(const cplx* spec, double* phys) {
  const cplx* specs[1] = {spec};
  double* physv[1] = {phys};
  impl_->to_physical_batch(specs, physv, 1);
}
void parallel_fft::to_spectral(const double* phys, cplx* spec) {
  const double* physv[1] = {phys};
  cplx* specs[1] = {spec};
  impl_->to_spectral_batch(physv, specs, 1);
}

void parallel_fft::to_physical_batch(const cplx* const* specs,
                                     double* const* phys,
                                     std::size_t nfields) {
  impl_->to_physical_batch(specs, phys, nfields);
}
void parallel_fft::to_spectral_batch(const double* const* phys,
                                     cplx* const* specs,
                                     std::size_t nfields) {
  impl_->to_spectral_batch(phys, specs, nfields);
}

batch_stats parallel_fft::batching() const {
  batch_stats s;
  s.transforms = impl_->transforms_;
  s.fields = impl_->fields_;
  s.exchanges = impl_->exchanges_;
  s.reorder_calls = impl_->reorder_calls_;
  s.reorder_fields = impl_->reorder_fields_;
  return s;
}

std::size_t parallel_fft::workspace_bytes() const {
  return (impl_->w1.size() + impl_->w2.size() + impl_->w3.size()) *
         sizeof(cplx);
}

void parallel_fft::rebind_workspace() {
  auto& im = *impl_;
  PCF_REQUIRE(im.ws_ != nullptr,
              "rebind_workspace: this kernel owns its buffers (no lane to "
              "rebind from)");
  const std::size_t wn =
      im.wstride * static_cast<std::size_t>(im.cfg.max_batch);
  im.w1.borrow(im.ws_->alloc<cplx>(wn), wn);
  im.w2.borrow(im.ws_->alloc<cplx>(wn), wn);
  if (!im.w3.empty()) im.w3.borrow(im.ws_->alloc<cplx>(wn), wn);
}

void parallel_fft::time_into(phase_timer& timer, phase_timer::id parent) {
  impl_->time_into(timer, parent);
}
phase_timer& parallel_fft::timer() { return *impl_->timer_; }

double parallel_fft::comm_seconds() const {
  return impl_->seconds({exchange_a, exchange_b});
}
double parallel_fft::reorder_seconds() const {
  return impl_->seconds({pack_a, unpack_a, pack_b, unpack_b});
}
double parallel_fft::fft_seconds() const {
  return impl_->seconds({fft_z, fft_x});
}

}  // namespace pcf::pencil
