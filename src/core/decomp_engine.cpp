#include "core/decomp_engine.hpp"

#include <utility>

#include "core/transfer.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "obs/telemetry.hpp"
#include "perfmodel/halo.hpp"
#include "util/timer.hpp"

namespace smg {

namespace {

/// Extract box `s`'s local matrix from the level's global stored matrix:
/// interior rows are copied verbatim (every neighbor of an interior cell is
/// inside interior+ghost because the ghost width covers the stencil radius,
/// and at the clipped global boundary local bounds coincide with global
/// bounds — so the out-of-box-zero invariant carries over), ghost rows are
/// identity (diag 1 — exactly representable in every storage precision —
/// and zero elsewhere, which the zero-initializing constructor provides).
template <class ST>
AnyMat make_local_matrix(const StructMat<ST>& g, const SubBox& s) {
  StructMat<ST> m(s.local(), g.stencil(), g.block_size(), g.layout());
  const int bs = g.block_size();
  const int nd = g.stencil().ndiag();
  const int cd = g.stencil().center();
  SMG_CHECK(cd >= 0, "decomposed level matrix needs a center diagonal");
  const Box lb = s.local();
  const ST one = static_cast<ST>(1.0f);
  for (int k = 0; k < lb.nz; ++k) {
    const int gk = k + s.off(2);
    const bool kin = gk >= s.lo[2] && gk < s.lo[2] + s.n[2];
    for (int j = 0; j < lb.ny; ++j) {
      const int gj = j + s.off(1);
      const bool jin = gj >= s.lo[1] && gj < s.lo[1] + s.n[1];
      for (int i = 0; i < lb.nx; ++i) {
        const int gi = i + s.off(0);
        const bool interior =
            kin && jin && gi >= s.lo[0] && gi < s.lo[0] + s.n[0];
        if (interior) {
          for (int d = 0; d < nd; ++d) {
            for (int br = 0; br < bs; ++br) {
              for (int bc = 0; bc < bs; ++bc) {
                m.at_ijk(i, j, k, d, br, bc) =
                    g.at_ijk(gi, gj, gk, d, br, bc);
              }
            }
          }
        } else {
          for (int br = 0; br < bs; ++br) {
            m.at_ijk(i, j, k, cd, br, br) = one;
          }
        }
      }
    }
  }
  return AnyMat(std::move(m));
}

/// Per-box restriction: coarse box `cs`'s interior dofs gather their fine
/// children from fine box `fs`'s interior+ghost storage.  Child enumeration
/// order, weights, and static_cast<CT>(w) match restrict_to_coarse exactly,
/// so each coarse dof's value is bitwise identical to the global kernel's.
template <class CT>
void boxed_restrict(const Coarsening& c, int bs, const SubBox& fs,
                    const CT* rf, const SubBox& cs, CT* fc) {
  const Box fl = fs.local();
  const Box cl = cs.local();
  const double rscale = c.restrict_scale();
  for (int K = cs.lo[2]; K < cs.lo[2] + cs.n[2]; ++K) {
    const auto ck = detail::children_of(K, c.fine.nz, c.mask[2]);
    for (int J = cs.lo[1]; J < cs.lo[1] + cs.n[1]; ++J) {
      const auto cj = detail::children_of(J, c.fine.ny, c.mask[1]);
      for (int I = cs.lo[0]; I < cs.lo[0] + cs.n[0]; ++I) {
        const auto ci = detail::children_of(I, c.fine.nx, c.mask[0]);
        CT* dst =
            fc + cl.idx(I - cs.off(0), J - cs.off(1), K - cs.off(2)) * bs;
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int a = 0; a < ck.count; ++a) {
            for (int b = 0; b < cj.count; ++b) {
              for (int cidx = 0; cidx < ci.count; ++cidx) {
                const double w = rscale * ck.w[a] * cj.w[b] * ci.w[cidx];
                const std::int64_t fcell =
                    fl.idx(ci.idx[cidx] - fs.off(0), cj.idx[b] - fs.off(1),
                           ck.idx[a] - fs.off(2));
                acc += static_cast<CT>(w) * rf[fcell * bs + br];
              }
            }
          }
          dst[br] = acc;
        }
      }
    }
  }
}

/// A sub-box's storage (interior + ghosts) as a transfer-kernel view.
GridView view_of(const SubBox& s) {
  return GridView{s.local(), {s.off(0), s.off(1), s.off(2)}};
}

}  // namespace

template <class CT>
DecompEngine<CT>::DecompEngine(const MGHierarchy* h, std::array<int, 3> nb,
                               bool halo_fp16)
    : h_(h), shape_(h->config().cycle), pool_(&ThreadPool::global()) {
  wire_bytes_ = halo_fp16 ? sizeof(half) : sizeof(CT);
  const std::vector<BoxDecomp> chain =
      decomp_chain(*h_, nb, h_->config().decomp_min_box);
  levels_.resize(chain.size());
  for (std::size_t l = 0; l < chain.size(); ++l) {
    levels_[l].decomp = chain[l];
    levels_[l].boxed = chain[l].decomposed();
  }
  if (!active()) {
    return;  // the problem agglomerated away — caller falls back
  }
  for (int l = 0; l < h_->nlevels(); ++l) {
    build_level(l);
  }
  // Service metrics: register the boxed levels' halo series once (cold
  // path) and pin the perfmodel's exact bytes-per-exchange prediction next
  // to the measured counters, so a scrape can check achieved == model.
  if (obs::metrics_enabled()) {
    const std::vector<HaloLevelModel> model =
        model_halo(*h_, nb, h_->config().decomp_min_box);
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      if (!levels_[l].boxed) {
        continue;
      }
      levels_[l].metrics = obs::halo_level_metrics(static_cast<int>(l));
      if (l < model.size() &&
          levels_[l].metrics.model_bytes_per_exchange != nullptr) {
        levels_[l].metrics.model_bytes_per_exchange->set(
            static_cast<double>(model[l].values_per_exchange) *
            static_cast<double>(wire_bytes_));
      }
    }
  }
  if (h_->finest_wrapped()) {
    const auto& q2 = h_->finest_q2();
    wrap_q2_.resize(q2.size());
    copy_convert<CT, double>({q2.data(), q2.size()},
                             {wrap_q2_.data(), wrap_q2_.size()});
  }
}

template <class CT>
void DecompEngine<CT>::build_level(int l) {
  const Level& hl = h_->level(l);
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  const std::size_t n = static_cast<std::size_t>(hl.A_full.nrows());
  // Global working set: the whole storage of an unboxed level; on boxed
  // levels u/f carry the apply entry/exit (level 0) and r is the gather
  // scratch for the restriction across the agglomeration boundary.
  D.u.assign(n, CT{0});
  D.f.assign(n, CT{0});
  D.r.assign(n, CT{0});
  if (!D.boxed) {
    refresh_global(l);
    return;
  }
  D.plan = HaloPlan(D.decomp, hl.A_full.block_size());
  D.hx.init(&D.plan, wire_bytes_);
  D.boxes.clear();
  D.boxes.resize(static_cast<std::size_t>(D.decomp.nboxes()));
  pool_->run(D.decomp.nboxes(), [&](int b) { build_box(l, b); });
}

template <class CT>
void DecompEngine<CT>::build_box(int l, int b) {
  const Level& hl = h_->level(l);
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  const SubBox& s = D.decomp.box(b);
  BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
  const Box lb = s.local();
  const int bs = hl.A_full.block_size();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const std::size_t nloc = static_cast<std::size_t>(lb.size()) * bs;
  const Box& g = hl.A_full.box();

  bd.u.assign(nloc, CT{0});
  bd.f.assign(nloc, CT{0});
  bd.r.assign(nloc, CT{0});

  hl.A_stored.visit(
      [&](const auto& gm) { bd.A = make_local_matrix(gm, s); });

  // Smoother diagonal-block inverses: interior blocks converted from the
  // level's FP64 inverses, identity blocks at ghosts.
  bd.invdiag.assign(static_cast<std::size_t>(lb.size() * block2), CT{0});
  for (std::int64_t cell = 0; cell < lb.size(); ++cell) {
    CT* blk = bd.invdiag.data() + cell * block2;
    for (int br = 0; br < bs; ++br) {
      blk[br * bs + br] = CT{1};
    }
  }
  for (int ik = 0; ik < s.n[2]; ++ik) {
    for (int ij = 0; ij < s.n[1]; ++ij) {
      for (int ii = 0; ii < s.n[0]; ++ii) {
        const std::int64_t lcell = s.local_idx(ii, ij, ik);
        const std::int64_t gcell =
            g.idx(s.lo[0] + ii, s.lo[1] + ij, s.lo[2] + ik);
        for (std::int64_t q = 0; q < block2; ++q) {
          bd.invdiag[static_cast<std::size_t>(lcell * block2 + q)] =
              static_cast<CT>(hl.invdiag[static_cast<std::size_t>(
                  gcell * block2 + q)]);
        }
      }
    }
  }

  // Scaled levels: local q2 with 1 at ghost dofs (the identity-row value).
  if (hl.scaled) {
    bd.q2.assign(nloc, CT{1});
    for (int ik = 0; ik < s.n[2]; ++ik) {
      for (int ij = 0; ij < s.n[1]; ++ij) {
        for (int ii = 0; ii < s.n[0]; ++ii) {
          const std::int64_t lrow = s.local_idx(ii, ij, ik) * bs;
          const std::int64_t grow =
              g.idx(s.lo[0] + ii, s.lo[1] + ij, s.lo[2] + ik) * bs;
          for (int c = 0; c < bs; ++c) {
            bd.q2[static_cast<std::size_t>(lrow + c)] =
                static_cast<CT>(hl.q2[static_cast<std::size_t>(grow + c)]);
          }
        }
      }
    }
  } else {
    bd.q2.clear();
  }
}

template <class CT>
void DecompEngine<CT>::refresh_global(int l) {
  const Level& hl = h_->level(l);
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  if (hl.scaled) {
    D.q2.resize(hl.q2.size());
    copy_convert<CT, double>({hl.q2.data(), hl.q2.size()},
                             {D.q2.data(), D.q2.size()});
  }
  D.invdiag.resize(hl.invdiag.size());
  copy_convert<CT, double>({hl.invdiag.data(), hl.invdiag.size()},
                           {D.invdiag.data(), D.invdiag.size()});
}

template <class CT>
void DecompEngine<CT>::refresh_level(int l) {
  DLevel& D = levels_[static_cast<std::size_t>(l)];
  if (!D.boxed) {
    refresh_global(l);
    return;
  }
  pool_->run(D.decomp.nboxes(), [&](int b) { build_box(l, b); });
}

template <class CT>
void DecompEngine<CT>::exchange(int lev, bool residual_field) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const obs::LevelScope ls(lev);
  std::vector<BoxData>& boxes = D.boxes;
  const std::function<CT*(int)> field =
      [&boxes, residual_field](int b) -> CT* {
    BoxData& bd = boxes[static_cast<std::size_t>(b)];
    return residual_field ? bd.r.data() : bd.u.data();
  };
  const bool metered =
      D.metrics.wire_bytes != nullptr && obs::metrics_enabled();
  double pack_seconds = 0.0;
  double unpack_seconds = 0.0;
  {
    const obs::KernelSpan span(obs::Kind::HaloPack);
    const Timer t;
    D.hx.template pack_and_transport<CT>(field, *pool_, ex_);
    if (metered) {
      pack_seconds = t.seconds();
    }
  }
  {
    const obs::KernelSpan span(obs::Kind::HaloUnpack);
    const Timer t;
    D.hx.template unpack<CT>(field, *pool_);
    if (metered) {
      unpack_seconds = t.seconds();
    }
  }
  if (obs::Telemetry* t = obs::current()) {
    t->record_halo(lev, D.hx.bytes_per_exchange());
  }
  if (metered) {
    D.metrics.wire_bytes->add(
        static_cast<double>(D.hx.bytes_per_exchange()));
    D.metrics.exchanges->inc();
    D.metrics.pack_seconds->add(pack_seconds);
    D.metrics.unpack_seconds->add(unpack_seconds);
  }
}

template <class CT>
void DecompEngine<CT>::refresh_ghost_rhs(int lev, int b) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const SubBox& s = D.decomp.box(b);
  const Box lb = s.local();
  if (lb.size() == s.interior_cells()) {
    return;  // clipped on all sides: no ghosts
  }
  BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
  const int bs = h_->level(lev).A_full.block_size();
  for (int k = 0; k < lb.nz; ++k) {
    const bool kin = k >= s.glo[2] && k < s.glo[2] + s.n[2];
    for (int j = 0; j < lb.ny; ++j) {
      const bool jin = kin && j >= s.glo[1] && j < s.glo[1] + s.n[1];
      for (int i = 0; i < lb.nx; ++i) {
        if (jin && i >= s.glo[0] && i < s.glo[0] + s.n[0]) {
          continue;  // interior row: keep the real rhs
        }
        const std::int64_t row = lb.idx(i, j, k) * bs;
        for (int c = 0; c < bs; ++c) {
          bd.f[static_cast<std::size_t>(row + c)] =
              bd.u[static_cast<std::size_t>(row + c)];
        }
      }
    }
  }
}

template <class CT>
void DecompEngine<CT>::scatter_to_boxes(int lev, std::span<const CT> src) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const Level& hl = h_->level(lev);
  const Box& g = hl.A_full.box();
  const int bs = hl.A_full.block_size();
  pool_->run(D.decomp.nboxes(), [&](int b) {
    const SubBox& s = D.decomp.box(b);
    BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
    const std::int64_t nv = static_cast<std::int64_t>(s.n[0]) * bs;
    for (int ik = 0; ik < s.n[2]; ++ik) {
      for (int ij = 0; ij < s.n[1]; ++ij) {
        const std::int64_t lrow = s.local_idx(0, ij, ik) * bs;
        const std::int64_t grow =
            g.idx(s.lo[0], s.lo[1] + ij, s.lo[2] + ik) * bs;
        for (std::int64_t t = 0; t < nv; ++t) {
          bd.f[static_cast<std::size_t>(lrow + t)] =
              src[static_cast<std::size_t>(grow + t)];
        }
      }
    }
  });
}

template <class CT>
void DecompEngine<CT>::gather_interiors(int lev,
                                        const avec<CT> BoxData::*field,
                                        std::span<CT> dst) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const Level& hl = h_->level(lev);
  const Box& g = hl.A_full.box();
  const int bs = hl.A_full.block_size();
  pool_->run(D.decomp.nboxes(), [&](int b) {
    const SubBox& s = D.decomp.box(b);
    const avec<CT>& bf = D.boxes[static_cast<std::size_t>(b)].*field;
    const std::int64_t nv = static_cast<std::int64_t>(s.n[0]) * bs;
    for (int ik = 0; ik < s.n[2]; ++ik) {
      for (int ij = 0; ij < s.n[1]; ++ij) {
        const std::int64_t lrow = s.local_idx(0, ij, ik) * bs;
        const std::int64_t grow =
            g.idx(s.lo[0], s.lo[1] + ij, s.lo[2] + ik) * bs;
        for (std::int64_t t = 0; t < nv; ++t) {
          dst[static_cast<std::size_t>(grow + t)] =
              bf[static_cast<std::size_t>(lrow + t)];
        }
      }
    }
  });
}

template <class CT>
void DecompEngine<CT>::smooth_boxed(int lev, bool forward) {
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const MGConfig& cfg = h_->config();
  exchange(lev, /*residual_field=*/false);
  const CT w = static_cast<CT>(cfg.jacobi_weight);
  const bool symgs = cfg.smoother == SmootherType::SymGS;
  pool_->run(D.decomp.nboxes(), [&](int b) {
    const obs::LevelScope ls(lev);
    BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
    refresh_ghost_rhs(lev, b);
    const CT* q2 = bd.q2.empty() ? nullptr : bd.q2.data();
    std::span<const CT> f{bd.f.data(), bd.f.size()};
    std::span<const CT> invd{bd.invdiag.data(), bd.invdiag.size()};
    if (symgs) {
      // Per-box sequential sweep (no per-box wavefront schedule): block-
      // Jacobi coupling between boxes through the exchanged halos.
      std::span<CT> u{bd.u.data(), bd.u.size()};
      bd.A.visit([&](const auto& m) {
        if (forward) {
          gs_forward(m, f, u, invd, q2, nullptr);
        } else {
          gs_backward(m, f, u, invd, q2, nullptr);
        }
      });
    } else {
      bd.A.visit([&](const auto& m) {
        jacobi_sweep_fused(m, f,
                           std::span<const CT>{bd.u.data(), bd.u.size()},
                           invd, q2, w,
                           std::span<CT>{bd.r.data(), bd.r.size()});
      });
      std::swap(bd.u, bd.r);
    }
  });
}

template <class CT>
void DecompEngine<CT>::smooth_global(int lev, bool forward) {
  const Level& hl = h_->level(lev);
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const MGConfig& cfg = h_->config();
  const CT* q2 = D.q2.empty() ? nullptr : D.q2.data();
  std::span<const CT> f{D.f.data(), D.f.size()};
  std::span<CT> u{D.u.data(), D.u.size()};
  std::span<const CT> invdiag{D.invdiag.data(), D.invdiag.size()};
  if (cfg.smoother == SmootherType::SymGS) {
    const WavefrontSchedule* wf =
        hl.smoother_wf.valid() ? &hl.smoother_wf : nullptr;
    hl.A_stored.visit([&](const auto& m) {
      if (forward) {
        gs_forward(m, f, u, invdiag, q2, wf);
      } else {
        gs_backward(m, f, u, invdiag, q2, wf);
      }
    });
    return;
  }
  const CT w = static_cast<CT>(cfg.jacobi_weight);
  hl.A_stored.visit([&](const auto& m) {
    jacobi_sweep_fused(m, f, std::span<const CT>{D.u.data(), D.u.size()},
                       invdiag, q2, w,
                       std::span<CT>{D.r.data(), D.r.size()});
  });
  std::swap(D.u, D.r);
}

template <class CT>
void DecompEngine<CT>::cycle(int lev, bool zero_guess) {
  const int last = h_->nlevels() - 1;
  DLevel& D = levels_[static_cast<std::size_t>(lev)];
  const Level& hl = h_->level(lev);
  const MGConfig& cfg = h_->config();

  const obs::LevelScope level_scope(lev);
  const obs::ScopedSpan level_span(obs::Kind::Level);

  if (lev == last) {
    const obs::KernelSpan span(obs::Kind::CoarseSolve);
    h_->coarse_solver().solve<CT>({D.f.data(), D.f.size()},
                                  {D.u.data(), D.u.size()});
    return;
  }

  const int bs = hl.A_full.block_size();
  DLevel& C = levels_[static_cast<std::size_t>(lev) + 1];

  if (!D.boxed) {
    // One-box level below the agglomeration boundary: replicate
    // MGPrecond::cycle on the global vectors (fused downstroke included) —
    // the coarse level is one box too (agglomeration is monotone).
    if (zero_guess) {
      set_zero(std::span<CT>{D.u.data(), D.u.size()});
    }
    for (int s = 0; s < cfg.nu1; ++s) {
      smooth_global(lev, /*forward=*/true);
    }
    const CT* q2 = D.q2.empty() ? nullptr : D.q2.data();
    if (cfg.fused_transfers != FusedTransfers::Off) {
      hl.A_stored.visit([&](const auto& m) {
        residual_restrict(m, std::span<const CT>{D.f.data(), D.f.size()},
                          std::span<const CT>{D.u.data(), D.u.size()}, q2,
                          hl.to_coarse,
                          std::span<CT>{C.f.data(), C.f.size()});
      });
    } else {
      hl.A_stored.visit([&](const auto& m) {
        residual(m, std::span<const CT>{D.f.data(), D.f.size()},
                 std::span<const CT>{D.u.data(), D.u.size()},
                 std::span<CT>{D.r.data(), D.r.size()}, q2);
      });
      restrict_to_coarse<CT>(hl.to_coarse, bs, {D.r.data(), D.r.size()},
                             {C.f.data(), C.f.size()});
    }
    cycle(lev + 1, /*zero_guess=*/true);
    if (shape_ == CycleShape::W && lev + 1 < last) {
      cycle(lev + 1, /*zero_guess=*/false);
    }
    prolong_add<CT>(hl.to_coarse, bs, {C.u.data(), C.u.size()},
                    {D.u.data(), D.u.size()});
    for (int s = 0; s < cfg.nu2; ++s) {
      smooth_global(lev, /*forward=*/false);
    }
    return;
  }

  const int nb = D.decomp.nboxes();
  if (zero_guess) {
    pool_->run(nb, [&](int b) {
      BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
      set_zero(std::span<CT>{bd.u.data(), bd.u.size()});
    });
  }
  for (int s = 0; s < cfg.nu1; ++s) {
    smooth_boxed(lev, /*forward=*/true);
  }

  // Downstroke.  The decomposed path materializes the residual per box
  // (r ghosts are refreshed or gathered before any consumer reads them);
  // interior residual rows are bitwise identical to the global kernel's.
  exchange(lev, /*residual_field=*/false);
  pool_->run(nb, [&](int b) {
    const obs::LevelScope ls(lev);
    BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
    const CT* q2 = bd.q2.empty() ? nullptr : bd.q2.data();
    bd.A.visit([&](const auto& m) {
      residual(m, std::span<const CT>{bd.f.data(), bd.f.size()},
               std::span<const CT>{bd.u.data(), bd.u.size()},
               std::span<CT>{bd.r.data(), bd.r.size()}, q2);
    });
  });
  if (C.boxed) {
    // Box grids match one-to-one (coarsened() keeps the grid): coarse box b
    // restricts from fine box b's interior+ghost residual.
    exchange(lev, /*residual_field=*/true);
    const obs::KernelSpan span(obs::Kind::Restrict);
    pool_->run(nb, [&](int b) {
      boxed_restrict<CT>(hl.to_coarse, bs, D.decomp.box(b),
                         D.boxes[static_cast<std::size_t>(b)].r.data(),
                         C.decomp.box(b),
                         C.boxes[static_cast<std::size_t>(b)].f.data());
    });
  } else {
    // Agglomeration boundary: gather the interior residual into the global
    // scratch and run the global restriction into the coarse global rhs.
    gather_interiors(lev, &BoxData::r, {D.r.data(), D.r.size()});
    restrict_to_coarse<CT>(hl.to_coarse, bs, {D.r.data(), D.r.size()},
                           {C.f.data(), C.f.size()});
  }

  cycle(lev + 1, /*zero_guess=*/true);
  if (shape_ == CycleShape::W && lev + 1 < last) {
    cycle(lev + 1, /*zero_guess=*/false);
  }

  if (C.boxed) {
    exchange(lev + 1, /*residual_field=*/false);
    const obs::KernelSpan span(obs::Kind::Prolong);
    pool_->run(nb, [&](int b) {
      const SubBox& fs = D.decomp.box(b);
      prolong_add_box<CT>(hl.to_coarse, bs,
                          C.boxes[static_cast<std::size_t>(b)].u.data(),
                          view_of(C.decomp.box(b)),
                          D.boxes[static_cast<std::size_t>(b)].u.data(),
                          view_of(fs), fs.lo, fs.n);
    });
  } else {
    const obs::KernelSpan span(obs::Kind::Prolong);
    pool_->run(nb, [&](int b) {
      const SubBox& fs = D.decomp.box(b);
      prolong_add_box<CT>(hl.to_coarse, bs, C.u.data(),
                          GridView{hl.to_coarse.coarse, {}},
                          D.boxes[static_cast<std::size_t>(b)].u.data(),
                          view_of(fs), fs.lo, fs.n);
    });
  }

  for (int s = 0; s < cfg.nu2; ++s) {
    smooth_boxed(lev, /*forward=*/false);
  }
}

template <class CT>
void DecompEngine<CT>::fcycle() {
  const int last = h_->nlevels() - 1;
  // Downward rhs injection (C.f = R D.f, no matrix pass).  The boxed path
  // stages the rhs through the r scratch so the existing r-halo exchange
  // provides the ghost values boxed_restrict reads; with raw halos every
  // coarse dof is bitwise identical to the global restriction's.
  for (int l = 0; l < last; ++l) {
    DLevel& D = levels_[static_cast<std::size_t>(l)];
    DLevel& C = levels_[static_cast<std::size_t>(l) + 1];
    const Level& hl = h_->level(l);
    const int bs = hl.A_full.block_size();
    if (!D.boxed) {
      // Below the agglomeration boundary (coarse is one box too).
      const obs::LevelScope level_scope(l);
      restrict_to_coarse<CT>(hl.to_coarse, bs, {D.f.data(), D.f.size()},
                             {C.f.data(), C.f.size()});
      continue;
    }
    const int nb = D.decomp.nboxes();
    if (C.boxed) {
      pool_->run(nb, [&](int b) {
        BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
        copy_convert<CT, CT>({bd.f.data(), bd.f.size()},
                             {bd.r.data(), bd.r.size()});
      });
      exchange(l, /*residual_field=*/true);
      const obs::LevelScope level_scope(l);
      const obs::KernelSpan span(obs::Kind::Restrict);
      pool_->run(nb, [&](int b) {
        boxed_restrict<CT>(hl.to_coarse, bs, D.decomp.box(b),
                           D.boxes[static_cast<std::size_t>(b)].r.data(),
                           C.decomp.box(b),
                           C.boxes[static_cast<std::size_t>(b)].f.data());
      });
    } else {
      // Agglomeration boundary: gather interior rhs, restrict globally.
      const obs::LevelScope level_scope(l);
      gather_interiors(l, &BoxData::f, {D.r.data(), D.r.size()});
      restrict_to_coarse<CT>(hl.to_coarse, bs, {D.r.data(), D.r.size()},
                             {C.f.data(), C.f.size()});
    }
  }

  // Bootstrap: exact solve on the (always one-box) coarsest level.
  cycle(last, /*zero_guess=*/true);

  // Upward: FMG interpolation as the initial guess, one V sub-cycle per
  // level.  The coarse u halo is exchanged before the per-box prolongation
  // exactly like the V-cycle's pre-prolong exchange.
  for (int l = last - 1; l >= 0; --l) {
    DLevel& D = levels_[static_cast<std::size_t>(l)];
    DLevel& C = levels_[static_cast<std::size_t>(l) + 1];
    const Level& hl = h_->level(l);
    const int bs = hl.A_full.block_size();
    if (!D.boxed) {
      const obs::LevelScope level_scope(l);
      set_zero(std::span<CT>{D.u.data(), D.u.size()});
      prolong_add<CT>(hl.to_coarse, bs, {C.u.data(), C.u.size()},
                      {D.u.data(), D.u.size()});
    } else {
      const int nb = D.decomp.nboxes();
      pool_->run(nb, [&](int b) {
        BoxData& bd = D.boxes[static_cast<std::size_t>(b)];
        set_zero(std::span<CT>{bd.u.data(), bd.u.size()});
      });
      if (C.boxed) {
        exchange(l + 1, /*residual_field=*/false);
        const obs::LevelScope level_scope(l);
        const obs::KernelSpan span(obs::Kind::Prolong);
        pool_->run(nb, [&](int b) {
          const SubBox& fs = D.decomp.box(b);
          prolong_add_box<CT>(hl.to_coarse, bs,
                              C.boxes[static_cast<std::size_t>(b)].u.data(),
                              view_of(C.decomp.box(b)),
                              D.boxes[static_cast<std::size_t>(b)].u.data(),
                              view_of(fs), fs.lo, fs.n);
        });
      } else {
        const obs::LevelScope level_scope(l);
        const obs::KernelSpan span(obs::Kind::Prolong);
        pool_->run(nb, [&](int b) {
          const SubBox& fs = D.decomp.box(b);
          prolong_add_box<CT>(hl.to_coarse, bs, C.u.data(),
                              GridView{hl.to_coarse.coarse, {}},
                              D.boxes[static_cast<std::size_t>(b)].u.data(),
                              view_of(fs), fs.lo, fs.n);
        });
      }
    }
    cycle(l, /*zero_guess=*/false);
  }
}

template <class CT>
void DecompEngine<CT>::apply(std::span<const CT> r, std::span<CT> e) {
  DLevel& D0 = levels_.front();
  SMG_CHECK(r.size() == D0.f.size() && e.size() == D0.u.size(),
            "decomposed MG apply size mismatch");
  const std::span<const CT> q2w{wrap_q2_.data(), wrap_q2_.size()};
  if (h_->finest_wrapped()) {
    ewise_div<CT>(r, q2w, {D0.f.data(), D0.f.size()});
  } else {
    copy_convert<CT, CT>(r, {D0.f.data(), D0.f.size()});
  }
  scatter_to_boxes(0, {D0.f.data(), D0.f.size()});
  if (shape_ == CycleShape::F) {
    fcycle();
  } else {
    cycle(0, /*zero_guess=*/true);
  }
  gather_interiors(0, &BoxData::u, {D0.u.data(), D0.u.size()});
  if (h_->finest_wrapped()) {
    ewise_div<CT>({D0.u.data(), D0.u.size()}, q2w, e);
  } else {
    copy_convert<CT, CT>({D0.u.data(), D0.u.size()}, e);
  }
}

template class DecompEngine<float>;
template class DecompEngine<double>;

}  // namespace smg
