#include "core/mg_precond.hpp"

#include <cmath>
#include <type_traits>

#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "obs/metrics.hpp"

namespace smg {

template <class CT>
MGPrecond<CT>::MGPrecond(const MGHierarchy* h)
    : h_(h), shape_(h->config().cycle) {
  const int nlev = h_->nlevels();
  lv_.resize(static_cast<std::size_t>(nlev));
  for (int l = 0; l < nlev; ++l) {
    const Level& hl = h_->level(l);
    LevelData& L = lv_[static_cast<std::size_t>(l)];
    const std::size_t n = static_cast<std::size_t>(hl.A_full.nrows());
    L.u.assign(n, CT{0});
    L.f.assign(n, CT{0});
    // The residual vector only exists on the unfused reference path and as
    // the Jacobi ping-pong buffer; the fused downstroke never touches it.
    const MGConfig& cfg = h_->config();
    if (cfg.fused_transfers == FusedTransfers::Off ||
        cfg.smoother == SmootherType::Jacobi) {
      L.r.assign(n, CT{0});
    }
    refresh_level(l);
  }
  if (h_->finest_wrapped()) {
    const auto& q2 = h_->finest_q2();
    wrap_q2_.resize(q2.size());
    copy_convert<CT, double>({q2.data(), q2.size()},
                             {wrap_q2_.data(), wrap_q2_.size()});
  }
  const std::array<int, 3> nb = effective_decomp(h_->config());
  if (nb != std::array<int, 3>{1, 1, 1}) {
    auto engine = std::make_unique<DecompEngine<CT>>(
        h_, nb, effective_halo_fp16(h_->config()));
    if (engine->active()) {
      engine_ = std::move(engine);
    }
  }
}

template <class CT>
void MGPrecond<CT>::set_cycle_shape(CycleShape s) noexcept {
  shape_ = s;
  if (engine_ != nullptr) {
    engine_->set_cycle_shape(s);
  }
}

template <class CT>
void MGPrecond<CT>::refresh_level(int l) {
  if (engine_ != nullptr) {
    engine_->refresh_level(l);
  }
  const Level& hl = h_->level(l);
  LevelData& L = lv_[static_cast<std::size_t>(l)];
  if (hl.scaled) {
    L.q2.resize(hl.q2.size());
    copy_convert<CT, double>({hl.q2.data(), hl.q2.size()},
                             {L.q2.data(), L.q2.size()});
  }
  L.invdiag.resize(hl.invdiag.size());
  copy_convert<CT, double>({hl.invdiag.data(), hl.invdiag.size()},
                           {L.invdiag.data(), L.invdiag.size()});
}

template <class CT>
void MGPrecond<CT>::smooth(int lev, bool forward, bool zero_guess) {
  const Level& hl = h_->level(lev);
  LevelData& L = lv_[static_cast<std::size_t>(lev)];
  const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
  const MGConfig& cfg = h_->config();

  std::span<const CT> f{L.f.data(), L.f.size()};
  std::span<CT> u{L.u.data(), L.u.size()};
  std::span<const CT> invdiag{L.invdiag.data(), L.invdiag.size()};

  if (cfg.smoother == SmootherType::SymGS) {
    const WavefrontSchedule* wf =
        hl.smoother_wf.valid() ? &hl.smoother_wf : nullptr;
    hl.A_stored.visit([&](const auto& m) {
      if (zero_guess) {
        gs_forward_zero_guess(m, f, u, invdiag, q2, wf);
      } else if (forward) {
        gs_forward(m, f, u, invdiag, q2, wf);
      } else {
        gs_backward(m, f, u, invdiag, q2, wf);
      }
    });
    return;
  }

  // Weighted (block-)Jacobi, residual-fused: unew = u + w * invdiag *
  // (f - A u) in one pass over the matrix, double-buffered through L.r
  // (Jacobi must read the *old* iterate everywhere, so in-place fusion is
  // not an option), then the buffers swap roles.  Bitwise identical to the
  // former residual-then-update two-pass form.
  if (L.r.size() != L.u.size()) {
    L.r.assign(L.u.size(), CT{0});
  }
  const CT w = static_cast<CT>(cfg.jacobi_weight);
  hl.A_stored.visit([&](const auto& m) {
    jacobi_sweep_fused(m, f, std::span<const CT>{L.u.data(), L.u.size()},
                       invdiag, q2, w, std::span<CT>{L.r.data(), L.r.size()});
  });
  std::swap(L.u, L.r);
}

template <class CT>
void MGPrecond<CT>::cycle(int lev, bool zero_guess) {
  const int last = h_->nlevels() - 1;
  LevelData& L = lv_[static_cast<std::size_t>(lev)];
  const Level& hl = h_->level(lev);
  const MGConfig& cfg = h_->config();

  // Attribute everything below (kernel spans included) to this MG level.
  const obs::LevelScope level_scope(lev);
  const obs::ScopedSpan level_span(obs::Kind::Level);

  if (lev == last) {
    // Coarsest level: exact FP64 direct solve of the true operator.
    const obs::KernelSpan span(obs::Kind::CoarseSolve);
    h_->coarse_solver().solve<CT>({L.f.data(), L.f.size()},
                                  {L.u.data(), L.u.size()});
    return;
  }

  // From a zero guess the first forward SymGS sweep skips the diagonals
  // that point at still-zero cells and never reads u, so it replaces the
  // set_zero too — but only while every stored value is finite: an Inf
  // times the zero it would skip is a NaN the full sweep produces.
  const bool zero_sweep = zero_guess && cfg.nu1 > 0 &&
                          cfg.smoother == SmootherType::SymGS &&
                          hl.stored_finite();
  if (zero_guess && !zero_sweep) {
    set_zero(std::span<CT>{L.u.data(), L.u.size()});
  }
  for (int s = 0; s < cfg.nu1; ++s) {
    smooth(lev, /*forward=*/true, zero_sweep && s == 0);
  }

  // Downstroke: C.f = R (f - A u).  Fused by default — the residual is
  // produced plane-by-plane inside residual_restrict and never written to
  // memory; the Off path is the two-step reference (bitwise identical).
  const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
  LevelData& C = lv_[static_cast<std::size_t>(lev) + 1];
  if (cfg.fused_transfers != FusedTransfers::Off) {
    hl.A_stored.visit([&](const auto& m) {
      residual_restrict(m, std::span<const CT>{L.f.data(), L.f.size()},
                        std::span<const CT>{L.u.data(), L.u.size()}, q2,
                        hl.to_coarse, std::span<CT>{C.f.data(), C.f.size()});
    });
  } else {
    hl.A_stored.visit([&](const auto& m) {
      residual(m, std::span<const CT>{L.f.data(), L.f.size()},
               std::span<const CT>{L.u.data(), L.u.size()},
               std::span<CT>{L.r.data(), L.r.size()}, q2);
    });
    restrict_to_coarse<CT>(hl.to_coarse, hl.A_full.block_size(),
                           {L.r.data(), L.r.size()},
                           {C.f.data(), C.f.size()});
  }

  cycle(lev + 1, /*zero_guess=*/true);
  if (shape_ == CycleShape::W && lev + 1 < last) {
    cycle(lev + 1, /*zero_guess=*/false);
  }

  prolong_add<CT>(hl.to_coarse, hl.A_full.block_size(),
                  {C.u.data(), C.u.size()}, {L.u.data(), L.u.size()});
  for (int s = 0; s < cfg.nu2; ++s) {
    smooth(lev, /*forward=*/false);
  }
}

template <class CT>
void MGPrecond<CT>::fcycle() {
  const int last = h_->nlevels() - 1;
  // Downward rhs injection: with a zero initial guess the level residual
  // equals its rhs, so C.f = R L.f is a pure restriction — no matrix pass.
  for (int l = 0; l < last; ++l) {
    const obs::LevelScope level_scope(l);
    const Level& hl = h_->level(l);
    LevelData& L = lv_[static_cast<std::size_t>(l)];
    LevelData& C = lv_[static_cast<std::size_t>(l) + 1];
    restrict_to_coarse<CT>(hl.to_coarse, hl.A_full.block_size(),
                           {L.f.data(), L.f.size()},
                           {C.f.data(), C.f.size()});
  }
  // Bootstrap: exact solve on the coarsest level (its extra F-cycle visit).
  cycle(last, /*zero_guess=*/true);
  // Upward: FMG-interpolate the coarser solution as this level's initial
  // guess (zero u, then the same trilinear prolong_add the V-cycle uses),
  // and run one V sub-cycle rooted here.
  for (int l = last - 1; l >= 0; --l) {
    const Level& hl = h_->level(l);
    LevelData& L = lv_[static_cast<std::size_t>(l)];
    LevelData& C = lv_[static_cast<std::size_t>(l) + 1];
    {
      const obs::LevelScope level_scope(l);
      set_zero(std::span<CT>{L.u.data(), L.u.size()});
      prolong_add<CT>(hl.to_coarse, hl.A_full.block_size(),
                      {C.u.data(), C.u.size()}, {L.u.data(), L.u.size()});
    }
    cycle(l, /*zero_guess=*/false);
  }
}

template <class CT>
void MGPrecond<CT>::ensure_panels(int k) {
  const int nlev = h_->nlevels();
  if (pv_.size() != static_cast<std::size_t>(nlev)) {
    pv_.assign(static_cast<std::size_t>(nlev), PanelData{});
  }
  const MGConfig& cfg = h_->config();
  for (int l = 0; l < nlev; ++l) {
    const std::int64_t n = h_->level(l).A_full.nrows();
    PanelData& P = pv_[static_cast<std::size_t>(l)];
    if (P.u.rows() != n || P.u.cols() != k) {
      P.u.resize(n, k);
      P.f.resize(n, k);
      if (cfg.fused_transfers == FusedTransfers::Off ||
          cfg.smoother == SmootherType::Jacobi) {
        P.r.resize(n, k);
      }
    }
  }
}

template <class CT>
void MGPrecond<CT>::smooth_many(int lev, bool forward) {
  const Level& hl = h_->level(lev);
  LevelData& L = lv_[static_cast<std::size_t>(lev)];
  PanelData& P = pv_[static_cast<std::size_t>(lev)];
  const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
  const MGConfig& cfg = h_->config();
  std::span<const CT> invdiag{L.invdiag.data(), L.invdiag.size()};

  if (cfg.smoother == SmootherType::SymGS) {
    const WavefrontSchedule* wf =
        hl.smoother_wf.valid() ? &hl.smoother_wf : nullptr;
    hl.A_stored.visit([&](const auto& m) {
      if (forward) {
        gs_forward_many(m, P.f, P.u, invdiag, q2, wf);
      } else {
        gs_backward_many(m, P.f, P.u, invdiag, q2, wf);
      }
    });
    return;
  }

  // Panel Jacobi: the same double-buffered residual-fused sweep as the
  // single-vector path, all columns per matrix pass.
  if (P.r.rows() != P.u.rows() || P.r.cols() != P.u.cols()) {
    P.r.resize(P.u.rows(), P.u.cols());
  }
  const CT w = static_cast<CT>(cfg.jacobi_weight);
  hl.A_stored.visit([&](const auto& m) {
    jacobi_sweep_fused_many(m, P.f, P.u, invdiag, q2, w, P.r);
  });
  std::swap(P.u, P.r);
}

template <class CT>
void MGPrecond<CT>::cycle_many(int lev, bool zero_guess) {
  const int last = h_->nlevels() - 1;
  PanelData& P = pv_[static_cast<std::size_t>(lev)];
  LevelData& L = lv_[static_cast<std::size_t>(lev)];
  const Level& hl = h_->level(lev);
  const MGConfig& cfg = h_->config();

  const obs::LevelScope level_scope(lev);
  const obs::ScopedSpan level_span(obs::Kind::Level);

  if (lev == last) {
    // Coarsest level: the dense FP64 solve is inherently per-column; peel
    // the panel.  Padding columns are never touched and stay zero.
    const obs::KernelSpan span(obs::Kind::CoarseSolve);
    const std::size_t n = static_cast<std::size_t>(P.f.rows());
    colbuf_f_.resize(n);
    colbuf_u_.resize(n);
    for (int c = 0; c < P.f.cols(); ++c) {
      P.f.extract_col(c, {colbuf_f_.data(), n});
      h_->coarse_solver().solve<CT>({colbuf_f_.data(), n},
                                    {colbuf_u_.data(), n});
      P.u.insert_col(c, {colbuf_u_.data(), n});
    }
    return;
  }

  if (zero_guess) {
    P.u.fill(CT{0});
  }
  for (int s = 0; s < cfg.nu1; ++s) {
    smooth_many(lev, /*forward=*/true);
  }

  const CT* q2 = L.q2.empty() ? nullptr : L.q2.data();
  PanelData& C = pv_[static_cast<std::size_t>(lev) + 1];
  if (cfg.fused_transfers != FusedTransfers::Off) {
    hl.A_stored.visit([&](const auto& m) {
      residual_restrict_many(m, P.f, P.u, q2, hl.to_coarse, C.f);
    });
  } else {
    hl.A_stored.visit([&](const auto& m) {
      residual_many(m, P.f, P.u, P.r, q2);
    });
    restrict_to_coarse_many<CT>(hl.to_coarse, hl.A_full.block_size(), P.r,
                                C.f);
  }

  cycle_many(lev + 1, /*zero_guess=*/true);
  if (shape_ == CycleShape::W && lev + 1 < last) {
    cycle_many(lev + 1, /*zero_guess=*/false);
  }

  prolong_add_many<CT>(hl.to_coarse, hl.A_full.block_size(), C.u, P.u);
  for (int s = 0; s < cfg.nu2; ++s) {
    smooth_many(lev, /*forward=*/false);
  }
}

template <class CT>
void MGPrecond<CT>::fcycle_many() {
  // Panel F-cycle: fcycle() with the k-column transfer kernels, column c
  // bitwise identical to a single-vector fcycle of that column.
  const int last = h_->nlevels() - 1;
  for (int l = 0; l < last; ++l) {
    const obs::LevelScope level_scope(l);
    const Level& hl = h_->level(l);
    PanelData& P = pv_[static_cast<std::size_t>(l)];
    PanelData& C = pv_[static_cast<std::size_t>(l) + 1];
    restrict_to_coarse_many<CT>(hl.to_coarse, hl.A_full.block_size(), P.f,
                                C.f);
  }
  cycle_many(last, /*zero_guess=*/true);
  for (int l = last - 1; l >= 0; --l) {
    const Level& hl = h_->level(l);
    PanelData& P = pv_[static_cast<std::size_t>(l)];
    PanelData& C = pv_[static_cast<std::size_t>(l) + 1];
    {
      const obs::LevelScope level_scope(l);
      P.u.fill(CT{0});
      prolong_add_many<CT>(hl.to_coarse, hl.A_full.block_size(), C.u, P.u);
    }
    cycle_many(l, /*zero_guess=*/false);
  }
}

namespace {

/// A panel whose padded row is narrower than one AVX2 register has nothing
/// for the panel kernels to vectorize across; it runs column by column
/// through the single-vector cycle instead.
constexpr std::size_t kPanelMinRowBytes = 32;

/// y[i * sy] = x[i * sx] / d[i] (d == nullptr: a plain copy) for i < n: the
/// Q^{-1/2} entry/exit wrap of apply, strided so that one pass also gathers
/// a panel column in or scatters it out.
template <class CT>
void wrap_pass(const CT* x, std::int64_t sx, const CT* d, CT* y,
               std::int64_t sy, std::size_t n) {
  if (sx == 1 && sy == 1) {
    if (d != nullptr) {
      ewise_div<CT>({x, n}, {d, n}, {y, n});
    } else {
      copy_convert<CT, CT>({x, n}, {y, n});
    }
    return;
  }
  const auto m = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    y[i * sy] = d != nullptr ? x[i * sx] / d[i] : x[i * sx];
  }
}

}  // namespace

template <class CT>
void MGPrecond<CT>::apply_strided(const CT* r, CT* e, std::int64_t stride) {
  const std::size_t n = lv_.front().f.size();
  if (engine_ != nullptr) {
    if (stride == 1) {
      engine_->apply({r, n}, {e, n});
      return;
    }
    colbuf_f_.resize(n);
    colbuf_u_.resize(n);
    wrap_pass<CT>(r, stride, nullptr, colbuf_f_.data(), 1, n);
    engine_->apply({colbuf_f_.data(), n}, {colbuf_u_.data(), n});
    wrap_pass<CT>(colbuf_u_.data(), 1, nullptr, e, stride, n);
    return;
  }
  LevelData& L0 = lv_.front();
  // ScaleThenSetup preconditions the *scaled* system:
  // A^{-1} = Q^{-1/2} Â^{-1} Q^{-1/2}, so divide by q2 on entry and exit.
  const CT* q2w = h_->finest_wrapped() ? wrap_q2_.data() : nullptr;
  wrap_pass<CT>(r, stride, q2w, L0.f.data(), 1, n);
  if (shape_ == CycleShape::F) {
    fcycle();
  } else {
    cycle(0, /*zero_guess=*/true);
  }
  wrap_pass<CT>(L0.u.data(), 1, q2w, e, stride, n);
}

template <class CT>
void MGPrecond<CT>::apply_many(const MultiVector<CT>& r, MultiVector<CT>& e) {
  SMG_CHECK(r.rows() == e.rows() && r.cols() == e.cols() &&
                static_cast<std::size_t>(r.rows()) == lv_.front().f.size(),
            "MG apply_many size mismatch");
  const int kp = r.padded_cols();
  if (engine_ != nullptr ||
      static_cast<std::size_t>(kp) * sizeof(CT) < kPanelMinRowBytes) {
    // Column by column through the single-vector path (the decomposed
    // engine is single-vector too: box parallelism replaces panel
    // amortization when sharding is on).  A 1-column panel has a plain
    // vector's layout and runs in place.
    for (int c = 0; c < r.cols(); ++c) {
      apply_strided(r.data() + c, e.data() + c, kp);
    }
    if (e.cols() < kp) {
#pragma omp parallel for schedule(static)
      for (std::int64_t row = 0; row < e.rows(); ++row) {
        for (int c = e.cols(); c < kp; ++c) {
          e.at(row, c) = CT{0};
        }
      }
    }
    return;
  }
  ensure_panels(r.cols());
  PanelData& P0 = pv_.front();
  const std::int64_t rows = r.rows();
  if (h_->finest_wrapped()) {
    // Same per-element division as the single-vector ewise_div, every
    // column of the row sharing one q2 read.  Padding: 0 / q2 == +0.
    const CT* SMG_RESTRICT q2w = wrap_q2_.data();
    const CT* SMG_RESTRICT src = r.data();
    CT* SMG_RESTRICT dst = P0.f.data();
    for (std::int64_t row = 0; row < rows; ++row) {
      const CT q = q2w[row];
      for (int c = 0; c < kp; ++c) {
        dst[row * kp + c] = src[row * kp + c] / q;
      }
    }
  } else {
    copy_convert<CT, CT>({r.data(), r.size()}, {P0.f.data(), P0.f.size()});
  }
  if (shape_ == CycleShape::F) {
    fcycle_many();
  } else {
    cycle_many(0, /*zero_guess=*/true);
  }
  if (h_->finest_wrapped()) {
    const CT* SMG_RESTRICT q2w = wrap_q2_.data();
    const CT* SMG_RESTRICT src = P0.u.data();
    CT* SMG_RESTRICT dst = e.data();
    for (std::int64_t row = 0; row < rows; ++row) {
      const CT q = q2w[row];
      for (int c = 0; c < kp; ++c) {
        dst[row * kp + c] = src[row * kp + c] / q;
      }
    }
  } else {
    copy_convert<CT, CT>({P0.u.data(), P0.u.size()}, {e.data(), e.size()});
  }
}

template <class CT>
void MGPrecond<CT>::apply(std::span<const CT> r, std::span<CT> e) {
  SMG_CHECK(r.size() == lv_.front().f.size() &&
                e.size() == lv_.front().u.size(),
            "MG apply size mismatch");
  apply_strided(r.data(), e.data(), 1);
}

template <class KT, class CT>
MGPrecondAdapter<KT, CT>::MGPrecondAdapter(MGHierarchy* h)
    : h_(h),
      mg_(h),
      telemetry_(obs::effective_level(h->config().telemetry), h->nlevels()),
      governor_(h),
      guarded_(h->policy() == PrecisionPolicy::Guarded) {
  // Service metrics are a sticky process-wide switch; any adapter whose
  // effective config asks for them turns recording on for good.
  if (obs::effective_metrics(h->config().metrics) == obs::MetricsLevel::On) {
    obs::enable_metrics(true);
  }
  const std::size_t n =
      static_cast<std::size_t>(h->level(0).A_full.nrows());
  rbuf_.assign(n, CT{0});
  ebuf_.assign(n, CT{0});
  // KT<->CT vector conversions per apply: residual truncation on entry,
  // error recovery on exit (Alg. 2 lines 4 and 6); zero when the Krylov
  // and compute types coincide and the copies are plain.
  telemetry_.set_vec_conversions_per_apply(
      std::is_same_v<KT, CT> ? 0 : 2 * static_cast<std::uint64_t>(n));
}

namespace {

template <class CT>
bool all_finite(std::span<const CT> v) noexcept {
  for (const CT x : v) {
    if (!std::isfinite(static_cast<double>(x))) {
      return false;
    }
  }
  return true;
}

}  // namespace

template <class KT, class CT>
void MGPrecondAdapter<KT, CT>::apply(std::span<const KT> r,
                                     std::span<KT> e) {
  // Install our ledger for the duration of the cycle; a no-op re-install
  // when a solver already holds it for the whole solve.
  const obs::InstallGuard guard(&telemetry_);
  const double t0 = telemetry_.now();
  copy_convert<CT, KT>(r, {rbuf_.data(), rbuf_.size()});
  mg_.apply({rbuf_.data(), rbuf_.size()}, {ebuf_.data(), ebuf_.size()});
  if (guarded_ &&
      all_finite(std::span<const CT>{rbuf_.data(), rbuf_.size()})) {
    // Health probe: a NaN/Inf in the error correction with a finite input
    // residual pins the poison inside the cycle (a stored matrix or
    // smoother datum).  Repair and re-apply until healthy or the governor
    // runs out of ladder.
    while (!all_finite(std::span<const CT>{ebuf_.data(), ebuf_.size()})) {
      if (!heal(HealthEvent::NonFinite)) {
        break;  // let the solver see the breakdown
      }
      mg_.apply({rbuf_.data(), rbuf_.size()}, {ebuf_.data(), ebuf_.size()});
    }
  }
  copy_convert<KT, CT>({ebuf_.data(), ebuf_.size()}, e);
  const double t1 = telemetry_.now();
  telemetry_.record_apply(t0, t1);
  obs::record_precond_apply(t1 - t0);
}

template <class KT, class CT>
void MGPrecondAdapter<KT, CT>::apply_many(const MultiVector<KT>& r,
                                          MultiVector<KT>& e) {
  SMG_CHECK(r.rows() == e.rows() && r.cols() == e.cols(),
            "adapter apply_many shape mismatch");
  const obs::InstallGuard guard(&telemetry_);
  const double t0 = telemetry_.now();
  if (rpanel_.rows() != r.rows() || rpanel_.cols() != r.cols()) {
    rpanel_.resize(r.rows(), r.cols());
    epanel_.resize(r.rows(), r.cols());
  }
  // Whole-buffer truncate: padding zeros convert to padding zeros, and each
  // real element gets exactly the single-apply's KT->CT conversion.
  copy_convert<CT, KT>({r.data(), r.size()},
                       {rpanel_.data(), rpanel_.size()});
  mg_.apply_many(rpanel_, epanel_);
  if (guarded_ && all_finite(std::span<const CT>{rpanel_.data(),
                                                 rpanel_.size()})) {
    // Panel-wide probe-and-heal: one poisoned column is enough evidence of
    // a poisoned stored matrix, and the repair (rescale/promote) is global
    // to the level anyway — so the whole panel re-applies after a repair,
    // exactly like the single-vector path re-applies its one vector.
    while (!all_finite(std::span<const CT>{epanel_.data(),
                                           epanel_.size()})) {
      if (!heal(HealthEvent::NonFinite)) {
        break;  // let the solver see the breakdown
      }
      mg_.apply_many(rpanel_, epanel_);
    }
  }
  copy_convert<KT, CT>({epanel_.data(), epanel_.size()},
                       {e.data(), e.size()});
  const double t1 = telemetry_.now();
  telemetry_.record_apply(t0, t1);
  telemetry_.record_panel_apply(r.cols());
  obs::record_precond_apply(t1 - t0);
  obs::record_precond_panel(r.cols());
}

template <class KT, class CT>
bool MGPrecondAdapter<KT, CT>::report_health(HealthEvent e) {
  if (!guarded_) {
    return false;
  }
  return heal(e);
}

template <class KT, class CT>
bool MGPrecondAdapter<KT, CT>::heal(HealthEvent e) {
  const std::vector<int> repaired = governor_.on_event(e);
  for (const int l : repaired) {
    mg_.refresh_level(l);
  }
  if (!repaired.empty()) {
    // Each successful repair triggers exactly one retry: the probe
    // re-applies the cycle, or the solver restarts its recurrence.
    obs::record_autopilot_repair("retry");
  }
  return !repaired.empty();
}

template <class KT>
std::unique_ptr<PrecondBase<KT>> make_mg_precond(MGHierarchy& h) {
  if (h.config().compute == Prec::FP64) {
    return std::make_unique<MGPrecondAdapter<KT, double>>(&h);
  }
  SMG_CHECK(h.config().compute == Prec::FP32,
            "preconditioner compute precision must be FP32 or FP64");
  return std::make_unique<MGPrecondAdapter<KT, float>>(&h);
}

template class MGPrecond<float>;
template class MGPrecond<double>;
template class MGPrecondAdapter<double, float>;
template class MGPrecondAdapter<double, double>;
template class MGPrecondAdapter<float, float>;
template class MGPrecondAdapter<float, double>;
template std::unique_ptr<PrecondBase<double>> make_mg_precond<double>(
    MGHierarchy&);
template std::unique_ptr<PrecondBase<float>> make_mg_precond<float>(
    MGHierarchy&);

}  // namespace smg
