// V-cycle application tests: error reduction, precision configs, W-cycle,
// wrapped (scale-then-setup) application.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "core/mg_precond.hpp"
#include "core/transfer.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "problems/problem.hpp"
#include "util/multivector.hpp"

namespace smg {
namespace {

/// Relative A-residual reduction of n preconditioner applications used as a
/// stationary iteration on A x = b.
double stationary_reduction(const StructMat<double>& A,
                            PrecondBase<double>& M, int iters) {
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  avec<double> x(n, 0.0), b(n, 1.0), r(n), e(n);
  residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  const double r0 = nrm2<double>({r.data(), n});
  for (int it = 0; it < iters; ++it) {
    M.apply({r.data(), n}, {e.data(), n});
    axpy<double>(1.0, {e.data(), n}, {x.data(), n});
    residual<double, double>(A, {b.data(), n}, {x.data(), n}, {r.data(), n});
  }
  return nrm2<double>({r.data(), n}) / r0;
}

MGConfig small(MGConfig cfg) {
  cfg.min_coarse_cells = 64;
  return cfg;
}

TEST(MGPrecond, VCycleContractsPoissonResidual) {
  auto p = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_full64()));
  auto M = make_mg_precond<double>(h);
  // Multigrid on Poisson: each V-cycle should shave >= ~5x off the residual.
  EXPECT_LT(stationary_reduction(A, *M, 5), 1e-3);
}

/// One two-level V-cycle spelled out with the public kernels and a plain
/// set_zero + full forward sweep: the reference MGPrecond<float>::apply
/// must reproduce bitwise, whichever first sweep it picks.
avec<float> explicit_two_level_cycle(const MGHierarchy& h,
                                     const avec<float>& r) {
  const Level& hl = h.level(0);
  const std::size_t n = r.size();
  avec<float> inv(hl.invdiag.size()), q2v(hl.q2.size());
  for (std::size_t i = 0; i < inv.size(); ++i) {
    inv[i] = static_cast<float>(hl.invdiag[i]);
  }
  for (std::size_t i = 0; i < q2v.size(); ++i) {
    q2v[i] = static_cast<float>(hl.q2[i]);
  }
  const float* q2 = hl.scaled ? q2v.data() : nullptr;
  const WavefrontSchedule* wf =
      hl.smoother_wf.valid() ? &hl.smoother_wf : nullptr;
  const std::size_t nc = static_cast<std::size_t>(hl.to_coarse.coarse.size());
  avec<float> u(n, 0.0f), fc(nc), uc(nc);
  hl.A_stored.visit([&](const auto& m) {
    gs_forward(m, std::span<const float>{r.data(), n},
               std::span<float>{u.data(), n},
               std::span<const float>{inv.data(), inv.size()}, q2, wf);
    residual_restrict(m, std::span<const float>{r.data(), n},
                      std::span<const float>{u.data(), n}, q2, hl.to_coarse,
                      std::span<float>{fc.data(), nc});
  });
  h.coarse_solver().solve<float>({fc.data(), nc}, {uc.data(), nc});
  prolong_add<float>(hl.to_coarse, 1, {uc.data(), nc}, {u.data(), n});
  hl.A_stored.visit([&](const auto& m) {
    gs_backward(m, std::span<const float>{r.data(), n},
                std::span<float>{u.data(), n},
                std::span<const float>{inv.data(), inv.size()}, q2, wf);
  });
  return u;
}

void expect_cycle_matches_explicit(const char* problem, MGConfig cfg,
                                   bool finite) {
  auto p = make_problem(problem, Box{12, 11, 10});
  cfg.max_levels = 2;
  MGHierarchy h(std::move(p.A), cfg);
  ASSERT_EQ(h.nlevels(), 2);
  ASSERT_FALSE(h.finest_wrapped());
  EXPECT_EQ(h.level(0).stored_finite(), finite);
  const std::size_t n = p.b.size();
  avec<float> r(n), e(n, 7.0f);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<float>(p.b[i]) * (1.0f + 0.01f * static_cast<float>(i % 7));
  }
  MGPrecond<float> mg(&h);
  for (int apply = 0; apply < 2; ++apply) {  // second apply: stale u/uq
    mg.apply({r.data(), n}, {e.data(), n});
    const avec<float> ref = explicit_two_level_cycle(h, r);
    EXPECT_EQ(0, std::memcmp(ref.data(), e.data(), n * sizeof(float)))
        << problem << " apply " << apply;
  }
  std::size_t nan_count = 0;
  for (const float v : e) {
    nan_count += std::isnan(v) ? 1 : 0;
  }
  EXPECT_EQ(nan_count > 0, !finite) << problem;
}

TEST(MGPrecond, ZeroGuessFirstSweepMatchesExplicitCycleBitwise) {
  // Finite FP16 storage: the cycle takes the zero-guess first sweep.
  expect_cycle_matches_explicit("rhd", config_d16_setup_scale(), true);
  expect_cycle_matches_explicit("laplace27", config_d16_setup_scale(), true);
}

TEST(MGPrecond, NonFiniteLevelTakesFullSweepAndKeepsItsNaNs) {
  // laplace27e8 unscaled overflows FP16 (Inf in every later diagonal): the
  // guard must fall back to set_zero + the full sweep, whose Inf * 0 NaNs
  // the zero-guess sweep would have dropped.
  expect_cycle_matches_explicit("laplace27e8", config_d16_none(), false);
}

class PrecisionConfigs
    : public ::testing::TestWithParam<std::pair<const char*, MGConfig>> {};

TEST_P(PrecisionConfigs, AllSafeConfigsContractLaplace) {
  auto p = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(GetParam().second));
  auto M = make_mg_precond<double>(h);
  EXPECT_LT(stationary_reduction(A, *M, 6), 1e-3) << GetParam().first;
}

INSTANTIATE_TEST_SUITE_P(
    Fig6Legend, PrecisionConfigs,
    ::testing::Values(
        std::make_pair("Full64", config_full64()),
        std::make_pair("K64P32D32", config_k64p32d32()),
        std::make_pair("D16-none(inRange)", config_d16_none()),
        std::make_pair("D16-scale-setup", config_d16_scale_setup()),
        std::make_pair("D16-setup-scale", config_d16_setup_scale())));

TEST(MGPrecond, SetupThenScaleHandlesOutOfRangeMatrix) {
  auto p = make_laplace27e8(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  auto M = make_mg_precond<double>(h);
  const double red = stationary_reduction(A, *M, 6);
  EXPECT_TRUE(std::isfinite(red));
  EXPECT_LT(red, 1e-3);
}

TEST(MGPrecond, NoneModeDivergesOnOutOfRangeMatrix) {
  // Fig. 6(b): without scaling, truncation produces inf and the stationary
  // iteration breaks down with NaN.
  auto p = make_laplace27e8(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_d16_none()));
  auto M = make_mg_precond<double>(h);
  const double red = stationary_reduction(A, *M, 2);
  EXPECT_FALSE(std::isfinite(red));
}

TEST(MGPrecond, ScaleThenSetupAlsoWorksOnUniformProblem) {
  // For the uniformly scaled laplace27e8 the ablation baseline is fine too
  // (Fig. 6(b): all four scaled curves coincide).
  auto p = make_laplace27e8(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGHierarchy h(std::move(p.A), small(config_d16_scale_setup()));
  auto M = make_mg_precond<double>(h);
  EXPECT_LT(stationary_reduction(A, *M, 6), 1e-3);
}

TEST(MGPrecond, WCycleAtLeastAsStrongAsVCycle) {
  auto pv = make_laplace27(Box{17, 17, 17});
  auto pw = make_laplace27(Box{17, 17, 17});
  const StructMat<double> A = pv.A;
  MGConfig vcfg = small(config_full64());
  MGConfig wcfg = vcfg;
  wcfg.cycle = CycleType::W;
  MGHierarchy hv(std::move(pv.A), vcfg);
  MGHierarchy hw(std::move(pw.A), wcfg);
  auto Mv = make_mg_precond<double>(hv);
  auto Mw = make_mg_precond<double>(hw);
  const double rv = stationary_reduction(A, *Mv, 4);
  const double rw = stationary_reduction(A, *Mw, 4);
  EXPECT_LE(rw, rv * 1.5);
}

TEST(MGPrecond, JacobiSmootherAlsoContracts) {
  auto p = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p.A;
  MGConfig cfg = small(config_full64());
  cfg.smoother = SmootherType::Jacobi;
  cfg.nu1 = 2;
  cfg.nu2 = 2;
  MGHierarchy h(std::move(p.A), cfg);
  auto M = make_mg_precond<double>(h);
  EXPECT_LT(stationary_reduction(A, *M, 8), 1e-2);
}

TEST(MGPrecond, MoreSmoothingContractsFasterPerCycle) {
  auto p1 = make_laplace27(Box{13, 13, 13});
  auto p2 = make_laplace27(Box{13, 13, 13});
  const StructMat<double> A = p1.A;
  MGConfig c1 = small(config_full64());
  MGConfig c2 = c1;
  c2.nu1 = 3;
  c2.nu2 = 3;
  MGHierarchy h1(std::move(p1.A), c1);
  MGHierarchy h2(std::move(p2.A), c2);
  auto M1 = make_mg_precond<double>(h1);
  auto M2 = make_mg_precond<double>(h2);
  EXPECT_LE(stationary_reduction(A, *M2, 4),
            stationary_reduction(A, *M1, 4) * 1.1);
}

TEST(MGPrecond, AdapterTimingAccumulates) {
  auto p = make_laplace27(Box{13, 13, 13});
  MGHierarchy h(std::move(p.A), small(config_full64()));
  auto M = make_mg_precond<double>(h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<double> r(n, 1.0), e(n);
  M->apply({r.data(), n}, {e.data(), n});
  EXPECT_GT(M->apply_seconds(), 0.0);
  M->reset_timing();
  EXPECT_EQ(M->apply_seconds(), 0.0);
}

TEST(MGPrecond, FusedAndUnfusedDownstrokesBitwiseIdentical) {
  // The fused residual_restrict performs the same arithmetic as residual()
  // followed by restrict_to_coarse(), so flipping fused_transfers must not
  // change a single bit of the preconditioner output — which also makes the
  // fused/unfused solver convergence histories identical by construction.
  struct Case {
    const char* name;
    MGConfig cfg;
  };
  MGConfig jac = config_full64();
  jac.smoother = SmootherType::Jacobi;
  MGConfig wcyc = config_d16_setup_scale();
  wcyc.cycle = CycleType::W;
  for (const Case& tc :
       {Case{"Full64", config_full64()},
        Case{"D16-setup-scale", config_d16_setup_scale()},
        Case{"D16-scale-setup(wrapped)", config_d16_scale_setup()},
        Case{"Full64-Jacobi", jac}, Case{"D16-W-cycle", wcyc}}) {
    auto pa = make_laplace27(Box{13, 13, 13});
    auto pb = make_laplace27(Box{13, 13, 13});
    MGConfig on = small(tc.cfg);
    MGConfig off = on;
    on.fused_transfers = FusedTransfers::On;
    off.fused_transfers = FusedTransfers::Off;
    MGHierarchy ha(std::move(pa.A), on);
    MGHierarchy hb(std::move(pb.A), off);
    MGPrecond<float> Ma(&ha);
    MGPrecond<float> Mb(&hb);
    const std::size_t n =
        static_cast<std::size_t>(ha.level(0).A_full.nrows());
    avec<float> r(n), ea(n), eb(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<float>(std::sin(0.3 * static_cast<double>(i)));
    }
    Ma.apply({r.data(), n}, {ea.data(), n});
    Mb.apply({r.data(), n}, {eb.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ea[i], eb[i]) << tc.name << " i=" << i;
    }
  }
}

TEST(MGPrecond, ApplyIsDeterministic) {
  auto p = make_rhd(Box{10, 10, 10});
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  MGPrecond<float> mg(&h);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<float> r(n), e1(n), e2(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
  }
  mg.apply({r.data(), n}, {e1.data(), n});
  mg.apply({r.data(), n}, {e2.data(), n});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(e1[i], e2[i]);
  }
}

/// Panel apply of `k` sine columns against single applies, bitwise; E starts
/// as NaN so that a padding column left unwritten shows.
void expect_apply_many_matches_apply(MGPrecond<float>& mg, int k) {
  const std::size_t n =
      static_cast<std::size_t>(mg.hierarchy().level(0).A_full.nrows());
  const auto rows = static_cast<std::int64_t>(n);
  MultiVector<float> R(rows, k), E(rows, k);
  E.fill(std::numeric_limits<float>::quiet_NaN());
  for (std::int64_t i = 0; i < rows; ++i) {
    for (int c = 0; c < k; ++c) {
      R.at(i, c) = static_cast<float>(std::sin(0.1 * static_cast<double>(i) +
                                               0.7 * c));
    }
  }
  mg.apply_many(R, E);
  avec<float> rc(n), ec(n), eref(n);
  for (int c = 0; c < k; ++c) {
    R.extract_col(c, {rc.data(), n});
    mg.apply({rc.data(), n}, {eref.data(), n});
    E.extract_col(c, {ec.data(), n});
    ASSERT_EQ(0, std::memcmp(ec.data(), eref.data(), n * sizeof(float)))
        << "k=" << k << " column " << c;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    for (int c = k; c < E.padded_cols(); ++c) {
      ASSERT_EQ(E.at(i, c), 0.0f) << "k=" << k << " padding row " << i;
      ASSERT_FALSE(std::signbit(E.at(i, c))) << "k=" << k << " row " << i;
    }
  }
}

TEST(MGPrecond, ApplyManyWidthOneIsApplyBitwise) {
  // A 1-column panel has a plain vector's layout and runs apply in place.
  auto p = make_rhd(Box{10, 10, 10});
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  MGPrecond<float> mg(&h);
  for (CycleShape shape : {CycleShape::V, CycleShape::F}) {
    mg.set_cycle_shape(shape);
    expect_apply_many_matches_apply(mg, 1);
  }
}

TEST(MGPrecond, NarrowAndWidePanelsMatchApplyBitwise) {
  // FP32 compute: k <= 4 (padded row < 32 bytes) runs column by column,
  // k = 5 (kp = 8) and k = 9 (kp = 16) run the panel cycle.  Padding
  // columns of E come out +0 either way.
  auto p = make_rhd(Box{10, 10, 10});
  MGHierarchy h(std::move(p.A), small(config_d16_setup_scale()));
  MGPrecond<float> mg(&h);
  for (CycleShape shape : {CycleShape::V, CycleShape::F}) {
    mg.set_cycle_shape(shape);
    for (int k : {2, 3, 5, 9}) {
      expect_apply_many_matches_apply(mg, k);
    }
  }
}

}  // namespace
}  // namespace smg
