// Progressive-precision storage ladder (DESIGN.md §12): per-level rung
// semantics, the deprecated shift_levid alias, the SMG_STORAGE_LADDER env
// override, bitwise equivalence of the all-FP16 ladder with legacy configs,
// and convergence-neutrality of the FP8 coarse rungs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/mg_precond.hpp"
#include "kernels/spmv.hpp"
#include "problems/problem.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"

namespace smg {
namespace {

LinOp<double> op_of(const StructMat<double>& A) {
  return [&A](std::span<const double> x, std::span<double> y) {
    spmv<double, double>(A, x, y);
  };
}

struct SolveOutcome {
  SolveResult res;
  avec<double> x;
};

SolveOutcome solve_with(const Problem& p, MGConfig cfg, int max_iters = 400) {
  cfg.min_coarse_cells = 64;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  auto M = make_mg_precond<double>(h);
  const std::size_t n = p.b.size();
  SolveOutcome out;
  out.x.assign(n, 0.0);
  SolveOptions opts;
  opts.max_iters = max_iters;
  opts.rtol = 1e-8;
  if (p.solver == "cg") {
    out.res = pcg<double>(op_of(p.A), {p.b.data(), n}, {out.x.data(), n}, *M,
                          opts);
  } else {
    out.res = pgmres<double>(op_of(p.A), {p.b.data(), n}, {out.x.data(), n},
                             *M, opts);
  }
  return out;
}

// --- storage_at / expand_ladder semantics ---

TEST(Ladder, StorageAtFollowsTheRungs) {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};
  EXPECT_EQ(cfg.storage_at(0), Prec::FP16);
  EXPECT_EQ(cfg.storage_at(1), Prec::FP16);
  EXPECT_EQ(cfg.storage_at(2), Prec::FP8);
  EXPECT_EQ(cfg.storage_at(7), Prec::FP8);  // last rung extends
  EXPECT_EQ(cfg.storage_at(-1), Prec::FP16);
  const std::vector<Prec> want = {Prec::FP16, Prec::FP16, Prec::FP8,
                                  Prec::FP8, Prec::FP8};
  EXPECT_EQ(cfg.expand_ladder(5), want);
}

TEST(Ladder, DeprecatedShiftLevidAliasExpands) {
  // shift_levid=2 with FP16/FP32 is the ladder {fp16, fp16, fp32}.
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage = Prec::FP16;
  cfg.shift_levid = 2;
  const std::vector<Prec> want = {Prec::FP16, Prec::FP16, Prec::FP32,
                                  Prec::FP32};
  EXPECT_EQ(cfg.expand_ladder(4), want);

  MGConfig ladder = cfg;
  ladder.shift_levid = INT_MAX;
  ladder.storage_ladder = want;
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(ladder.storage_at(l), cfg.storage_at(l)) << "level " << l;
  }

  // shift_levid <= 0 stores everything at compute precision.
  MGConfig all = cfg;
  all.shift_levid = 0;
  EXPECT_EQ(all.storage_at(0), Prec::FP32);
  // An explicit ladder takes precedence over shift_levid.
  MGConfig both = cfg;
  both.storage_ladder = {Prec::BF16};
  both.shift_levid = 0;
  EXPECT_EQ(both.storage_at(3), Prec::BF16);
}

TEST(Ladder, TagListsTheRungs) {
  MGConfig cfg;
  cfg.compute = Prec::FP32;
  cfg.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};
  cfg.scale = ScaleMode::SetupThenScale;
  EXPECT_EQ(cfg.tag(), "P32D[16.16.8]-setup-scale");
  cfg.storage_ladder = {Prec::FP32};
  EXPECT_EQ(cfg.tag(), "P32D[32]");  // no narrow rung: no scale suffix
}

// --- SMG_STORAGE_LADDER / SMG_LADDER_MIN_LEVEL environment overrides ---

class LadderEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("SMG_STORAGE_LADDER");
    unsetenv("SMG_LADDER_MIN_LEVEL");
  }
};

TEST_F(LadderEnv, ParsesSeparatorVariants) {
  MGConfig cfg;
  const std::vector<Prec> want = {Prec::FP16, Prec::FP8};
  for (const char* spec : {"fp16,fp8", "fp16 fp8", "fp16:fp8"}) {
    setenv("SMG_STORAGE_LADDER", spec, 1);
    bool auto_rungs = false;
    EXPECT_EQ(effective_storage_ladder(cfg, &auto_rungs), want) << spec;
    EXPECT_FALSE(auto_rungs);
  }
}

TEST_F(LadderEnv, AutoKeywordSetsTheFlag) {
  MGConfig cfg;
  setenv("SMG_STORAGE_LADDER", "auto", 1);
  bool auto_rungs = false;
  EXPECT_TRUE(effective_storage_ladder(cfg, &auto_rungs).empty());
  EXPECT_TRUE(auto_rungs);
}

TEST_F(LadderEnv, UnparseableFallsBackToConfig) {
  MGConfig cfg;
  cfg.storage_ladder = {Prec::BF16};
  setenv("SMG_STORAGE_LADDER", "fp16,fp7", 1);
  bool auto_rungs = false;
  EXPECT_EQ(effective_storage_ladder(cfg, &auto_rungs), cfg.storage_ladder);
  unsetenv("SMG_STORAGE_LADDER");
  EXPECT_EQ(effective_storage_ladder(cfg, nullptr), cfg.storage_ladder);
}

TEST_F(LadderEnv, MinLevelOverride) {
  MGConfig cfg;
  EXPECT_EQ(effective_ladder_min_level(cfg), cfg.ladder_min_level);
  setenv("SMG_LADDER_MIN_LEVEL", "4", 1);
  EXPECT_EQ(effective_ladder_min_level(cfg), 4);
  setenv("SMG_LADDER_MIN_LEVEL", "-3", 1);
  EXPECT_EQ(effective_ladder_min_level(cfg), cfg.ladder_min_level);
}

// --- all-FP16 ladder must reproduce the legacy shift_levid solves bitwise,
// --- across layout x stencil x block size ---

using ProblemLayout = std::pair<std::string, Layout>;

class LadderBitwise : public ::testing::TestWithParam<ProblemLayout> {};

TEST_P(LadderBitwise, AllFp16LadderMatchesLegacy) {
  const auto& [name, layout] = GetParam();
  const Problem p = make_problem(name, Box{12, 12, 10});
  MGConfig legacy = config_d16_setup_scale();
  legacy.layout = layout;
  MGConfig ladder = legacy;
  ladder.storage_ladder = {Prec::FP16};

  const SolveOutcome a = solve_with(p, legacy);
  const SolveOutcome b = solve_with(p, ladder);
  ASSERT_TRUE(a.res.converged) << name;
  EXPECT_EQ(a.res.iters, b.res.iters) << name;
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x[i], b.x[i]) << name << " diverges at dof " << i;
  }
}

TEST_P(LadderBitwise, PartialShiftAliasMatchesLegacy) {
  const auto& [name, layout] = GetParam();
  const Problem p = make_problem(name, Box{12, 12, 10});
  MGConfig legacy = config_d16_setup_scale();
  legacy.layout = layout;
  legacy.shift_levid = 1;
  MGConfig ladder = config_d16_setup_scale();
  ladder.layout = layout;
  ladder.storage_ladder = {Prec::FP16, Prec::FP32};

  const SolveOutcome a = solve_with(p, legacy);
  const SolveOutcome b = solve_with(p, ladder);
  ASSERT_TRUE(a.res.converged) << name;
  EXPECT_EQ(a.res.iters, b.res.iters) << name;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x[i], b.x[i]) << name << " diverges at dof " << i;
  }
}

// laplace27: 27-point scalar; rhd3t: 7-point, 3x3 blocks; oil: 7-point
// scalar with a hard coefficient span — one problem per layout covers
// layout x stencil x block size without a full cross product.
INSTANTIATE_TEST_SUITE_P(
    LayoutStencilBlock, LadderBitwise,
    ::testing::Values(ProblemLayout{"laplace27", Layout::AOS},
                      ProblemLayout{"rhd3t", Layout::SOA},
                      ProblemLayout{"oil", Layout::SOAL},
                      ProblemLayout{"solid3d", Layout::SOAL}));

// --- FP8 coarse rungs: bytes strictly down, convergence neutral ---

TEST(Ladder, Fp8CoarseRungsAreConvergenceNeutral) {
  for (const char* name : {"laplace27", "rhd"}) {
    const Problem p = make_problem(name, Box{12, 12, 10});
    MGConfig fp16 = config_d16_setup_scale();
    MGConfig fp8 = fp16;
    fp8.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};

    const SolveOutcome a = solve_with(p, fp16);
    const SolveOutcome b = solve_with(p, fp8);
    ASSERT_TRUE(a.res.converged) << name;
    ASSERT_TRUE(b.res.converged) << name;
    EXPECT_LE(std::abs(a.res.iters - b.res.iters), 2) << name;
  }
}

TEST(Ladder, Fp8RungsShrinkStoredBytes) {
  const Problem p = make_problem("laplace27", Box{14, 14, 12});
  MGConfig fp16 = config_d16_setup_scale();
  fp16.min_coarse_cells = 64;
  MGConfig fp8 = fp16;
  fp8.storage_ladder = {Prec::FP16, Prec::FP16, Prec::FP8};

  StructMat<double> a = p.A;
  MGHierarchy h16(std::move(a), fp16);
  StructMat<double> b = p.A;
  MGHierarchy h8(std::move(b), fp8);
  ASSERT_GE(h8.nlevels(), 3);
  EXPECT_LT(h8.stored_matrix_bytes(), h16.stored_matrix_bytes());
  // FP8 levels are always scaled (four-decade range, §4.1 generalized).
  for (int l = 2; l < h8.nlevels(); ++l) {
    EXPECT_EQ(h8.level(l).storage, Prec::FP8);
    EXPECT_TRUE(h8.level(l).scaled) << "level " << l;
  }
}

// --- ladder-mode §4.3 shift keeps storage_at() consistent ---

TEST(Ladder, PlannerShiftRewritesTheLadder) {
  // laplace27e8's coefficients overflow FP16 unscaled; under ScaleMode::None
  // the Auto planner must veto FP16 at level 0, shift the whole hierarchy to
  // compute precision, and rewrite the explicit ladder to match.
  const Problem p = make_problem("laplace27e8", Box{10, 10, 10});
  MGConfig cfg = config_d16_none();
  cfg.min_coarse_cells = 64;
  cfg.storage_ladder = {Prec::FP16};
  cfg.precision_policy = PrecisionPolicy::Auto;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).storage, Prec::FP32) << "level " << l;
    EXPECT_EQ(h.config().storage_at(l), Prec::FP32) << "level " << l;
  }
  EXPECT_FALSE(h.autopilot_log().empty());
  EXPECT_EQ(h.autopilot_log().front().action, AutopilotAction::Shift);
}

// --- auto-rung planner ---

TEST(Ladder, AutoPlannerPicksFp8OnAdmissibleCoarseLevels) {
  const Problem p = make_problem("laplace27", Box{14, 14, 12});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.precision_policy = PrecisionPolicy::Auto;
  cfg.ladder_auto = true;
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  ASSERT_GE(h.nlevels(), 3);
  // The realized ladder is published back into the config.
  ASSERT_EQ(h.config().storage_ladder.size(),
            static_cast<std::size_t>(h.nlevels()));
  bool any_fp8 = false;
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.config().storage_ladder[static_cast<std::size_t>(l)],
              h.level(l).storage);
    if (l < h.config().ladder_min_level) {
      EXPECT_NE(h.level(l).storage, Prec::FP8) << "level " << l;
    }
    any_fp8 = any_fp8 || h.level(l).storage == Prec::FP8;
  }
  // Scaled-and-truncated Poisson coarse operators clear the FP8 headroom.
  EXPECT_TRUE(any_fp8);
  bool logged_rung = false;
  for (const AutopilotDecision& d : h.autopilot_log()) {
    if (d.action == AutopilotAction::Rung) {
      logged_rung = true;
      EXPECT_EQ(d.to, Prec::FP8);
      EXPECT_GE(d.level, h.config().ladder_min_level);
    }
  }
  EXPECT_TRUE(logged_rung);

  // And the planned hierarchy still solves the problem.
  MGConfig solved = cfg;
  const SolveOutcome r = solve_with(p, solved);
  EXPECT_TRUE(r.res.converged);
}

TEST(Ladder, AutoFlagIsInertUnderFixedPolicy) {
  const Problem p = make_problem("laplace27", Box{12, 12, 10});
  MGConfig cfg = config_d16_setup_scale();
  cfg.min_coarse_cells = 64;
  cfg.ladder_auto = true;  // policy stays Fixed: must be ignored
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  EXPECT_FALSE(h.config().ladder_auto);
  for (int l = 0; l < h.nlevels(); ++l) {
    EXPECT_EQ(h.level(l).storage, Prec::FP16) << "level " << l;
  }
}

}  // namespace
}  // namespace smg
