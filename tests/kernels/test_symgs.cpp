// Gauss-Seidel sweep / SpTRSV correctness: optimized line-buffered SOA path
// vs the scalar AOS path vs explicit triangular solves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/smoother.hpp"
#include "grid/wavefront.hpp"
#include "kernels/blas1.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/rng.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smg {
namespace {

/// Diagonally dominant random matrix (GS-stable).
StructMat<double> dd_matrix(const Box& box, Pattern p, int bs,
                            Layout layout, std::uint64_t seed = 13) {
  StructMat<double> A(box, Stencil::make(p), bs, layout);
  Rng rng(seed);
  const int center = A.stencil().center();
  const double dom = 2.0 * A.ndiag() * bs;
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      for (int br = 0; br < bs; ++br) {
        for (int bc = 0; bc < bs; ++bc) {
          double v = rng.uniform(-1.0, 1.0);
          if (d == center && br == bc) {
            v = dom + rng.uniform(0.0, 1.0);
          }
          A.at(cell, d, br, bc) = v;
        }
      }
    }
  }
  A.clear_out_of_box();
  return A;
}

template <class T>
avec<T> rand_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  avec<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

avec<float> to_float(const avec<double>& x) {
  avec<float> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = static_cast<float>(x[i]);
  }
  return y;
}

struct GsCase {
  Pattern pattern;
  int bs;
  Layout layout = Layout::SOA;
};

class GsParam : public ::testing::TestWithParam<GsCase> {};

TEST_P(GsParam, SoaLinePathMatchesScalarPath) {
  const auto& c = GetParam();
  const Box box{11, 7, 5};
  auto A = dd_matrix(box, c.pattern, c.bs, Layout::SOA);
  auto A_aos = convert<double>(A, Layout::AOS);
  const auto invd = compute_invdiag(A);
  auto invdf = to_float(invd);

  auto Af_soa = convert<float>(A, c.layout);
  auto Af_aos = convert<float>(A_aos, Layout::AOS);

  const auto f = rand_vec<float>(A.nrows(), 31);
  avec<float> u1(f.size(), 0.25f), u2(f.size(), 0.25f);

  gs_forward<float, float>(Af_soa, {f.data(), f.size()}, {u1.data(), u1.size()},
                           {invdf.data(), invdf.size()});
  gs_forward<float, float>(Af_aos, {f.data(), f.size()}, {u2.data(), u2.size()},
                           {invdf.data(), invdf.size()});
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_NEAR(u1[i], u2[i], 2e-5f) << "fwd i=" << i;
  }

  gs_backward<float, float>(Af_soa, {f.data(), f.size()},
                            {u1.data(), u1.size()},
                            {invdf.data(), invdf.size()});
  gs_backward<float, float>(Af_aos, {f.data(), f.size()},
                            {u2.data(), u2.size()},
                            {invdf.data(), invdf.size()});
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_NEAR(u1[i], u2[i], 2e-5f) << "bwd i=" << i;
  }
}

TEST_P(GsParam, SweepReducesResidual) {
  const auto& c = GetParam();
  const Box box{10, 8, 6};
  auto A = dd_matrix(box, c.pattern, c.bs, Layout::SOA);
  const auto invd = compute_invdiag(A);

  const auto b = rand_vec<double>(A.nrows(), 41);
  avec<double> u(b.size(), 0.0);
  avec<double> r(b.size());

  auto rnorm = [&]() {
    residual<double, double>(A, {b.data(), b.size()}, {u.data(), u.size()},
                             {r.data(), r.size()});
    double s = 0.0;
    for (double v : r) {
      s += v * v;
    }
    return std::sqrt(s);
  };

  const double r0 = rnorm();
  gs_forward<double, double>(A, {b.data(), b.size()}, {u.data(), u.size()},
                             {invd.data(), invd.size()});
  const double r1 = rnorm();
  gs_backward<double, double>(A, {b.data(), b.size()}, {u.data(), u.size()},
                              {invd.data(), invd.size()});
  const double r2 = rnorm();
  EXPECT_LT(r1, 0.5 * r0);  // strong dominance -> fast sweeps
  EXPECT_LT(r2, r1);
}

INSTANTIATE_TEST_SUITE_P(
    PatternsBlocks, GsParam,
    ::testing::Values(GsCase{Pattern::P3d7, 1}, GsCase{Pattern::P3d19, 1},
                      GsCase{Pattern::P3d27, 1}, GsCase{Pattern::P3d7, 3},
                      GsCase{Pattern::P3d15, 3}, GsCase{Pattern::P3d7, 4},
                      GsCase{Pattern::P3d27, 1, Layout::SOAL},
                      GsCase{Pattern::P3d7, 3, Layout::SOAL},
                      GsCase{Pattern::P3d7, 4, Layout::SOAL},
                      GsCase{Pattern::P3d15, 3, Layout::SOAL}));

TEST(SpTRSV, ForwardSweepSolvesLowerTriangularExactly) {
  // On a lower-triangular pattern (3d4/3d10/3d14) one forward sweep IS the
  // exact triangular solve: verify A_L u == f to rounding.
  for (Pattern p : {Pattern::P3d4, Pattern::P3d10, Pattern::P3d14}) {
    const Box box{9, 6, 4};
    auto L = dd_matrix(box, p, 1, Layout::SOA, 53);
    const auto invd = compute_invdiag(L);
    const auto f = rand_vec<double>(L.nrows(), 61);
    avec<double> u(f.size(), 0.0);
    gs_forward<double, double>(L, {f.data(), f.size()}, {u.data(), u.size()},
                               {invd.data(), invd.size()});
    avec<double> lu(f.size());
    spmv<double, double>(L, {u.data(), u.size()}, {lu.data(), lu.size()});
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_NEAR(lu[i], f[i], 1e-10) << to_string(p) << " i=" << i;
    }
  }
}

TEST(SpTRSV, HalfStorageForwardSolveStaysAccurate) {
  const Box box{8, 8, 8};
  auto L = dd_matrix(box, Pattern::P3d14, 1, Layout::SOA, 71);
  const auto invd = compute_invdiag(L);
  auto invdf = to_float(invd);
  auto Lh = convert<half>(L, Layout::SOA);
  const auto f = rand_vec<float>(L.nrows(), 73);
  avec<float> u(f.size(), 0.0f);
  gs_forward<half, float>(Lh, {f.data(), f.size()}, {u.data(), u.size()},
                          {invdf.data(), invdf.size()});
  // Check against the double solve.
  const auto fd = rand_vec<double>(L.nrows(), 73);
  avec<double> ud(fd.size(), 0.0);
  gs_forward<double, double>(L, {fd.data(), fd.size()}, {ud.data(), ud.size()},
                             {invd.data(), invd.size()});
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(u[i], ud[i], 5e-3 * (std::abs(ud[i]) + 0.3));
  }
}

TEST(SymGS, ScaledSweepMatchesUnscaledOperator) {
  // Sweeping with stored Â + q2 must act like sweeping with A itself.
  const Box box{7, 5, 6};
  StructMat<double> A(box, Stencil::make(Pattern::P3d7), 1, Layout::SOA);
  Rng rng(81);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      A.at(cell, d) =
          d == center ? rng.uniform(10.0, 14.0) : rng.uniform(-1.0, 0.0);
    }
  }
  A.clear_out_of_box();
  const auto invd = compute_invdiag(A);
  auto invdf = to_float(invd);

  // Scale manually (G = 1).
  StructMat<double> Ahat = A;
  avec<float> q2(static_cast<std::size_t>(A.nrows()));
  avec<double> q2d(q2.size());
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    q2d[static_cast<std::size_t>(cell)] = std::sqrt(A.at(cell, center));
    q2[static_cast<std::size_t>(cell)] =
        static_cast<float>(q2d[static_cast<std::size_t>(cell)]);
  }
  const Stencil& st = A.stencil();
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        for (int d = 0; d < st.ndiag(); ++d) {
          const Offset& o = st.offset(d);
          if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
            continue;
          }
          const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
          Ahat.at(cell, d) /= q2d[static_cast<std::size_t>(cell)] *
                              q2d[static_cast<std::size_t>(nbr)];
        }
      }
    }
  }
  auto Ahat_f = convert<float>(Ahat, Layout::SOA);
  auto Af = convert<float>(A, Layout::SOA);

  const auto f = rand_vec<float>(A.nrows(), 83);
  avec<float> u1(f.size(), 0.0f), u2(f.size(), 0.0f);
  gs_forward<float, float>(Ahat_f, {f.data(), f.size()}, {u1.data(), u1.size()},
                           {invdf.data(), invdf.size()}, q2.data());
  gs_forward<float, float>(Af, {f.data(), f.size()}, {u2.data(), u2.size()},
                           {invdf.data(), invdf.size()});
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_NEAR(u1[i], u2[i], 1e-4f) << "i=" << i;
  }
}

/// One forward + one backward sweep with the wavefront schedule must be
/// BITWISE identical to the sequential sweep — for every thread count, since
/// the level function strictly orders every lexicographic dependency.
template <class ST>
void wavefront_bitwise_case(Pattern pat, int bs, Layout layout, bool scaled) {
  using CT = std::conditional_t<std::is_same_v<ST, double>, double, float>;
  const Box box{12, 7, 6};
  auto Ad = dd_matrix(box, pat, bs, Layout::SOA, 17);
  auto As = convert<ST>(Ad, layout);
  const auto invd = compute_invdiag(Ad);
  avec<CT> invdc(invd.size());
  for (std::size_t i = 0; i < invd.size(); ++i) {
    invdc[i] = static_cast<CT>(invd[i]);
  }
  const auto f = rand_vec<CT>(Ad.nrows(), 23);
  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (scaled) {
    Rng rng(29);
    q2v.resize(f.size());
    for (auto& v : q2v) {
      v = static_cast<CT>(rng.uniform(0.5, 1.5));
    }
    q2 = q2v.data();
  }

  avec<CT> useq(f.size(), CT{0.25});
  gs_forward<ST, CT>(As, {f.data(), f.size()}, {useq.data(), useq.size()},
                     {invdc.data(), invdc.size()}, q2);
  gs_backward<ST, CT>(As, {f.data(), f.size()}, {useq.data(), useq.size()},
                      {invdc.data(), invdc.size()}, q2);

  const WavefrontSchedule wf =
      layout == Layout::AOS ? WavefrontSchedule::cells(box, As.stencil())
                            : WavefrontSchedule::lines(box, As.stencil());
  ASSERT_TRUE(wf.valid());

#if defined(_OPENMP)
  const int saved_threads = omp_get_max_threads();
#endif
  for (int nt = 1; nt <= 8; ++nt) {
#if defined(_OPENMP)
    omp_set_num_threads(nt);
#endif
    avec<CT> uwf(f.size(), CT{0.25});
    gs_forward<ST, CT>(As, {f.data(), f.size()}, {uwf.data(), uwf.size()},
                       {invdc.data(), invdc.size()}, q2, &wf);
    gs_backward<ST, CT>(As, {f.data(), f.size()}, {uwf.data(), uwf.size()},
                        {invdc.data(), invdc.size()}, q2, &wf);
    EXPECT_EQ(0, std::memcmp(useq.data(), uwf.data(),
                             useq.size() * sizeof(CT)))
        << to_string(pat) << " bs=" << bs << " layout=" << static_cast<int>(layout)
        << " scaled=" << scaled << " threads=" << nt;
#if !defined(_OPENMP)
    break;  // thread count is meaningless without OpenMP
#endif
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved_threads);
#endif
}

template <class ST>
void wavefront_bitwise_matrix() {
  for (Pattern pat : {Pattern::P3d7, Pattern::P3d19, Pattern::P3d27}) {
    for (int bs : {1, 3}) {
      for (Layout layout : {Layout::SOA, Layout::SOAL, Layout::AOS}) {
        for (bool scaled : {false, true}) {
          wavefront_bitwise_case<ST>(pat, bs, layout, scaled);
        }
      }
    }
  }
}

TEST(SymGSWavefront, BitwiseIdenticalDouble) {
  wavefront_bitwise_matrix<double>();
}

TEST(SymGSWavefront, BitwiseIdenticalFloat) {
  wavefront_bitwise_matrix<float>();
}

TEST(SymGSWavefront, BitwiseIdenticalHalf) { wavefront_bitwise_matrix<half>(); }

TEST(SymGSWavefront, BitwiseIdenticalBfloat16) {
  wavefront_bitwise_matrix<bfloat16>();
}

TEST(SymGSWavefront, MismatchedGranularityFallsBackToSequential) {
  // A Cell schedule handed to the SOA line path (and vice versa) must be
  // ignored, not misapplied: results still match the sequential sweep.
  const Box box{9, 6, 5};
  auto A = dd_matrix(box, Pattern::P3d19, 1, Layout::SOA, 47);
  const auto invd = compute_invdiag(A);
  const auto f = rand_vec<double>(A.nrows(), 49);
  const auto wrong = WavefrontSchedule::cells(box, A.stencil());
  ASSERT_TRUE(wrong.valid());

  avec<double> u1(f.size(), 0.0), u2(f.size(), 0.0);
  gs_forward<double, double>(A, {f.data(), f.size()}, {u1.data(), u1.size()},
                             {invd.data(), invd.size()});
  gs_forward<double, double>(A, {f.data(), f.size()}, {u2.data(), u2.size()},
                             {invd.data(), invd.size()}, nullptr, &wrong);
  EXPECT_EQ(0, std::memcmp(u1.data(), u2.data(), u1.size() * sizeof(double)));
}

/// The zero-guess forward sweep must equal set_zero + a full forward sweep
/// BITWISE — with and without a schedule, at every thread count.  The
/// zero-guess input u is NaN: the sweep must never read it.
template <class ST>
void zero_guess_case(Pattern pat, int bs, Layout layout, bool scaled) {
  using CT = std::conditional_t<std::is_same_v<ST, double>, double, float>;
  const Box box{11, 13, 9};  // level widths around kLineGroup, with tails
  auto Ad = dd_matrix(box, pat, bs, Layout::SOA, 19);
  auto As = convert<ST>(Ad, layout);
  const auto invd = compute_invdiag(Ad);
  avec<CT> invdc(invd.size());
  for (std::size_t i = 0; i < invd.size(); ++i) {
    invdc[i] = static_cast<CT>(invd[i]);
  }
  const auto f = rand_vec<CT>(Ad.nrows(), 37);
  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (scaled) {
    Rng rng(43);
    q2v.resize(f.size());
    for (auto& v : q2v) {
      v = static_cast<CT>(rng.uniform(0.5, 1.5));
    }
    q2 = q2v.data();
  }
  const WavefrontSchedule wf =
      layout == Layout::AOS ? WavefrontSchedule::cells(box, As.stencil())
                            : WavefrontSchedule::lines(box, As.stencil());
  ASSERT_TRUE(wf.valid());
#if defined(_OPENMP)
  const int saved_threads = omp_get_max_threads();
#endif
  for (int nt : {1, 2, 4}) {
#if defined(_OPENMP)
    omp_set_num_threads(nt);
#endif
    for (const WavefrontSchedule* sched : {static_cast<const WavefrontSchedule*>(nullptr), &wf}) {
      avec<CT> ref(f.size(), CT{0.25});
      set_zero(std::span<CT>{ref.data(), ref.size()});
      gs_forward<ST, CT>(As, {f.data(), f.size()}, {ref.data(), ref.size()},
                         {invdc.data(), invdc.size()}, q2, sched);
      avec<CT> zg(f.size(), std::numeric_limits<CT>::quiet_NaN());
      gs_forward_zero_guess<ST, CT>(As, {f.data(), f.size()},
                                    {zg.data(), zg.size()},
                                    {invdc.data(), invdc.size()}, q2, sched);
      EXPECT_EQ(0, std::memcmp(ref.data(), zg.data(), ref.size() * sizeof(CT)))
          << to_string(pat) << " bs=" << bs
          << " layout=" << static_cast<int>(layout) << " scaled=" << scaled
          << " threads=" << nt << " schedule=" << (sched != nullptr);
    }
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved_threads);
#endif
}

template <class ST>
void zero_guess_matrix() {
  for (Pattern pat : {Pattern::P3d7, Pattern::P3d19, Pattern::P3d27}) {
    for (Layout layout : {Layout::SOA, Layout::SOAL}) {
      for (bool scaled : {false, true}) {
        zero_guess_case<ST>(pat, 1, layout, scaled);
      }
    }
  }
  // The block line path and the AOS cell path take the same shortcut.
  for (bool scaled : {false, true}) {
    zero_guess_case<ST>(Pattern::P3d19, 3, Layout::SOAL, scaled);
    zero_guess_case<ST>(Pattern::P3d27, 1, Layout::AOS, scaled);
  }
}

TEST(SymGSZeroGuess, BitwiseEqualsZeroThenFullSweepDouble) {
  zero_guess_matrix<double>();
}

TEST(SymGSZeroGuess, BitwiseEqualsZeroThenFullSweepFloat) {
  zero_guess_matrix<float>();
}

TEST(SymGSZeroGuess, BitwiseEqualsZeroThenFullSweepHalf) {
  zero_guess_matrix<half>();
}

TEST(SymGSZeroGuess, BitwiseEqualsZeroThenFullSweepBfloat16) {
  zero_guess_matrix<bfloat16>();
}

TEST(SymGSZeroGuess, InfInLaterDiagonalIsWhyTheGuardExists) {
  // Inf * 0 = NaN: a full sweep from zero poisons the cell whose later
  // neighbor coefficient is Inf, which the zero-guess sweep skips.  Callers
  // must fall back to the full sweep on non-finite storage.
  const Box box{6, 5, 4};
  auto Ad = dd_matrix(box, Pattern::P3d7, 1, Layout::SOA, 59);
  const int up = Ad.stencil().find(0, 1, 0);
  ASSERT_GE(up, 0);
  const std::int64_t cell = box.idx(2, 2, 1);
  Ad.at(cell, up) = std::numeric_limits<double>::infinity();
  const auto Ah = convert<half>(Ad, Layout::SOAL);
  auto invd = to_float(compute_invdiag(dd_matrix(box, Pattern::P3d7, 1,
                                                 Layout::SOA, 59)));
  const auto f = rand_vec<float>(Ad.nrows(), 61);
  avec<float> full(f.size(), 0.0f), zg(f.size(), 0.0f);
  gs_forward<half, float>(Ah, {f.data(), f.size()}, {full.data(), full.size()},
                          {invd.data(), invd.size()});
  gs_forward_zero_guess<half, float>(Ah, {f.data(), f.size()},
                                     {zg.data(), zg.size()},
                                     {invd.data(), invd.size()});
  EXPECT_TRUE(std::isnan(full[static_cast<std::size_t>(cell)]));
  EXPECT_FALSE(std::isnan(zg[static_cast<std::size_t>(cell)]));
}

TEST(SymGSWavefront, LinePlanDoesNotDependOnThreadCount) {
  // A cached hierarchy is reused at any later thread count, so the line
  // plan may not bake in the count it was built at: Auto always plans the
  // schedule (the 1-thread sweep interleaves same-level lines) and only
  // marks levels too narrow for the team as not threaded.
#if defined(_OPENMP)
  const int saved_threads = omp_get_max_threads();
#endif
  for (int nt : {1, 4}) {
#if defined(_OPENMP)
    omp_set_num_threads(nt);
#endif
    const Stencil st = Stencil::make(Pattern::P3d27);
    const auto wide = plan_smoother_wavefront(Box{40, 40, 40}, st,
                                              Layout::SOAL,
                                              SmootherParallel::Auto);
    EXPECT_TRUE(wide.valid() && wide.threaded()) << nt;
    const auto narrow = plan_smoother_wavefront(Box{5, 5, 5}, st, Layout::SOA,
                                                SmootherParallel::Auto);
    EXPECT_TRUE(narrow.valid() && !narrow.threaded()) << nt;
    const auto forced = plan_smoother_wavefront(
        Box{5, 5, 5}, st, Layout::SOA, SmootherParallel::Wavefront);
    EXPECT_TRUE(forced.valid() && forced.threaded()) << nt;
    EXPECT_FALSE(plan_smoother_wavefront(Box{40, 40, 40}, st, Layout::SOAL,
                                         SmootherParallel::Sequential)
                     .valid());
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved_threads);
#endif
}

TEST(SymGS, ConvergesToExactSolutionOnSmallSystem) {
  // Repeated symmetric sweeps on a diagonally dominant system converge.
  const Box box{4, 4, 4};
  auto A = dd_matrix(box, Pattern::P3d7, 2, Layout::SOA, 91);
  const auto invd = compute_invdiag(A);
  const auto b = rand_vec<double>(A.nrows(), 93);
  avec<double> u(b.size(), 0.0), r(b.size());
  for (int sweep = 0; sweep < 60; ++sweep) {
    gs_forward<double, double>(A, {b.data(), b.size()}, {u.data(), u.size()},
                               {invd.data(), invd.size()});
    gs_backward<double, double>(A, {b.data(), b.size()}, {u.data(), u.size()},
                                {invd.data(), invd.size()});
  }
  residual<double, double>(A, {b.data(), b.size()}, {u.data(), u.size()},
                           {r.data(), r.size()});
  for (double v : r) {
    EXPECT_NEAR(v, 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace smg
