// Multi-RHS (panel) kernels: column c of every *_many kernel must be BITWISE
// identical to the corresponding single-RHS kernel on that column — across
// layout x storage x block size x scaling x panel width, including the
// wavefront-parallel SymGS path at every thread count.  This is the contract
// the batched solver's bitwise-reproducibility guarantee rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/smoother.hpp"
#include "core/transfer.hpp"
#include "grid/wavefront.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/multivector.hpp"
#include "util/rng.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smg {
namespace {

template <class ST>
struct ct_of {
  using type = float;
};
template <>
struct ct_of<double> {
  using type = double;
};

/// Diagonally dominant random matrix (GS-stable, Jacobi-stable).
StructMat<double> dd_matrix(const Box& box, Pattern p, int bs, Layout layout,
                            std::uint64_t seed = 13) {
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

/// Bitwise column comparison with a useful first-mismatch message.
template <class CT>
::testing::AssertionResult col_equal(const MultiVector<CT>& panel, int c,
                                     std::span<const CT> ref) {
  avec<CT> col(ref.size());
  panel.extract_col(c, {col.data(), col.size()});
  if (std::memcmp(col.data(), ref.data(), ref.size() * sizeof(CT)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&col[i], &ref[i], sizeof(CT)) != 0) {
      return ::testing::AssertionFailure()
             << "col " << c << " first mismatch at row " << i << ": panel="
             << static_cast<double>(col[i])
             << " single=" << static_cast<double>(ref[i]);
    }
  }
  return ::testing::AssertionFailure() << "memcmp mismatch (padding only?)";
}

/// Padding columns must remain finite +0 after every panel kernel.
template <class CT>
void expect_padding_zero(const MultiVector<CT>& panel, const char* what) {
  for (std::int64_t r = 0; r < panel.rows(); ++r) {
    for (int c = panel.cols(); c < panel.padded_cols(); ++c) {
      const CT v = panel.at(r, c);
      ASSERT_EQ(v, CT{0}) << what << " padding row " << r << " col " << c;
      ASSERT_FALSE(std::signbit(static_cast<double>(v)))
          << what << " padding turned -0 at row " << r;
    }
  }
}

/// One full panel-vs-single sweep: SpMV, residual, SymGS f/b, fused Jacobi,
/// fused residual+restrict.  Everything compared bitwise per column.
template <class ST>
void panel_case(Pattern pat, int bs, Layout layout, bool scaled, int k) {
  using CT = typename ct_of<ST>::type;
  SCOPED_TRACE(::testing::Message()
               << to_string(pat) << " bs=" << bs
               << " layout=" << static_cast<int>(layout)
               << " scaled=" << scaled << " k=" << k);
  const Box box{11, 7, 6};  // odd nx exercises SIMD remainder lanes
  auto Ad = dd_matrix(box, pat, bs, Layout::SOA, 17);
  auto As = convert<ST>(Ad, layout);
  const auto invd = compute_invdiag(Ad);
  avec<CT> invdc(invd.size());
  for (std::size_t i = 0; i < invd.size(); ++i) {
    invdc[i] = static_cast<CT>(invd[i]);
  }
  const std::span<const CT> invds{invdc.data(), invdc.size()};
  const std::int64_t n = Ad.nrows();

  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (scaled) {
    Rng rng(29);
    q2v.resize(static_cast<std::size_t>(n));
    for (auto& v : q2v) {
      v = static_cast<CT>(rng.uniform(0.5, 1.5));
    }
    q2 = q2v.data();
  }

  std::vector<avec<CT>> xs, fs;
  for (int c = 0; c < k; ++c) {
    xs.push_back(rand_vec<CT>(n, 101 + static_cast<std::uint64_t>(c)));
    fs.push_back(rand_vec<CT>(n, 211 + static_cast<std::uint64_t>(c)));
  }
  MultiVector<CT> X(n, k), F(n, k), Y(n, k), R(n, k);
  for (int c = 0; c < k; ++c) {
    X.insert_col(c, {xs[static_cast<std::size_t>(c)].data(),
                     static_cast<std::size_t>(n)});
    F.insert_col(c, {fs[static_cast<std::size_t>(c)].data(),
                     static_cast<std::size_t>(n)});
  }
  avec<CT> ref(static_cast<std::size_t>(n));
  const std::span<CT> refs{ref.data(), ref.size()};

  // --- SpMV ---
  spmv_many<ST, CT>(As, X, Y, q2);
  for (int c = 0; c < k; ++c) {
    spmv<ST, CT>(As,
                 {xs[static_cast<std::size_t>(c)].data(),
                  static_cast<std::size_t>(n)},
                 refs, q2);
    EXPECT_TRUE(col_equal(Y, c, {ref.data(), ref.size()})) << "spmv";
  }
  expect_padding_zero(Y, "spmv");

  // --- Residual ---
  residual_many<ST, CT>(As, F, X, R, q2);
  for (int c = 0; c < k; ++c) {
    residual<ST, CT>(As,
                     {fs[static_cast<std::size_t>(c)].data(),
                      static_cast<std::size_t>(n)},
                     {xs[static_cast<std::size_t>(c)].data(),
                      static_cast<std::size_t>(n)},
                     refs, q2);
    EXPECT_TRUE(col_equal(R, c, {ref.data(), ref.size()})) << "residual";
  }
  expect_padding_zero(R, "residual");

  // --- SymGS forward + backward (sequential schedule) ---
  const avec<CT> quarter(static_cast<std::size_t>(n), CT{0.25});
  MultiVector<CT> U(n, k);
  for (int c = 0; c < k; ++c) {
    U.insert_col(c, {quarter.data(), quarter.size()});
  }
  gs_forward_many<ST, CT>(As, F, U, invds, q2);
  gs_backward_many<ST, CT>(As, F, U, invds, q2);
  for (int c = 0; c < k; ++c) {
    avec<CT> useq = quarter;
    gs_forward<ST, CT>(As,
                       {fs[static_cast<std::size_t>(c)].data(),
                        static_cast<std::size_t>(n)},
                       {useq.data(), useq.size()}, invds, q2);
    gs_backward<ST, CT>(As,
                        {fs[static_cast<std::size_t>(c)].data(),
                         static_cast<std::size_t>(n)},
                        {useq.data(), useq.size()}, invds, q2);
    EXPECT_TRUE(col_equal(U, c, {useq.data(), useq.size()})) << "symgs";
  }
  expect_padding_zero(U, "symgs");

  // --- Fused Jacobi sweep ---
  MultiVector<CT> UN(n, k);
  jacobi_sweep_fused_many<ST, CT>(As, F, X, invds, q2, CT{0.8}, UN);
  for (int c = 0; c < k; ++c) {
    jacobi_sweep_fused<ST, CT>(As,
                               {fs[static_cast<std::size_t>(c)].data(),
                                static_cast<std::size_t>(n)},
                               {xs[static_cast<std::size_t>(c)].data(),
                                static_cast<std::size_t>(n)},
                               invds, q2, CT{0.8}, refs);
    EXPECT_TRUE(col_equal(UN, c, {ref.data(), ref.size()})) << "jacobi";
  }
  expect_padding_zero(UN, "jacobi");

  // --- Fused residual + restrict ---
  const Coarsening crs = Coarsening::make(box, 3);
  const std::int64_t ncrows = crs.coarse.size() * bs;
  MultiVector<CT> FC(ncrows, k);
  residual_restrict_many<ST, CT>(As, F, X, q2, crs, FC);
  avec<CT> fcref(static_cast<std::size_t>(ncrows));
  for (int c = 0; c < k; ++c) {
    residual_restrict<ST, CT>(As,
                              {fs[static_cast<std::size_t>(c)].data(),
                               static_cast<std::size_t>(n)},
                              {xs[static_cast<std::size_t>(c)].data(),
                               static_cast<std::size_t>(n)},
                              q2, crs, {fcref.data(), fcref.size()});
    EXPECT_TRUE(col_equal(FC, c, {fcref.data(), fcref.size()}))
        << "residual_restrict";
  }
  expect_padding_zero(FC, "residual_restrict");
}

template <class ST>
void panel_kernel_matrix() {
  // Panel-width sweep on the hot configuration.
  for (int k : {1, 2, 3, 5, 8}) {
    for (bool scaled : {false, true}) {
      panel_case<ST>(Pattern::P3d7, 1, Layout::SOA, scaled, k);
    }
  }
  // Layout x block-size variety at fixed widths.
  for (Layout lay : {Layout::SOA, Layout::SOAL, Layout::AOS}) {
    for (bool scaled : {false, true}) {
      panel_case<ST>(Pattern::P3d19, 1, lay, scaled, 3);
      panel_case<ST>(Pattern::P3d7, 3, lay, scaled, 5);
    }
  }
  panel_case<ST>(Pattern::P3d27, 1, Layout::SOAL, true, 8);
  panel_case<ST>(Pattern::P3d15, 3, Layout::SOA, false, 2);
  panel_case<ST>(Pattern::P3d7, 4, Layout::AOS, true, 3);
}

TEST(PanelKernels, BitwiseMatchesSingleDouble) {
  panel_kernel_matrix<double>();
}
TEST(PanelKernels, BitwiseMatchesSingleFloat) { panel_kernel_matrix<float>(); }
TEST(PanelKernels, BitwiseMatchesSingleHalf) { panel_kernel_matrix<half>(); }
TEST(PanelKernels, BitwiseMatchesSingleBfloat16) {
  panel_kernel_matrix<bfloat16>();
}

// --- Transfers (precision- and matrix-independent, CT only) ---

template <class CT>
void transfer_case(int bs, int k) {
  SCOPED_TRACE(::testing::Message() << "bs=" << bs << " k=" << k);
  const Box fine{11, 7, 6};
  const Coarsening c = Coarsening::make(fine, 3);
  const std::int64_t nf = fine.size() * bs;
  const std::int64_t nc = c.coarse.size() * bs;

  MultiVector<CT> RF(nf, k), FC(nc, k), EC(nc, k), UF(nf, k);
  std::vector<avec<CT>> rfs, ecs, ufs;
  for (int col = 0; col < k; ++col) {
    rfs.push_back(rand_vec<CT>(nf, 301 + static_cast<std::uint64_t>(col)));
    ecs.push_back(rand_vec<CT>(nc, 401 + static_cast<std::uint64_t>(col)));
    ufs.push_back(rand_vec<CT>(nf, 501 + static_cast<std::uint64_t>(col)));
    RF.insert_col(col, {rfs.back().data(), rfs.back().size()});
    EC.insert_col(col, {ecs.back().data(), ecs.back().size()});
    UF.insert_col(col, {ufs.back().data(), ufs.back().size()});
  }

  restrict_to_coarse_many<CT>(c, bs, RF, FC);
  avec<CT> fcref(static_cast<std::size_t>(nc));
  for (int col = 0; col < k; ++col) {
    restrict_to_coarse<CT>(c, bs,
                           {rfs[static_cast<std::size_t>(col)].data(),
                            static_cast<std::size_t>(nf)},
                           {fcref.data(), fcref.size()});
    EXPECT_TRUE(col_equal(FC, col, {fcref.data(), fcref.size()}))
        << "restrict";
  }
  expect_padding_zero(FC, "restrict");

  prolong_add_many<CT>(c, bs, EC, UF);
  for (int col = 0; col < k; ++col) {
    avec<CT> ufref = ufs[static_cast<std::size_t>(col)];
    prolong_add<CT>(c, bs,
                    {ecs[static_cast<std::size_t>(col)].data(),
                     static_cast<std::size_t>(nc)},
                    {ufref.data(), ufref.size()});
    EXPECT_TRUE(col_equal(UF, col, {ufref.data(), ufref.size()}))
        << "prolong";
  }
  expect_padding_zero(UF, "prolong");
}

TEST(PanelTransfers, BitwiseMatchesSingle) {
  for (int bs : {1, 3}) {
    for (int k : {1, 2, 3, 5, 8}) {
      transfer_case<double>(bs, k);
      transfer_case<float>(bs, k);
    }
  }
}

// --- Wavefront-parallel panel SymGS: bitwise at every thread count ---

template <class ST>
void panel_wavefront_case(Pattern pat, int bs, Layout layout, bool scaled) {
  using CT = typename ct_of<ST>::type;
  SCOPED_TRACE(::testing::Message()
               << to_string(pat) << " bs=" << bs
               << " layout=" << static_cast<int>(layout)
               << " scaled=" << scaled);
  const int k = 3;
  const Box box{12, 7, 6};
  auto Ad = dd_matrix(box, pat, bs, Layout::SOA, 17);
  auto As = convert<ST>(Ad, layout);
  const auto invd = compute_invdiag(Ad);
  avec<CT> invdc(invd.size());
  for (std::size_t i = 0; i < invd.size(); ++i) {
    invdc[i] = static_cast<CT>(invd[i]);
  }
  const std::span<const CT> invds{invdc.data(), invdc.size()};
  const std::int64_t n = Ad.nrows();

  avec<CT> q2v;
  const CT* q2 = nullptr;
  if (scaled) {
    Rng rng(29);
    q2v.resize(static_cast<std::size_t>(n));
    for (auto& v : q2v) {
      v = static_cast<CT>(rng.uniform(0.5, 1.5));
    }
    q2 = q2v.data();
  }

  std::vector<avec<CT>> fs;
  MultiVector<CT> F(n, k);
  for (int c = 0; c < k; ++c) {
    fs.push_back(rand_vec<CT>(n, 211 + static_cast<std::uint64_t>(c)));
    F.insert_col(c, {fs.back().data(), fs.back().size()});
  }

  // Single-RHS sequential reference per column.
  const avec<CT> quarter(static_cast<std::size_t>(n), CT{0.25});
  std::vector<avec<CT>> useq;
  for (int c = 0; c < k; ++c) {
    useq.push_back(quarter);
    gs_forward<ST, CT>(As,
                       {fs[static_cast<std::size_t>(c)].data(),
                        static_cast<std::size_t>(n)},
                       {useq.back().data(), useq.back().size()}, invds, q2);
    gs_backward<ST, CT>(As,
                        {fs[static_cast<std::size_t>(c)].data(),
                         static_cast<std::size_t>(n)},
                        {useq.back().data(), useq.back().size()}, invds, q2);
  }

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
    MultiVector<CT> U(n, k);
    for (int c = 0; c < k; ++c) {
      U.insert_col(c, {quarter.data(), quarter.size()});
    }
    gs_forward_many<ST, CT>(As, F, U, invds, q2, &wf);
    gs_backward_many<ST, CT>(As, F, U, invds, q2, &wf);
    for (int c = 0; c < k; ++c) {
      EXPECT_TRUE(col_equal(U, c,
                            {useq[static_cast<std::size_t>(c)].data(),
                             static_cast<std::size_t>(n)}))
          << "threads=" << nt;
    }
    expect_padding_zero(U, "wavefront symgs");
#if !defined(_OPENMP)
    break;
#endif
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved_threads);
#endif
}

template <class ST>
void panel_wavefront_matrix() {
  panel_wavefront_case<ST>(Pattern::P3d7, 1, Layout::SOA, true);
  panel_wavefront_case<ST>(Pattern::P3d27, 1, Layout::SOAL, false);
  panel_wavefront_case<ST>(Pattern::P3d7, 3, Layout::SOA, true);
  panel_wavefront_case<ST>(Pattern::P3d19, 1, Layout::AOS, true);
}

TEST(PanelSymGSWavefront, BitwiseDouble) { panel_wavefront_matrix<double>(); }
TEST(PanelSymGSWavefront, BitwiseFloat) { panel_wavefront_matrix<float>(); }
TEST(PanelSymGSWavefront, BitwiseHalf) { panel_wavefront_matrix<half>(); }
TEST(PanelSymGSWavefront, BitwiseBfloat16) {
  panel_wavefront_matrix<bfloat16>();
}

// --- Masked panel BLAS-1 ---

TEST(PanelBlas1, MaskedUpdatesSkipFrozenColumnsEntirely) {
  const std::int64_t n = 1000;
  const int k = 3;
  MultiVector<double> X(n, k), Y(n, k);
  std::vector<avec<double>> xs, ys;
  for (int c = 0; c < k; ++c) {
    xs.push_back(rand_vec<double>(n, 601 + static_cast<std::uint64_t>(c)));
    ys.push_back(rand_vec<double>(n, 701 + static_cast<std::uint64_t>(c)));
    X.insert_col(c, {xs.back().data(), xs.back().size()});
    Y.insert_col(c, {ys.back().data(), ys.back().size()});
  }
  // Poison the frozen column with NaN / -0: a nominal y += 0*x would
  // corrupt it, a true skip leaves it bitwise intact.
  avec<double> poison(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < poison.size(); ++i) {
    poison[i] = (i % 2 == 0) ? std::numeric_limits<double>::quiet_NaN() : -0.0;
  }
  Y.insert_col(1, {poison.data(), poison.size()});

  const double alpha[3] = {0.5, 99.0, -1.25};
  const unsigned char active[3] = {1, 0, 1};
  axpy_cols<double>({alpha, 3}, X, Y, active);

  avec<double> col(static_cast<std::size_t>(n));
  for (int c : {0, 2}) {
    avec<double> want = ys[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] += alpha[c] * xs[static_cast<std::size_t>(c)][i];
    }
    EXPECT_TRUE(col_equal(Y, c, {want.data(), want.size()})) << "axpy";
  }
  Y.extract_col(1, {col.data(), col.size()});
  EXPECT_EQ(0, std::memcmp(col.data(), poison.data(),
                           col.size() * sizeof(double)))
      << "frozen column disturbed by axpy_cols";

  // xpay on the same mask: frozen column again untouched.
  const avec<double> before = col;
  xpay_cols<double>(X, {alpha, 3}, Y, active);
  Y.extract_col(1, {col.data(), col.size()});
  EXPECT_EQ(0, std::memcmp(col.data(), before.data(),
                           col.size() * sizeof(double)))
      << "frozen column disturbed by xpay_cols";
}

/// dot_many column c == dot() of the extracted column c and nrm2_many
/// column c == nrm2() of it, bitwise, at threads 1..8: the batched solver's
/// reductions reproduce the single solver's through this identity.
template <class T>
void dot_many_matches_single() {
  // The last count overflows the stack partials at k = 8 (65 blocks x 8
  // lanes x 8 columns) and runs the heap buffer.
  const std::int64_t row_counts[] = {
      3, 4097, 2 * 4096 + 5,
      static_cast<std::int64_t>(detail::kDotLanes) * 4096 + 13,
      64 * 4096 + 7};
  static_assert(65 * detail::kDotLanes * 8 > detail::DotPartials::kStack);
  for (const std::int64_t n : row_counts) {
    for (const int k : {1, 2, 3, 8}) {
      MultiVector<T> X(n, k), Y(n, k);
      std::vector<avec<T>> xs, ys;
      for (int c = 0; c < k; ++c) {
        const auto s = static_cast<std::uint64_t>(c);
        xs.push_back(rand_vec<T>(n, 301 + s));
        ys.push_back(rand_vec<T>(n, 401 + s));
        X.insert_col(c, {xs.back().data(), xs.back().size()});
        Y.insert_col(c, {ys.back().data(), ys.back().size()});
      }
#if defined(_OPENMP)
      const int saved_threads = omp_get_max_threads();
#endif
      for (int nt = 1; nt <= 8; ++nt) {
#if defined(_OPENMP)
        omp_set_num_threads(nt);
#endif
        std::vector<double> d(static_cast<std::size_t>(k)),
            r(static_cast<std::size_t>(k));
        dot_many<T>(X, Y, {d.data(), d.size()});
        nrm2_many<T>(X, {r.data(), r.size()});
        for (int c = 0; c < k; ++c) {
          const auto cc = static_cast<std::size_t>(c);
          const std::span<const T> xc{xs[cc].data(), xs[cc].size()};
          const std::span<const T> yc{ys[cc].data(), ys[cc].size()};
          const double want_d = dot(xc, yc), want_r = nrm2(xc);
          EXPECT_EQ(0, std::memcmp(&d[cc], &want_d, sizeof(double)))
              << "dot n=" << n << " k=" << k << " c=" << c
              << " threads=" << nt;
          EXPECT_EQ(0, std::memcmp(&r[cc], &want_r, sizeof(double)))
              << "nrm2 n=" << n << " k=" << k << " c=" << c
              << " threads=" << nt;
        }
      }
#if defined(_OPENMP)
      omp_set_num_threads(saved_threads);
#endif
    }
  }
}

TEST(PanelBlas1, DotManyColumnsBitwiseMatchSingleDouble) {
  dot_many_matches_single<double>();
}

TEST(PanelBlas1, DotManyColumnsBitwiseMatchSingleFloat) {
  dot_many_matches_single<float>();
}

TEST(PanelBlas1, DotManyAccurateAndThreadCountInvariant) {
  const std::int64_t n = 20000;  // several 4096-row blocks
  const int k = 5;
  MultiVector<float> X(n, k), Y(n, k);
  std::vector<avec<float>> xs, ys;
  for (int c = 0; c < k; ++c) {
    xs.push_back(rand_vec<float>(n, 801 + static_cast<std::uint64_t>(c)));
    ys.push_back(rand_vec<float>(n, 901 + static_cast<std::uint64_t>(c)));
    X.insert_col(c, {xs.back().data(), xs.back().size()});
    Y.insert_col(c, {ys.back().data(), ys.back().size()});
  }
  std::vector<double> out(static_cast<std::size_t>(k), 0.0);
  dot_many<float>(X, Y, {out.data(), out.size()});
  for (int c = 0; c < k; ++c) {
    double want = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      want += static_cast<double>(xs[static_cast<std::size_t>(c)]
                                     [static_cast<std::size_t>(i)]) *
              static_cast<double>(ys[static_cast<std::size_t>(c)]
                                     [static_cast<std::size_t>(i)]);
    }
    EXPECT_NEAR(out[static_cast<std::size_t>(c)], want,
                1e-9 * (std::abs(want) + 1.0));
  }
#if defined(_OPENMP)
  const int saved_threads = omp_get_max_threads();
  for (int nt = 1; nt <= 8; ++nt) {
    omp_set_num_threads(nt);
    std::vector<double> out2(static_cast<std::size_t>(k), 0.0);
    dot_many<float>(X, Y, {out2.data(), out2.size()});
    EXPECT_EQ(0, std::memcmp(out.data(), out2.data(),
                             out.size() * sizeof(double)))
        << "threads=" << nt;
  }
  omp_set_num_threads(saved_threads);
#endif
}

}  // namespace
}  // namespace smg
