// Vector (BLAS-1) kernels in iterative/compute precision.
//
// Guideline §3.4: vectors never drop below FP32, so these kernels are plain
// same-precision loops; OpenMP-simd annotated and trivially vectorizable.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/common.hpp"
#include "util/multivector.hpp"

namespace smg {

/// y += alpha*x.  The fold is pinned through detail::mul_add, so the panel
/// form axpy_cols rounds every column the same way in every build.
template <class T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = detail::mul_add(alpha, x[i], y[i]);
  }
}

/// y = x + alpha*y (the "xpay" update of CG's direction vector), pinned
/// through detail::mul_add like axpy.
template <class T>
void xpay(std::span<const T> x, T alpha, std::span<T> y) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = detail::mul_add(alpha, y[i], x[i]);
  }
}

template <class T>
void scal(T alpha, std::span<T> x) noexcept {
  const obs::KernelSpan span(obs::Kind::Blas1);
  const std::size_t n = x.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

template <class T>
void set_zero(std::span<T> x) noexcept {
  const std::size_t n = x.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = T{0};
  }
}

template <class Dst, class Src>
void copy_convert(std::span<const Src> x, std::span<Dst> y) noexcept {
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<Dst>(x[i]);
  }
}

/// y = x ./ d — the Q^{-1/2} entry/exit wrap of ScaleThenSetup
/// (A^{-1} = Q^{-1/2} Â^{-1} Q^{-1/2}).
template <class T>
void ewise_div(std::span<const T> x, std::span<const T> d,
               std::span<T> y) noexcept {
  const std::size_t n = y.size();
#pragma omp parallel for simd
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x[i] / d[i];
  }
}

// ---------------------------------------------------------------------------
// The one reduction.  Inner products accumulate in double regardless of T
// (iterative-precision safety: FP32 Krylov still needs robust inner
// products) in a fixed arithmetic order that depends only on n:
//   * rows split into kDotBlock-row blocks; row i of the block starting at
//     lo folds into lane (i - lo) mod kDotLanes with detail::mul_add;
//   * each block folds its lanes with a fixed halving tree
//     (lane l += lane l + h for h = kDotLanes/2, ..., 1);
//   * the block partials combine by a sequential pairwise tree.
// Which thread computed which block never enters the arithmetic, so the
// result is bitwise identical at every thread count and run to run.
// dot_many repeats the same order per panel column, so column c of
// dot_many is bitwise dot() of the extracted column c.
// ---------------------------------------------------------------------------

namespace detail {

inline constexpr std::size_t kDotBlock = 4096;
inline constexpr int kDotLanes = 8;
static_assert(kDotBlock % kDotLanes == 0);

/// Block-partial storage owned by the calling thread.  Callers take the
/// pointer BEFORE their parallel region: naming a thread_local inside the
/// region would resolve to each worker's own copy.  Up to kStack doubles
/// (16.7M rows of dot) live on the stack, so the common case never touches
/// the heap: with glibc malloc, a small long-lived heap block pins the
/// freed memory beneath it (+24 MB peak RSS on a 373k-row PCG run).
/// Larger requests (as from a wide dot_many on long columns) use a
/// thread_local vector grown on demand and reused, so a steady-state
/// reduction allocates nothing.
struct DotPartials {
  static constexpr std::size_t kStack = 4096;
  // Every entry a reduction reads it has written first; zeroing 32 KB per
  // call would cost more than a short dot.
  double local[kStack];

  double* get(std::size_t n) {
    if (n <= kStack) {
      return local;
    }
    thread_local std::vector<double> heap;
    if (heap.size() < n) {
      heap.resize(n);
    }
    return heap.data();
  }
};

/// Rows [lo, hi) of x.y folded into kDotLanes lanes, lanes folded by the
/// fixed halving tree.
template <class T>
inline double dot_block(const T* SMG_RESTRICT x, const T* SMG_RESTRICT y,
                        std::size_t lo, std::size_t hi) noexcept {
  double lane[kDotLanes] = {};
  std::size_t i = lo;
  for (; i + kDotLanes <= hi; i += kDotLanes) {
    for (int l = 0; l < kDotLanes; ++l) {
      lane[l] = mul_add(static_cast<double>(x[i + l]),
                        static_cast<double>(y[i + l]), lane[l]);
    }
  }
  for (int l = 0; i < hi; ++i, ++l) {
    lane[l] = mul_add(static_cast<double>(x[i]), static_cast<double>(y[i]),
                      lane[l]);
  }
  for (int h = kDotLanes / 2; h >= 1; h /= 2) {
    for (int l = 0; l < h; ++l) {
      lane[l] += lane[l + h];
    }
  }
  return lane[0];
}

/// Sequential pairwise tree over nblocks partials, each a run of w doubles
/// `stride` apart: p[0:w] ends up holding the fixed-order sum.
inline void combine_blocks(double* SMG_RESTRICT p, std::size_t nblocks,
                           std::size_t stride, std::size_t w) noexcept {
  for (std::size_t width = nblocks; width > 1;) {
    const std::size_t half = (width + 1) / 2;
    for (std::size_t b = 0; b < width - half; ++b) {
      for (std::size_t c = 0; c < w; ++c) {
        p[b * stride + c] += p[(b + half) * stride + c];
      }
    }
    width = half;
  }
}

}  // namespace detail

/// x . y in the fixed order above.
template <class T>
double dot(std::span<const T> x, std::span<const T> y) {
  const obs::KernelSpan span(obs::Kind::Blas1);
  constexpr std::size_t kBlock = detail::kDotBlock;
  const std::size_t n = x.size();
  const T* SMG_RESTRICT xp = x.data();
  const T* SMG_RESTRICT yp = y.data();
  const std::size_t nblocks = (n + kBlock - 1) / kBlock;
  if (nblocks <= 1) {
    return detail::dot_block(xp, yp, 0, n);
  }
  detail::DotPartials buf;
  double* SMG_RESTRICT partial = buf.get(nblocks);
#pragma omp parallel for schedule(static)
  for (std::size_t b = 0; b < nblocks; ++b) {
    partial[b] = detail::dot_block(xp, yp, b * kBlock,
                                   std::min((b + 1) * kBlock, n));
  }
  detail::combine_blocks(partial, nblocks, 1, 1);
  return partial[0];
}

template <class T>
double nrm2(std::span<const T> x) {
  return std::sqrt(dot(x, x));
}

// ---------------------------------------------------------------------------
// Multi-RHS (panel) BLAS-1.  The masked updates leave the unselected
// columns bitwise untouched — frozen (converged / broken) columns of the
// batched solver and the padding columns — even where a nominal y += 0 * x
// would flip a -0 or manufacture a NaN from a non-finite frozen column.
// They run as one loop over the flattened panel (rows * kp elements) with
// alpha and the mask tiled across a run of whole rows: every element
// computes the single kernel's pinned fold and a select keeps the old value
// where the column is off, so column c is bitwise axpy/xpay of column c.
// ---------------------------------------------------------------------------

namespace detail {

/// y[j] = f(alpha_c, x[j], y[j]) on the columns c of the flattened panel
/// that are real and active; every other element keeps its bits.  alpha and
/// an on/off flag (T{1} / T{0}) are tiled over one run of kRun elements:
/// kRun / kp whole padded rows when kp <= kRun, else kRun columns of a row,
/// and then the panel is swept once per group of kRun columns.
template <class T, class F>
inline void masked_panel_update(std::span<const T> alpha,
                                const unsigned char* active, int k, int kp,
                                const T* SMG_RESTRICT xp, T* SMG_RESTRICT yp,
                                std::size_t n, F f) noexcept {
  constexpr int kRun = 16;
  const int groups = std::max(kp / kRun, 1);
  const auto step = static_cast<std::size_t>(std::max(kp, kRun));
  const std::size_t runs = (n + step - 1) / step;
  for (int g = 0; g < groups; ++g) {
    T al[kRun];
    T on[kRun];
    for (int t = 0; t < kRun; ++t) {
      const int c = (g * kRun + t) & (kp - 1);
      const bool live = c < k && (active == nullptr || active[c] != 0);
      al[t] = live ? alpha[static_cast<std::size_t>(c)] : T{0};
      on[t] = live ? T{1} : T{0};
    }
    const auto first = static_cast<std::size_t>(g * kRun);
#pragma omp parallel for schedule(static)
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t lo = r * step + first;
      const std::size_t m = std::min<std::size_t>(kRun, n - lo);
      const T* SMG_RESTRICT xr = xp + lo;
      T* SMG_RESTRICT yr = yp + lo;
#pragma omp simd
      for (std::size_t t = 0; t < m; ++t) {
        const T upd = f(al[t], xr[t], yr[t]);
        yr[t] = on[t] != T{0} ? upd : yr[t];
      }
    }
  }
}

}  // namespace detail

/// y[:, c] += alpha[c] * x[:, c] for every column with active[c] != 0.
template <class T>
void axpy_cols(std::span<const T> alpha, const MultiVector<T>& x,
               MultiVector<T>& y, const unsigned char* active) noexcept {
  const int kp = y.padded_cols();
  if (kp == 1) {
    if (active == nullptr || active[0] != 0) {
      const auto n = static_cast<std::size_t>(y.rows());
      axpy<T>(alpha[0], {x.data(), n}, {y.data(), n});
    }
    return;
  }
  const obs::KernelSpan span(obs::Kind::Blas1);
  detail::masked_panel_update(
      alpha, active, y.cols(), kp, x.data(), y.data(), y.size(),
      [](T a, T xv, T yv) { return detail::mul_add(a, xv, yv); });
}

/// y[:, c] = x[:, c] + alpha[c] * y[:, c] for every active column.
template <class T>
void xpay_cols(const MultiVector<T>& x, std::span<const T> alpha,
               MultiVector<T>& y, const unsigned char* active) noexcept {
  const int kp = y.padded_cols();
  if (kp == 1) {
    if (active == nullptr || active[0] != 0) {
      const auto n = static_cast<std::size_t>(y.rows());
      xpay<T>({x.data(), n}, alpha[0], {y.data(), n});
    }
    return;
  }
  const obs::KernelSpan span(obs::Kind::Blas1);
  detail::masked_panel_update(
      alpha, active, y.cols(), kp, x.data(), y.data(), y.size(),
      [](T a, T xv, T yv) { return detail::mul_add(a, yv, xv); });
}

/// Fused one-pass panel dot products: out[c] = x[:, c] . y[:, c] for all
/// real columns, in dot()'s block, lane and tree order per column (the
/// partials are laid out [block][lane][kp], so the inner loop vectorizes
/// across columns).  Column c is bitwise dot() on the extracted column c.
template <class T>
void dot_many(const MultiVector<T>& x, const MultiVector<T>& y,
              std::span<double> out) {
  const auto n = static_cast<std::size_t>(x.rows());
  const int k = x.cols();
  const auto kp = static_cast<std::size_t>(x.padded_cols());
  const T* SMG_RESTRICT xp = x.data();
  const T* SMG_RESTRICT yp = y.data();
  if (kp == 1) {
    out[0] = dot(std::span<const T>{xp, n}, std::span<const T>{yp, n});
    return;
  }
  const obs::KernelSpan span(obs::Kind::Blas1);
  constexpr std::size_t kBlock = detail::kDotBlock;
  constexpr std::size_t kLanes = detail::kDotLanes;
  const std::size_t nblocks = std::max<std::size_t>((n + kBlock - 1) / kBlock,
                                                    1);
  const std::size_t bw = kLanes * kp;  // one block's partials
  detail::DotPartials buf;
  double* SMG_RESTRICT partial = buf.get(nblocks * bw);
#pragma omp parallel for schedule(static) if (nblocks > 1)
  for (std::size_t b = 0; b < nblocks; ++b) {
    double* SMG_RESTRICT pb = partial + b * bw;
    for (std::size_t j = 0; j < bw; ++j) {
      pb[j] = 0.0;
    }
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(lo + kBlock, n);
    // Rows lo + 8q + l fold into lane l, so the partials [lane][kp] line up
    // with the panel's 8 rows: one contiguous run of 8 * kp products.
    std::size_t i = lo;
    for (; i + kLanes <= hi; i += kLanes) {
      const T* SMG_RESTRICT xr = xp + i * kp;
      const T* SMG_RESTRICT yr = yp + i * kp;
#pragma omp simd
      for (std::size_t j = 0; j < bw; ++j) {
        pb[j] = detail::mul_add(static_cast<double>(xr[j]),
                                static_cast<double>(yr[j]), pb[j]);
      }
    }
    for (; i < hi; ++i) {
      const T* SMG_RESTRICT xr = xp + i * kp;
      const T* SMG_RESTRICT yr = yp + i * kp;
      double* SMG_RESTRICT pl = pb + ((i - lo) % kLanes) * kp;
#pragma omp simd
      for (std::size_t c = 0; c < kp; ++c) {
        pl[c] = detail::mul_add(static_cast<double>(xr[c]),
                                static_cast<double>(yr[c]), pl[c]);
      }
    }
    for (std::size_t h = kLanes / 2; h >= 1; h /= 2) {
      for (std::size_t j = 0; j < h * kp; ++j) {
        pb[j] += pb[j + h * kp];
      }
    }
  }
  // Each block's lane-folded sums sit in its lane-0 row.
  detail::combine_blocks(partial, nblocks, bw, kp);
  for (int c = 0; c < k; ++c) {
    out[static_cast<std::size_t>(c)] = partial[static_cast<std::size_t>(c)];
  }
}

/// out[c] = ||x[:, c]||_2 via dot_many: bitwise nrm2() per column.
template <class T>
void nrm2_many(const MultiVector<T>& x, std::span<double> out) {
  dot_many(x, x, out);
  for (auto& v : out) {
    v = std::sqrt(v);
  }
}

template <class T>
double nrm_inf(std::span<const T> x) noexcept {
  const std::size_t n = x.size();
  double m = 0.0;
#pragma omp parallel for simd reduction(max : m)
  for (std::size_t i = 0; i < n; ++i) {
    m = std::max(m, std::abs(static_cast<double>(x[i])));
  }
  return m;
}

}  // namespace smg
