// Structured SpMV and fused residual with recover-and-rescale on the fly.
//
// All kernels are templated on the matrix *storage* type ST (double, float,
// half, bfloat16) and the vector *compute* type CT (double or float); FP16
// entries are widened to CT in registers — an FP32 copy of the matrix is
// never materialized (Alg. 3 of the paper).
//
// The optional q2 vector applies the setup-then-scale recovery: with
// Â = Q^{-1/2} A Q^{-1/2} stored and q2 = diag(Q)^{1/2},
//     y_i = q2_i * sum_d Â[d]_i * q2_j * x_j,   j = neighbor(i, d),
// which reproduces A x exactly up to FP16 truncation of Â.
//
// Three implementation families reproduce the Fig. 7 kernel ablation:
//  * apply_soa  — SOA/SOAL layouts; for (half,float) a register-blocked
//                 AVX2/F16C path converts 8 entries per vcvtph2ps
//                 ("MG-fp16/fp32(opt)"); block matrices use per-line widen
//                 buffers.
//  * apply_aos  — AOS layout; one scalar convert per entry
//                 ("MG-fp16/fp32(naive)" when ST is 2-byte).
//  * spmv_ref   — layout-agnostic scalar reference used by tests.
#pragma once

#include <cmath>
#include <span>

#include "kernels/loops.hpp"
#include "obs/telemetry.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/common.hpp"
#include "util/multivector.hpp"

#if defined(SMG_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace smg {

namespace detail {

/// Widen one stored matrix entry to the compute type.
template <class CT, class ST>
inline CT widen1(ST v) noexcept {
  if constexpr (is_storage_only_v<ST>) {
    return static_cast<CT>(static_cast<float>(v));
  } else {
    return static_cast<CT>(v);
  }
}

#if defined(SMG_SIMD_AVX2)

/// All-ones in the first n lanes (n in [0, 8]).
inline __m256i tail_mask(int n) noexcept {
  alignas(32) static constexpr std::int32_t kMask[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - n));
}

/// All-ones in lanes [s, 8) (s in [0, 8]).
inline __m256i head_mask(int s) noexcept {
  alignas(32) static constexpr std::int32_t kMask[16] = {
      0, 0, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - s));
}

/// 8-wide fused multiply-add over one diagonal run: acc logic for
/// y[i] (+)= a[i] * x[i+shift] (* q2[i+shift]), half storage, float compute.
/// The tail is one masked block: matrix reads may touch up to 14 bytes past
/// the run (covered by StructMat::kSimdSlack); x/q2/y use masked accesses,
/// and garbage in dead lanes never reaches memory.
template <bool kSubtract, bool kScaled>
inline void soa_diag_fma_f16(const half* SMG_RESTRICT a,
                             const float* SMG_RESTRICT x,
                             const float* SMG_RESTRICT q2, float* SMG_RESTRICT y,
                             int n) noexcept {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i hraw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m256 av = _mm256_cvtph_ps(hraw);
    __m256 xv = _mm256_loadu_ps(x + i);
    if constexpr (kScaled) {
      xv = _mm256_mul_ps(xv, _mm256_loadu_ps(q2 + i));
    }
    __m256 yv = _mm256_loadu_ps(y + i);
    if constexpr (kSubtract) {
      yv = _mm256_fnmadd_ps(av, xv, yv);
    } else {
      yv = _mm256_fmadd_ps(av, xv, yv);
    }
    _mm256_storeu_ps(y + i, yv);
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    const __m128i hraw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m256 av = _mm256_cvtph_ps(hraw);
    __m256 xv = _mm256_maskload_ps(x + i, m);
    if constexpr (kScaled) {
      xv = _mm256_mul_ps(xv, _mm256_maskload_ps(q2 + i, m));
    }
    __m256 yv = _mm256_maskload_ps(y + i, m);
    if constexpr (kSubtract) {
      yv = _mm256_fnmadd_ps(av, xv, yv);
    } else {
      yv = _mm256_fmadd_ps(av, xv, yv);
    }
    _mm256_maskstore_ps(y + i, m, yv);
  }
}

#endif  // SMG_SIMD_AVX2

/// Start of the nx-long run of diagonal d on the line that begins at cell
/// index `base` (line number `line`), for the two SOA-family layouts.
template <class ST>
inline const ST* line_diag_ptr(const ST* vals, Layout layout,
                               std::int64_t base, std::int64_t line, int d,
                               int nd, std::int64_t ncells, int nx) noexcept {
  return layout == Layout::SOA
             ? vals + static_cast<std::int64_t>(d) * ncells + base
             : vals + (line * nd + d) * static_cast<std::int64_t>(nx);
}

/// Scalar diagonal run (compiler-vectorizable when ST == CT).
template <bool kSubtract, bool kScaled, class ST, class CT>
inline void soa_diag_fma(const ST* SMG_RESTRICT a, const CT* SMG_RESTRICT x,
                         const CT* SMG_RESTRICT q2, CT* SMG_RESTRICT y,
                         int n) noexcept {
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    soa_diag_fma_f16<kSubtract, kScaled>(a, x, q2, y, n);
    return;
  }
#endif
#pragma omp simd
  for (int i = 0; i < n; ++i) {
    const CT ax =
        widen1<CT>(a[i]) * (kScaled ? q2[i] * x[i] : x[i]);
    y[i] += kSubtract ? -ax : ax;
  }
}

#if defined(SMG_SIMD_AVX2)

/// Interior-line prototype for the register-blocked fp16 kernel (scalar
/// unknowns), hoisted out of the line loop (per-line descriptor construction
/// would otherwise rival the math itself): entry v is one kept diagonal,
/// aoff[v] the offset of its run relative to the line's matrix base,
/// shift[v] the x/q2 offset, (dy[v], dz[v]) its line offset, [ilo, ihi) the
/// valid columns, [lo, hi) where all kept diagonals are valid, and
/// [jlo,jhi)x[klo,khi) the interior lines on which the prototype applies
/// unmodified.  Entries keep stencil order, so the per-cell fold order is
/// the stencil's with the dropped diagonals left out.  Shared by
/// apply_soa_f16_blocked, the fused residual_restrict (kernels/fused.hpp)
/// and the Gauss-Seidel pre-pass (kernels/symgs.hpp), which drops the
/// diagonals it does not fold.
struct F16LineProto {
  std::int64_t aoff[32];
  std::int64_t shift[32];
  int ilo[32];
  int ihi[32];
  int dy[32];
  int dz[32];
  int lo = 0, hi = 0;
  int jlo = 0, jhi = 0, klo = 0, khi = 0;
  int nd = 0;  ///< kept diagonals
  int nx = 0, ny = 0, nz = 0;
  std::int64_t line_stride = 0;  ///< SOAL matrix entries per line
  Layout layout = Layout::SOA;

  /// Bit d of `drop` leaves stencil diagonal d out.
  template <class ST>
  explicit F16LineProto(const StructMat<ST>& A, std::uint32_t drop = 0) {
    const Box& box = A.box();
    const Stencil& st = A.stencil();
    nx = box.nx;
    ny = box.ny;
    nz = box.nz;
    layout = A.layout();
    line_stride = static_cast<std::int64_t>(st.ndiag()) * nx;
    SMG_CHECK(st.ndiag() <= 32, "stencil wider than 3x3x3 is unsupported");
    const std::int64_t ncells = A.ncells();
    jlo = 0;
    jhi = box.ny;
    klo = 0;
    khi = box.nz;
    lo = 0;
    hi = nx;
    for (int d = 0; d < st.ndiag(); ++d) {
      if ((drop >> d) & 1U) {
        continue;
      }
      const Offset& o = st.offset(d);
      aoff[nd] = layout == Layout::SOA
                     ? static_cast<std::int64_t>(d) * ncells
                     : static_cast<std::int64_t>(d) * nx;
      shift[nd] = o.dx + static_cast<std::int64_t>(nx) *
                             (o.dy + static_cast<std::int64_t>(box.ny) * o.dz);
      ilo[nd] = std::max(0, -static_cast<int>(o.dx));
      ihi[nd] = std::min(nx, nx - static_cast<int>(o.dx));
      dy[nd] = o.dy;
      dz[nd] = o.dz;
      lo = std::max(lo, ilo[nd]);
      hi = std::min(hi, ihi[nd]);
      jlo = std::max(jlo, -static_cast<int>(o.dy));
      jhi = std::min(jhi, box.ny - static_cast<int>(o.dy));
      klo = std::max(klo, -static_cast<int>(o.dz));
      khi = std::min(khi, box.nz - static_cast<int>(o.dz));
      ++nd;
    }
    hi = std::max(hi, lo);
  }

  bool interior(int j, int k) const noexcept {
    return j >= jlo && j < jhi && k >= klo && k < khi;
  }

  /// Matrix base offset of line number `line` starting at cell `base`.
  std::int64_t abase(std::int64_t base, std::int64_t line) const noexcept {
    return layout == Layout::SOA ? base : line * line_stride;
  }
};

/// Per-line view of the valid diagonals: either the prototype itself
/// (interior lines) or a compacted subset (boundary lines).
struct F16LineDesc {
  const std::int64_t* aoff;
  const std::int64_t* shift;
  const int* ilo;
  const int* ihi;
  int nv;
  int lo, hi;
};

/// Resolve line (j, k) against the prototype; boundary lines compact their
/// valid diagonals into the caller-provided scratch arrays.
inline F16LineDesc f16_line_desc(const F16LineProto& p, int j, int k,
                                 std::int64_t c_aoff[32],
                                 std::int64_t c_shift[32], int c_ilo[32],
                                 int c_ihi[32]) noexcept {
  if (p.interior(j, k)) {
    return {p.aoff, p.shift, p.ilo, p.ihi, p.nd, p.lo, p.hi};
  }
  int nv = 0;
  int lo = 0, hi = p.nx;
  for (int v = 0; v < p.nd; ++v) {
    if (j + p.dy[v] < 0 || j + p.dy[v] >= p.ny || k + p.dz[v] < 0 ||
        k + p.dz[v] >= p.nz || p.ihi[v] <= p.ilo[v]) {
      continue;
    }
    c_aoff[nv] = p.aoff[v];
    c_shift[nv] = p.shift[v];
    c_ilo[nv] = p.ilo[v];
    c_ihi[nv] = p.ihi[v];
    lo = std::max(lo, p.ilo[v]);
    hi = std::min(hi, p.ihi[v]);
    ++nv;
  }
  hi = std::max(hi, lo);
  return {c_aoff, c_shift, c_ilo, c_ihi, nv, lo, hi};
}

/// Core fp16 line runner: every 8-lane block is SIMD.  Interior blocks take
/// the unmasked fast path; the at-most-two edge blocks use per-diagonal
/// masked x loads.  Boundary-truncated matrix entries are zero by StructMat's
/// invariant, so a dead lane contributes 0 * x = 0 and the masks are only
/// needed for memory safety; 16-byte matrix loads past a run are covered by
/// kSimdSlack.  am/xb/bb/q2b are the line-base pointers (vals + abase,
/// x + base, ...); yl is the nx-long output run — y + base for the in-place
/// kernels, or a private line buffer for the fused downstroke.  kScaled
/// recovers each x as x * q2 of its own cell and kRowScale scales the sum
/// by the row's q2; SpMV does both, the Gauss-Seidel pre-pass (which keeps
/// the row scaling for its recurrence) only the first.
template <bool kResidual, bool kScaled, bool kRowScale = kScaled>
inline void f16_run_line(const half* SMG_RESTRICT am,
                         const float* SMG_RESTRICT xb,
                         const float* SMG_RESTRICT bb,
                         const float* SMG_RESTRICT q2b,
                         float* SMG_RESTRICT yl, int nx,
                         const F16LineDesc& d) noexcept {
  const int nv = d.nv;
  const std::int64_t* SMG_RESTRICT aoff = d.aoff;
  const std::int64_t* SMG_RESTRICT shift = d.shift;
  const int* SMG_RESTRICT vilo = d.ilo;
  const int* SMG_RESTRICT vihi = d.ihi;
  for (int i = 0; i < nx; i += 8) {
    if (i >= d.lo && i + 8 <= d.hi) {
      __m256 acc = _mm256_setzero_ps();
      for (int v = 0; v < nv; ++v) {
        const __m256 av = _mm256_cvtph_ps(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(am + aoff[v] + i)));
        __m256 xv = _mm256_loadu_ps(xb + shift[v] + i);
        if constexpr (kScaled) {
          xv = _mm256_mul_ps(xv, _mm256_loadu_ps(q2b + shift[v] + i));
        }
        acc = _mm256_fmadd_ps(av, xv, acc);
      }
      if constexpr (kRowScale) {
        acc = _mm256_mul_ps(acc, _mm256_loadu_ps(q2b + i));
      }
      if constexpr (kResidual) {
        acc = _mm256_sub_ps(_mm256_loadu_ps(bb + i), acc);
      }
      _mm256_storeu_ps(yl + i, acc);
      continue;
    }
    const int blen = std::min(8, nx - i);
    const __m256i ms = tail_mask(blen);
    __m256 acc = _mm256_setzero_ps();
    for (int v = 0; v < nv; ++v) {
      const int s = std::clamp(vilo[v] - i, 0, 8);
      const int e = std::clamp(vihi[v] - i, 0, 8);
      if (e <= s) {
        continue;
      }
      const __m256i mv = _mm256_and_si256(head_mask(s), tail_mask(e));
      const __m256 av = _mm256_cvtph_ps(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(am + aoff[v] + i)));
      __m256 xv = _mm256_maskload_ps(xb + shift[v] + i, mv);
      if constexpr (kScaled) {
        xv = _mm256_mul_ps(xv, _mm256_maskload_ps(q2b + shift[v] + i, mv));
      }
      acc = _mm256_fmadd_ps(av, xv, acc);
    }
    if constexpr (kRowScale) {
      acc = _mm256_mul_ps(acc, _mm256_maskload_ps(q2b + i, ms));
    }
    if constexpr (kResidual) {
      acc = _mm256_sub_ps(_mm256_maskload_ps(bb + i, ms), acc);
    }
    _mm256_maskstore_ps(yl + i, ms, acc);
  }
}

/// Register-blocked fp16 SOA kernel (scalar unknowns): the line accumulator
/// lives in a ymm register across ALL diagonals, so each 8-entry block costs
/// one load + one vcvtph2ps + one x-load + one fma per diagonal and a single
/// y store — the uop diet that lets the halved matrix traffic actually show
/// up as kernel speedup (Fig. 7's "MG-fp16/fp32(opt)" series).
template <bool kResidual, bool kScaled>
void apply_soa_f16_blocked(const StructMat<half>& A,
                           const float* SMG_RESTRICT x,
                           const float* SMG_RESTRICT b, float* SMG_RESTRICT y,
                           const float* SMG_RESTRICT q2) {
  const Box& box = A.box();
  const half* SMG_RESTRICT vals = A.data();
  const F16LineProto proto(A);

#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      std::int64_t c_aoff[32];
      std::int64_t c_shift[32];
      int c_ilo[32];
      int c_ihi[32];
      const F16LineDesc d =
          f16_line_desc(proto, j, k, c_aoff, c_shift, c_ilo, c_ihi);
      f16_run_line<kResidual, kScaled>(
          vals + proto.abase(base, line), x + base,
          b != nullptr ? b + base : nullptr,
          q2 != nullptr ? q2 + base : nullptr, y + base, box.nx, d);
    }
  }
}

#endif  // SMG_SIMD_AVX2

/// Widen a run of n stored entries into `dst` (exact conversion, the value
/// widen1 gives entry by entry); returns `src` itself when the types match.
template <class CT, class ST>
inline const CT* widen_into(const ST* src, std::size_t n, CT* dst) {
  if constexpr (std::is_same_v<ST, CT>) {
    return src;
  } else {
    if constexpr (is_storage_only_v<ST> && std::is_same_v<CT, float>) {
      widen(src, dst, n);
    } else {
      for (std::size_t q = 0; q < n; ++q) {
        dst[q] = widen1<CT>(src[q]);
      }
    }
    return dst;
  }
}

/// Expose a (line, diagonal) coefficient run in compute precision: identity
/// when storage == compute, otherwise a SIMD widen into `buf`.
template <class CT, class ST>
inline const CT* widen_run(const ST* src, std::size_t n, avec<CT>& buf) {
  if constexpr (!std::is_same_v<ST, CT>) {
    if (buf.size() < n) {
      buf.resize(n);
    }
  }
  return widen_into<CT>(src, n, buf.data());
}

/// Block (bs > 1) SOA-family kernel: per (line, diagonal) the r x r block
/// coefficients are widened once into an L1 buffer (amortized conversion),
/// then dense block math runs in compute precision.  Accumulates the raw
/// matrix-vector sum into y and applies b/q2 in a post pass, which lets the
/// scaled residual fuse correctly.
template <bool kResidual, class ST, class CT>
void apply_soa_block_lines(const StructMat<ST>& A, const CT* SMG_RESTRICT x,
                           const CT* SMG_RESTRICT b, CT* SMG_RESTRICT y,
                           const CT* SMG_RESTRICT q2) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const std::int64_t ncells = A.ncells();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();
  const std::size_t runlen = static_cast<std::size_t>(nx) *
                             static_cast<std::size_t>(block2);

  thread_local avec<CT> coefbuf;

  // Scaled recovery reads q2 .* x everywhere; x is static here, so pay one
  // fused pass up front instead of a load + multiply per matrix entry.
  thread_local avec<CT> xqbuf;
  if (q2 != nullptr) {
    const std::size_t n = static_cast<std::size_t>(A.nrows());
    xqbuf.resize(n);
    // Hoist the pointer: xqbuf is thread_local, so naming it inside the
    // parallel region would resolve to each worker's own (empty) buffer.
    CT* SMG_RESTRICT xq = xqbuf.data();
#pragma omp parallel for simd
    for (std::size_t q = 0; q < n; ++q) {
      xq[q] = q2[q] * x[q];
    }
    x = xqbuf.data();
  }
  const bool scaled = q2 != nullptr;

#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * bs; ++q) {
        y[base * bs + q] = CT{0};
      }
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const ST* araw =
            vals + (layout == Layout::SOA
                        ? (static_cast<std::int64_t>(d) * ncells + base) *
                              block2
                        : (line * nd + d) * static_cast<std::int64_t>(nx) *
                              block2);
        const CT* SMG_RESTRICT coef = widen_run<CT>(araw, runlen, coefbuf);
        const std::int64_t xoff = (base + r.shift) * bs;
        for (int i = r.ilo; i < r.ihi; ++i) {
          const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
          const CT* xv = x + xoff + static_cast<std::int64_t>(i) * bs;
          CT* yv = y + (base + i) * bs;
          for (int br = 0; br < bs; ++br) {
            CT acc{0};
            for (int bc = 0; bc < bs; ++bc) {
              acc = mul_add(blk[br * bs + bc], xv[bc], acc);
            }
            yv[br] += acc;
          }
        }
      }
      // Post pass: apply the row q2 recovery and/or the residual form.
      CT* SMG_RESTRICT yl = y + base * bs;
      const std::int64_t ndof = static_cast<std::int64_t>(nx) * bs;
      if (scaled) {
        const CT* SMG_RESTRICT ql = q2 + base * bs;
        if constexpr (kResidual) {
          const CT* SMG_RESTRICT bl = b + base * bs;
          for (std::int64_t q = 0; q < ndof; ++q) {
            yl[q] = mul_add(-ql[q], yl[q], bl[q]);
          }
        } else {
          for (std::int64_t q = 0; q < ndof; ++q) {
            yl[q] *= ql[q];
          }
        }
      } else if constexpr (kResidual) {
        const CT* SMG_RESTRICT bl = b + base * bs;
        for (std::int64_t q = 0; q < ndof; ++q) {
          yl[q] = bl[q] - yl[q];
        }
      }
    }
  }
}

}  // namespace detail

/// SOA kernel: y = b - A x (kResidual) or y = A x (otherwise), with optional
/// on-the-fly rescaling by q2 (length nrows).  b may be null iff !kResidual.
template <bool kResidual, class ST, class CT>
void apply_soa(const StructMat<ST>& A, const CT* SMG_RESTRICT x,
               const CT* SMG_RESTRICT b, CT* SMG_RESTRICT y,
               const CT* SMG_RESTRICT q2) {
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    if (A.block_size() == 1) {
      if (q2 != nullptr) {
        detail::apply_soa_f16_blocked<kResidual, true>(A, x, b, y, q2);
      } else {
        detail::apply_soa_f16_blocked<kResidual, false>(A, x, b, y, q2);
      }
      return;
    }
  }
#endif
  if (A.block_size() > 1) {
    detail::apply_soa_block_lines<kResidual>(A, x, b, y, q2);
    return;
  }
  // Scaled residual must go through spmv-then-subtract (see residual()):
  // q2_i cannot be folded into per-diagonal passes without scaling b too.
  SMG_CHECK(!(kResidual && q2 != nullptr), "scaled residual not fused");
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const std::int64_t ncells = A.ncells();
  const ST* SMG_RESTRICT vals = A.data();

  if (bs == 1) {
    const Layout layout = A.layout();
#pragma omp parallel for collapse(2) schedule(static)
    for (int k = 0; k < box.nz; ++k) {
      for (int j = 0; j < box.ny; ++j) {
        const std::int64_t base = box.idx(0, j, k);
        const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
        // Initialize the line: 0 for SpMV, b for residual.
        for (int i = 0; i < box.nx; ++i) {
          y[base + i] = kResidual ? b[base + i] : CT{0};
        }
        for (int d = 0; d < nd; ++d) {
          const DiagRange r = diag_range(box, st.offset(d), j, k);
          if (!r.line_valid || r.ihi <= r.ilo) {
            continue;
          }
          const ST* a = detail::line_diag_ptr(vals, layout, base, line, d,
                                              nd, ncells, box.nx);
          const std::int64_t xoff = base + r.shift;
          // For residual we subtract the A x contribution.
          if (q2 != nullptr) {
            detail::soa_diag_fma<kResidual, true>(
                a + r.ilo, x + xoff + r.ilo, q2 + xoff + r.ilo,
                y + base + r.ilo, r.ihi - r.ilo);
          } else {
            detail::soa_diag_fma<kResidual, false>(
                a + r.ilo, x + xoff + r.ilo, static_cast<const CT*>(nullptr),
                y + base + r.ilo, r.ihi - r.ilo);
          }
        }
        if (q2 != nullptr && !kResidual) {
          for (int i = 0; i < box.nx; ++i) {
            y[base + i] *= q2[base + i];
          }
        }
      }
    }
    return;
  }
}

/// AOS kernel: same contract as apply_soa.  For 2-byte ST this is the
/// "naive" mixed-precision variant paying one convert per entry.  The line
/// is split into boundary regions (per-entry range checks) and an interior
/// fast path over the line's valid diagonals only, so the AOS baseline is a
/// fair full-FP32 reference and the 2-byte slowdown isolates the fcvt cost.
template <bool kResidual, class ST, class CT>
void apply_aos(const StructMat<ST>& A, const CT* SMG_RESTRICT x,
               const CT* SMG_RESTRICT b, CT* SMG_RESTRICT y,
               const CT* SMG_RESTRICT q2) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  SMG_CHECK(nd <= 32, "stencil wider than 3x3x3 is unsupported");

#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      const std::int64_t base = box.idx(0, j, k);
      // Valid diagonals of this line, and the interior region where all of
      // them apply unconditionally.
      struct Valid {
        int d;
        int ilo, ihi;
        std::int64_t shift;
      };
      Valid vd[32];
      int nvalid = 0;
      int lo = 0;
      int hi = box.nx;
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        vd[nvalid++] = {d, r.ilo, r.ihi, r.shift};
        lo = std::max(lo, r.ilo);
        hi = std::min(hi, r.ihi);
      }
      hi = std::max(hi, lo);

      const auto cell_body = [&](int i, bool checked) {
        const std::int64_t cell = base + i;
        const ST* cell_vals = vals + cell * nd * block2;
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int v = 0; v < nvalid; ++v) {
            if (checked && (i < vd[v].ilo || i >= vd[v].ihi)) {
              continue;
            }
            const std::int64_t nbr = cell + vd[v].shift;
            const ST* blk = cell_vals + vd[v].d * block2;
            for (int bc = 0; bc < bs; ++bc) {
              CT xv = x[nbr * bs + bc];
              if (q2 != nullptr) {
                xv *= q2[nbr * bs + bc];
              }
              acc = detail::mul_add(detail::widen1<CT>(blk[br * bs + bc]),
                                    xv, acc);
            }
          }
          if (q2 != nullptr) {
            acc *= q2[cell * bs + br];
          }
          const std::int64_t row = cell * bs + br;
          y[row] = kResidual ? b[row] - acc : acc;
        }
      };

      for (int i = 0; i < lo; ++i) {
        cell_body(i, true);
      }
      for (int i = lo; i < hi; ++i) {
        cell_body(i, false);
      }
      for (int i = hi; i < box.nx; ++i) {
        cell_body(i, true);
      }
    }
  }
}

/// y = A x (optionally rescaled); dispatches on the stored layout.
template <class ST, class CT>
void spmv(const StructMat<ST>& A, std::span<const CT> x, std::span<CT> y,
          const CT* q2 = nullptr) {
  SMG_CHECK(static_cast<std::int64_t>(x.size()) == A.nrows() &&
                static_cast<std::int64_t>(y.size()) == A.nrows(),
            "spmv size mismatch");
  const obs::KernelSpan span(obs::Kind::SpMV);
  if (A.layout() != Layout::AOS) {
    apply_soa<false>(A, x.data(), static_cast<const CT*>(nullptr), y.data(),
                     q2);
  } else {
    apply_aos<false>(A, x.data(), static_cast<const CT*>(nullptr), y.data(),
                     q2);
  }
}

/// r = b - A x (optionally rescaled); dispatches on the stored layout.
template <class ST, class CT>
void residual(const StructMat<ST>& A, std::span<const CT> b,
              std::span<const CT> x, std::span<CT> r,
              const CT* q2 = nullptr) {
  SMG_CHECK(static_cast<std::int64_t>(x.size()) == A.nrows() &&
                static_cast<std::int64_t>(b.size()) == A.nrows() &&
                static_cast<std::int64_t>(r.size()) == A.nrows(),
            "residual size mismatch");
  // Outermost kernel span: the scaled fallback below calls spmv, whose own
  // span is suppressed by the nesting guard.
  const obs::KernelSpan span(obs::Kind::Residual);
  // The SOA-family block path and the register-blocked fp16 path fuse the
  // scaled residual correctly (the accumulator is separate from b until the
  // final combination).
  if (A.layout() != Layout::AOS && A.block_size() > 1) {
    apply_soa<true>(A, x.data(), b.data(), r.data(), q2);
    return;
  }
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    if (A.layout() != Layout::AOS && A.block_size() == 1) {
      apply_soa<true>(A, x.data(), b.data(), r.data(), q2);
      return;
    }
  }
#endif
  if (q2 != nullptr) {
    // The scaled-matrix residual cannot fold q2_i into per-diagonal passes
    // (the b term must stay unscaled), so compute y = A x then r = b - y.
    thread_local avec<CT> tmp;
    tmp.resize(static_cast<std::size_t>(A.nrows()));
    spmv(A, x, std::span<CT>{tmp.data(), tmp.size()}, q2);
    for (std::size_t i = 0; i < tmp.size(); ++i) {
      r[i] = b[i] - tmp[i];
    }
    return;
  }
  if (A.layout() != Layout::AOS) {
    apply_soa<true>(A, x.data(), b.data(), r.data(), q2);
  } else {
    apply_aos<true>(A, x.data(), b.data(), r.data(), q2);
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS (panel) kernels.
//
// The panel variants stream the stored matrix ONCE for all k interleaved
// columns of a MultiVector — the dominant traffic of every kernel above is
// the matrix itself (PAPER.md §5), so k right-hand sides amortize it ~k×.
// Column c of every panel kernel performs bitwise the same operations in the
// same order as the corresponding single-RHS kernel (the contract
// kernels/fused.hpp established for the fused downstroke):
//  * the AVX2 (half, float) paths perform one IEEE fma per element — exactly
//    what each lane of _mm256_fmadd_ps/_mm256_fnmadd_ps computes, with
//    skipped out-of-range cells bitwise neutral (a dead lane contributes
//    fma(0, x, acc) == acc by the stored-zero invariant, and the accumulator
//    can never be -0 mid-sum: it starts +0 and round-to-nearest addition
//    only yields -0 from (-0) + (-0));
//  * every other (layout, storage, compute) combination keeps the exact
//    scalar source shape of the kernel it mirrors, so the compiler makes the
//    same FP-contraction choice at both sites; the block-kernel folds, whose
//    contraction the optimizer resolves per vectorization context, are
//    pinned on BOTH sides via detail::mul_add.
// ---------------------------------------------------------------------------

namespace detail {

/// Panel analogue of soa_diag_fma: one diagonal run over kp interleaved
/// columns; a and q2 are per-row (amortized over the panel), x/y advance by
/// the row stride kp.
template <bool kSubtract, bool kScaled, class ST, class CT>
inline void panel_diag_fma(const ST* SMG_RESTRICT a, const CT* SMG_RESTRICT x,
                           const CT* SMG_RESTRICT q2, CT* SMG_RESTRICT y,
                           int n, int kp) noexcept {
  // A 1-column panel is laid out exactly like the plain vector, and the
  // single-RHS kernel is the bitwise reference the panel must reproduce —
  // delegating recovers its 8-rows-per-op AVX2 paths instead of paying the
  // per-row scalar setup below with a trivial inner loop.
  if (kp == 1) {
    soa_diag_fma<kSubtract, kScaled>(a, x, q2, y, n);
    return;
  }
#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    // Widen the diagonal run up front (vcvtph2ps converts exactly, like the
    // per-entry _cvtsh_ss it replaces), so the row loop streams plain
    // floats; the per-entry conversion is a per-nnz cost that does not
    // amortize over columns.  Each lane below performs the optional exact
    // q2 multiply and one IEEE fma — the same per-cell operation sequence
    // as the scalar remainder loop.
    constexpr int kChunk = 256;
    alignas(32) float af[kChunk];
    for (int i0 = 0; i0 < n; i0 += kChunk) {
      const int m = std::min(kChunk, n - i0);
      widen(a + i0, af, static_cast<std::size_t>(m));
      if (kp % 8 == 0) {
        for (int i = 0; i < m; ++i) {
          const __m256 av = _mm256_set1_ps(af[i]);
          const __m256 qv =
              kScaled ? _mm256_set1_ps(q2[i0 + i]) : _mm256_setzero_ps();
          const float* SMG_RESTRICT xr =
              x + static_cast<std::int64_t>(i0 + i) * kp;
          float* SMG_RESTRICT yr = y + static_cast<std::int64_t>(i0 + i) * kp;
          for (int c = 0; c < kp; c += 8) {
            __m256 xv = _mm256_loadu_ps(xr + c);
            if constexpr (kScaled) {
              xv = _mm256_mul_ps(xv, qv);
            }
            __m256 yv = _mm256_loadu_ps(yr + c);
            if constexpr (kSubtract) {
              yv = _mm256_fnmadd_ps(av, xv, yv);
            } else {
              yv = _mm256_fmadd_ps(av, xv, yv);
            }
            _mm256_storeu_ps(yr + c, yv);
          }
        }
      } else {
        for (int i = 0; i < m; ++i) {
          const float av = af[i];
          const float qv = kScaled ? q2[i0 + i] : 0.0f;
          const float* SMG_RESTRICT xr =
              x + static_cast<std::int64_t>(i0 + i) * kp;
          float* SMG_RESTRICT yr = y + static_cast<std::int64_t>(i0 + i) * kp;
#pragma omp simd
          for (int c = 0; c < kp; ++c) {
            float xv = xr[c];
            if constexpr (kScaled) {
              xv *= qv;
            }
            yr[c] =
                kSubtract ? std::fma(-av, xv, yr[c]) : std::fma(av, xv, yr[c]);
          }
        }
      }
    }
    return;
  }
  // Same-type panels: per lane the operation sequence is exactly the scalar
  // fallback's — optional q2 multiply, then one contracted multiply-add —
  // so the explicit form is bitwise neutral while removing the per-row
  // runtime-trip-count setup the auto-vectorizer emits for the loop below.
  if constexpr (std::is_same_v<ST, double> && std::is_same_v<CT, double>) {
    if (kp % 4 == 0) {
      for (int i = 0; i < n; ++i) {
        const __m256d av = _mm256_set1_pd(a[i]);
        const __m256d qv =
            kScaled ? _mm256_set1_pd(q2[i]) : _mm256_setzero_pd();
        const double* SMG_RESTRICT xr = x + static_cast<std::int64_t>(i) * kp;
        double* SMG_RESTRICT yr = y + static_cast<std::int64_t>(i) * kp;
        for (int c = 0; c < kp; c += 4) {
          __m256d xv = _mm256_loadu_pd(xr + c);
          if constexpr (kScaled) {
            xv = _mm256_mul_pd(xv, qv);
          }
          __m256d yv = _mm256_loadu_pd(yr + c);
          if constexpr (kSubtract) {
            yv = _mm256_fnmadd_pd(av, xv, yv);
          } else {
            yv = _mm256_fmadd_pd(av, xv, yv);
          }
          _mm256_storeu_pd(yr + c, yv);
        }
      }
      return;
    }
  }
  if constexpr (std::is_same_v<ST, float> && std::is_same_v<CT, float>) {
    if (kp % 8 == 0) {
      for (int i = 0; i < n; ++i) {
        const __m256 av = _mm256_set1_ps(a[i]);
        const __m256 qv =
            kScaled ? _mm256_set1_ps(q2[i]) : _mm256_setzero_ps();
        const float* SMG_RESTRICT xr = x + static_cast<std::int64_t>(i) * kp;
        float* SMG_RESTRICT yr = y + static_cast<std::int64_t>(i) * kp;
        for (int c = 0; c < kp; c += 8) {
          __m256 xv = _mm256_loadu_ps(xr + c);
          if constexpr (kScaled) {
            xv = _mm256_mul_ps(xv, qv);
          }
          __m256 yv = _mm256_loadu_ps(yr + c);
          if constexpr (kSubtract) {
            yv = _mm256_fnmadd_ps(av, xv, yv);
          } else {
            yv = _mm256_fmadd_ps(av, xv, yv);
          }
          _mm256_storeu_ps(yr + c, yv);
        }
      }
      return;
    }
  }
#endif
  for (int i = 0; i < n; ++i) {
    const CT* SMG_RESTRICT xr = x + static_cast<std::int64_t>(i) * kp;
    CT* SMG_RESTRICT yr = y + static_cast<std::int64_t>(i) * kp;
#pragma omp simd
    for (int c = 0; c < kp; ++c) {
      const CT ax = widen1<CT>(a[i]) * (kScaled ? q2[i] * xr[c] : xr[c]);
      yr[c] += kSubtract ? -ax : ax;
    }
  }
}

/// Per-matrix state reused across panel_lines calls; the AVX2 (half, float)
/// case hoists the F16LineProto descriptor out of the line loop exactly as
/// the single-RHS kernels do.
template <class ST, class CT>
struct PanelLineCtx {
  explicit PanelLineCtx(const StructMat<ST>&) {}
};

#if defined(SMG_SIMD_AVX2)
template <>
struct PanelLineCtx<half, float> {
  F16LineProto proto;
  explicit PanelLineCtx(const StructMat<half>& A) : proto(A) {}
};

/// Panel mirror of f16_run_line: per column the per-cell sequence (zero
/// accumulator, one fma per valid diagonal in descriptor order, q2
/// post-multiply, b - acc) is element-for-element what each SIMD lane of
/// the 8-wide kernel computes.  yl is the nx*kp local output panel and
/// doubles as the accumulator — CT stores are exact, so the intermediate
/// spills are bitwise neutral.
template <bool kResidual, bool kScaled>
inline void panel_f16_run_line(const half* SMG_RESTRICT am,
                               const float* SMG_RESTRICT xb,
                               const float* SMG_RESTRICT bb,
                               const float* SMG_RESTRICT q2b,
                               float* SMG_RESTRICT yl, int nx, int kp,
                               const F16LineDesc& d) noexcept {
  // A 1-column panel is the plain vector; the 8-wide single-RHS runner is
  // the bitwise reference (same per-cell sequence, per the contract above).
  if (kp == 1) {
    f16_run_line<kResidual, kScaled>(am, xb, bb, q2b, yl, nx, d);
    return;
  }
  for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * kp; ++q) {
    yl[q] = 0.0f;
  }
  // Widen each diagonal run up front (vcvtph2ps, exact like the per-entry
  // scalar convert): the conversion is per-nnz and must not be repaid per
  // column.  kChunk covers any realistic line length in one pass.
  constexpr int kChunk = 256;
  alignas(32) float af[kChunk];
  for (int v = 0; v < d.nv; ++v) {
    const half* SMG_RESTRICT av = am + d.aoff[v];
    const std::int64_t sh = d.shift[v];
    const int ihi = d.ihi[v];
    for (int i1 = d.ilo[v]; i1 < ihi; i1 += kChunk) {
      const int m = std::min(kChunk, ihi - i1);
      widen(av + i1, af, static_cast<std::size_t>(m));
      if (kp % 8 == 0) {
        for (int i = 0; i < m; ++i) {
          const __m256 a8 = _mm256_set1_ps(af[i]);
          const __m256 q8 =
              kScaled ? _mm256_set1_ps(q2b[sh + i1 + i]) : _mm256_setzero_ps();
          const float* SMG_RESTRICT xr =
              xb + (sh + i1 + i) * static_cast<std::int64_t>(kp);
          float* SMG_RESTRICT yr = yl + static_cast<std::int64_t>(i1 + i) * kp;
          for (int c = 0; c < kp; c += 8) {
            __m256 xv = _mm256_loadu_ps(xr + c);
            if constexpr (kScaled) {
              xv = _mm256_mul_ps(xv, q8);
            }
            _mm256_storeu_ps(
                yr + c, _mm256_fmadd_ps(a8, xv, _mm256_loadu_ps(yr + c)));
          }
        }
      } else {
        for (int i = 0; i < m; ++i) {
          const float a = af[i];
          const float qv = kScaled ? q2b[sh + i1 + i] : 0.0f;
          const float* SMG_RESTRICT xr =
              xb + (sh + i1 + i) * static_cast<std::int64_t>(kp);
          float* SMG_RESTRICT yr = yl + static_cast<std::int64_t>(i1 + i) * kp;
#pragma omp simd
          for (int c = 0; c < kp; ++c) {
            float xv = xr[c];
            if constexpr (kScaled) {
              xv *= qv;
            }
            yr[c] = std::fma(a, xv, yr[c]);
          }
        }
      }
    }
  }
  for (int i = 0; i < nx; ++i) {
    float* SMG_RESTRICT yr = yl + static_cast<std::int64_t>(i) * kp;
    const float qv = kScaled ? q2b[i] : 0.0f;
    const float* SMG_RESTRICT br =
        kResidual ? bb + static_cast<std::int64_t>(i) * kp : nullptr;
    if (kp % 8 == 0) {
      const __m256 q8 = kScaled ? _mm256_set1_ps(qv) : _mm256_setzero_ps();
      for (int c = 0; c < kp; c += 8) {
        __m256 acc = _mm256_loadu_ps(yr + c);
        if constexpr (kScaled) {
          acc = _mm256_mul_ps(acc, q8);
        }
        if constexpr (kResidual) {
          acc = _mm256_sub_ps(_mm256_loadu_ps(br + c), acc);
        }
        _mm256_storeu_ps(yr + c, acc);
      }
    } else {
#pragma omp simd
      for (int c = 0; c < kp; ++c) {
        float acc = yr[c];
        if constexpr (kScaled) {
          acc *= qv;
        }
        if constexpr (kResidual) {
          acc = br[c] - acc;
        }
        yr[c] = acc;
      }
    }
  }
}
#endif  // SMG_SIMD_AVX2

/// Panel residual / SpMV over lines j in [jlo, jhi) of plane k, written
/// contiguously to the local panel out[((j - jlo) * nx * bs + ...) * kp].
/// f and x are full panels (row-major, stride kp), q2 the plain per-row
/// vector.  Per (layout, storage, block size, q2) family this mirrors
/// residual_lines (kernels/fused.hpp) for kResidual and the spmv() dispatch
/// for !kResidual; kResidual requires f != nullptr.
template <bool kResidual, class ST, class CT>
void panel_lines(const PanelLineCtx<ST, CT>& ctx, const StructMat<ST>& A,
                 const CT* SMG_RESTRICT f, const CT* SMG_RESTRICT x,
                 const CT* SMG_RESTRICT q2, int k, int jlo, int jhi,
                 CT* SMG_RESTRICT out, int kp) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const ST* SMG_RESTRICT vals = A.data();
  const std::int64_t lstride = static_cast<std::int64_t>(nx) * bs;

  if (A.layout() == Layout::AOS) {
    // Mirror of apply_aos' line body / residual_lines' AOS branch: the panel
    // row doubles as the per-(cell, br) accumulator; with q2 the scaled
    // product is stored first and subtracted in a separate pass (the
    // intermediate store is the same rounding barrier residual() has).
    const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
    SMG_CHECK(nd <= 32, "stencil wider than 3x3x3 is unsupported");
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride * kp;
      const std::int64_t base = box.idx(0, j, k);
      struct Valid {
        int d;
        int ilo, ihi;
        std::int64_t shift;
      };
      Valid vd[32];
      int nvalid = 0;
      int lo = 0;
      int hi = nx;
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        vd[nvalid++] = {d, r.ilo, r.ihi, r.shift};
        lo = std::max(lo, r.ilo);
        hi = std::min(hi, r.ihi);
      }
      hi = std::max(hi, lo);
      const auto cell_body = [&](int i, bool checked) {
        const std::int64_t cell = base + i;
        const ST* cell_vals = vals + cell * nd * block2;
        for (int br = 0; br < bs; ++br) {
          CT* SMG_RESTRICT accr =
              rl + (static_cast<std::int64_t>(i) * bs + br) * kp;
          for (int c = 0; c < kp; ++c) {
            accr[c] = CT{0};
          }
          for (int v = 0; v < nvalid; ++v) {
            if (checked && (i < vd[v].ilo || i >= vd[v].ihi)) {
              continue;
            }
            const std::int64_t nbr = cell + vd[v].shift;
            const ST* blk = cell_vals + vd[v].d * block2;
            for (int bc = 0; bc < bs; ++bc) {
              const CT av = widen1<CT>(blk[br * bs + bc]);
              const CT qn = q2 != nullptr ? q2[nbr * bs + bc] : CT{0};
              const CT* SMG_RESTRICT xr = x + (nbr * bs + bc) * kp;
#pragma omp simd
              for (int c = 0; c < kp; ++c) {
                CT xv = xr[c];
                if (q2 != nullptr) {
                  xv *= qn;
                }
                accr[c] = mul_add(av, xv, accr[c]);
              }
            }
          }
          if (q2 != nullptr) {
            const CT qc = q2[cell * bs + br];
            for (int c = 0; c < kp; ++c) {
              accr[c] *= qc;
            }
          } else if constexpr (kResidual) {
            const CT* SMG_RESTRICT fr = f + (cell * bs + br) * kp;
            for (int c = 0; c < kp; ++c) {
              accr[c] = fr[c] - accr[c];
            }
          }
        }
      };
      for (int i = 0; i < lo; ++i) {
        cell_body(i, true);
      }
      for (int i = lo; i < hi; ++i) {
        cell_body(i, false);
      }
      for (int i = hi; i < nx; ++i) {
        cell_body(i, true);
      }
      if (q2 != nullptr && kResidual) {
        const CT* SMG_RESTRICT fl = f + base * bs * kp;
        for (std::int64_t q = 0; q < lstride * kp; ++q) {
          rl[q] = fl[q] - rl[q];
        }
      }
    }
    return;
  }

  const std::int64_t ncells = A.ncells();
  const Layout layout = A.layout();

  if (bs > 1) {
    // Mirror of apply_soa_block_lines / residual_lines' block branch: per
    // (line, diagonal) the block coefficients are widened once, the raw
    // matrix-vector sum accumulates into the panel row (per-(cell, br) block
    // products fold in a private accumulator first, exactly as the
    // single-RHS kernels), and f/q2 apply in a post pass.  The q2 .* x
    // operand is the same single multiply of the same operands.
    const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
    const std::size_t runlen =
        static_cast<std::size_t>(nx) * static_cast<std::size_t>(block2);
    thread_local avec<CT> coefbuf;
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride * kp;
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      for (std::int64_t q = 0; q < lstride * kp; ++q) {
        rl[q] = CT{0};
      }
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const ST* araw =
            vals +
            (layout == Layout::SOA
                 ? (static_cast<std::int64_t>(d) * ncells + base) * block2
                 : (line * nd + d) * static_cast<std::int64_t>(nx) * block2);
        const CT* SMG_RESTRICT coef = widen_run<CT>(araw, runlen, coefbuf);
        const std::int64_t xoff = (base + r.shift) * bs;
        for (int i = r.ilo; i < r.ihi; ++i) {
          const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
          const std::int64_t xrow = xoff + static_cast<std::int64_t>(i) * bs;
          for (int br = 0; br < bs; ++br) {
            CT* SMG_RESTRICT yr =
                rl + (static_cast<std::int64_t>(i) * bs + br) * kp;
#pragma omp simd
            for (int c = 0; c < kp; ++c) {
              CT acc{0};
              for (int bc = 0; bc < bs; ++bc) {
                CT xv = x[(xrow + bc) * kp + c];
                if (q2 != nullptr) {
                  xv = q2[xrow + bc] * xv;
                }
                acc = mul_add(blk[br * bs + bc], xv, acc);
              }
              yr[c] += acc;
            }
          }
        }
      }
      // Post pass: apply the row q2 recovery and/or the residual form.
      if (q2 != nullptr) {
        const CT* SMG_RESTRICT ql = q2 + base * bs;
        if constexpr (kResidual) {
          const CT* SMG_RESTRICT fl = f + base * bs * kp;
          for (std::int64_t q = 0; q < lstride; ++q) {
            CT* SMG_RESTRICT yr = rl + q * kp;
            const CT qc = ql[q];
            const CT* SMG_RESTRICT fr = fl + q * kp;
            for (int c = 0; c < kp; ++c) {
              yr[c] = mul_add(-qc, yr[c], fr[c]);
            }
          }
        } else {
          for (std::int64_t q = 0; q < lstride; ++q) {
            CT* SMG_RESTRICT yr = rl + q * kp;
            const CT qc = ql[q];
            for (int c = 0; c < kp; ++c) {
              yr[c] *= qc;
            }
          }
        }
      } else if constexpr (kResidual) {
        const CT* SMG_RESTRICT fl = f + base * bs * kp;
        for (std::int64_t q = 0; q < lstride * kp; ++q) {
          rl[q] = fl[q] - rl[q];
        }
      }
    }
    return;
  }

#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride * kp;
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      std::int64_t c_aoff[32];
      std::int64_t c_shift[32];
      int c_ilo[32];
      int c_ihi[32];
      const F16LineDesc d = f16_line_desc(ctx.proto, j, k, c_aoff,
                                          c_shift, c_ilo, c_ihi);
      const half* am = vals + ctx.proto.abase(base, line);
      const float* fb = kResidual ? f + base * kp : nullptr;
      if (q2 != nullptr) {
        panel_f16_run_line<kResidual, true>(am, x + base * kp, fb, q2 + base,
                                            rl, nx, kp, d);
      } else {
        panel_f16_run_line<kResidual, false>(am, x + base * kp, fb, nullptr,
                                             rl, nx, kp, d);
      }
    }
    return;
  }
#endif
  (void)ctx;

  if (q2 != nullptr) {
    // Mirror of the scaled generic path: y = A (q2 .* x) accumulated per
    // diagonal, row rescale, then (for the residual) r = f - y — the b term
    // must stay unscaled, so q2 cannot fold into the per-diagonal passes.
    for (int j = jlo; j < jhi; ++j) {
      CT* SMG_RESTRICT rl = out + (j - jlo) * lstride * kp;
      const std::int64_t base = box.idx(0, j, k);
      const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
      for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * kp; ++q) {
        rl[q] = CT{0};
      }
      for (int d = 0; d < nd; ++d) {
        const DiagRange r = diag_range(box, st.offset(d), j, k);
        if (!r.line_valid || r.ihi <= r.ilo) {
          continue;
        }
        const ST* a = line_diag_ptr(vals, layout, base, line, d, nd, ncells, nx);
        const std::int64_t xoff = base + r.shift;
        panel_diag_fma<false, true>(a + r.ilo, x + (xoff + r.ilo) * kp,
                                    q2 + xoff + r.ilo,
                                    rl + static_cast<std::int64_t>(r.ilo) * kp,
                                    r.ihi - r.ilo, kp);
      }
      for (int i = 0; i < nx; ++i) {
        CT* SMG_RESTRICT yr = rl + static_cast<std::int64_t>(i) * kp;
        const CT qc = q2[base + i];
        for (int c = 0; c < kp; ++c) {
          yr[c] *= qc;
        }
      }
      if constexpr (kResidual) {
        const CT* SMG_RESTRICT fl = f + base * kp;
        for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * kp; ++q) {
          rl[q] = fl[q] - rl[q];
        }
      }
    }
    return;
  }

  // Mirror of the unscaled generic path: init with f (residual) or zero
  // (SpMV), then the per-diagonal passes.
  for (int j = jlo; j < jhi; ++j) {
    CT* SMG_RESTRICT rl = out + (j - jlo) * lstride * kp;
    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    if constexpr (kResidual) {
      const CT* SMG_RESTRICT fl = f + base * kp;
      for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * kp; ++q) {
        rl[q] = fl[q];
      }
    } else {
      for (std::int64_t q = 0; q < static_cast<std::int64_t>(nx) * kp; ++q) {
        rl[q] = CT{0};
      }
    }
    for (int d = 0; d < nd; ++d) {
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const ST* a = line_diag_ptr(vals, layout, base, line, d, nd, ncells, nx);
      const std::int64_t xoff = base + r.shift;
      panel_diag_fma<kResidual, false>(
          a + r.ilo, x + (xoff + r.ilo) * kp, static_cast<const CT*>(nullptr),
          rl + static_cast<std::int64_t>(r.ilo) * kp, r.ihi - r.ilo, kp);
    }
  }
}

}  // namespace detail

/// Y = A X (optionally rescaled) for all columns of the panel in one sweep
/// of the stored matrix.  Column c is bitwise identical to
/// spmv(A, X[:,c], Y[:,c], q2).
template <class ST, class CT>
void spmv_many(const StructMat<ST>& A, const MultiVector<CT>& x,
               MultiVector<CT>& y, const CT* q2 = nullptr) {
  SMG_CHECK(x.rows() == A.nrows() && y.rows() == A.nrows() &&
                x.padded_cols() == y.padded_cols(),
            "spmv_many size mismatch");
  const obs::KernelSpan span(obs::Kind::SpMV);
  const detail::PanelLineCtx<ST, CT> ctx(A);
  const Box& box = A.box();
  const int bs = A.block_size();
  const int kp = x.padded_cols();
  const CT* xp = x.data();
  CT* yp = y.data();
#pragma omp parallel for schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    detail::panel_lines<false>(ctx, A, static_cast<const CT*>(nullptr), xp,
                               q2, k, 0, box.ny,
                               yp + box.idx(0, 0, k) * bs * kp, kp);
  }
}

/// R = B - A X (optionally rescaled), one matrix sweep for all columns.
/// Column c is bitwise identical to residual(A, B[:,c], X[:,c], R[:,c], q2).
template <class ST, class CT>
void residual_many(const StructMat<ST>& A, const MultiVector<CT>& b,
                   const MultiVector<CT>& x, MultiVector<CT>& r,
                   const CT* q2 = nullptr) {
  SMG_CHECK(x.rows() == A.nrows() && b.rows() == A.nrows() &&
                r.rows() == A.nrows() && x.padded_cols() == r.padded_cols() &&
                b.padded_cols() == r.padded_cols(),
            "residual_many size mismatch");
  const obs::KernelSpan span(obs::Kind::Residual);
  const detail::PanelLineCtx<ST, CT> ctx(A);
  const Box& box = A.box();
  const int bs = A.block_size();
  const int kp = x.padded_cols();
  const CT* bp = b.data();
  const CT* xp = x.data();
  CT* rp = r.data();
#pragma omp parallel for schedule(static)
  for (int k = 0; k < box.nz; ++k) {
    detail::panel_lines<true>(ctx, A, bp, xp, q2, k, 0, box.ny,
                              rp + box.idx(0, 0, k) * bs * kp, kp);
  }
}

/// Scalar reference SpMV used to validate the optimized kernels.
template <class ST, class CT>
void spmv_ref(const StructMat<ST>& A, std::span<const CT> x, std::span<CT> y,
              const CT* q2 = nullptr) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  for (int k = 0; k < box.nz; ++k) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t cell = box.idx(i, j, k);
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int d = 0; d < st.ndiag(); ++d) {
            const Offset& o = st.offset(d);
            if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
              continue;
            }
            const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
            for (int bc = 0; bc < bs; ++bc) {
              CT xv = x[nbr * bs + bc];
              if (q2 != nullptr) {
                xv *= q2[nbr * bs + bc];
              }
              acc += detail::widen1<CT>(A.at(cell, d, br, bc)) * xv;
            }
          }
          if (q2 != nullptr) {
            acc *= q2[cell * bs + br];
          }
          y[cell * bs + br] = acc;
        }
      }
    }
  }
}

}  // namespace smg
