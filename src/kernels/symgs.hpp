// Gauss-Seidel sweeps (the SymGS smoother / SpTRSV-shaped hotspot, §5).
//
// Forward sweep in lexicographic cell order; backward sweep reversed.  The
// diagonal (block) inverse is precomputed by smoother setup in compute
// precision from the *high-precision* matrix (Alg. 1 line 13); off-diagonal
// entries are read from storage precision with recover-and-rescale on the
// fly, exactly as SpMV.
//
// Vectorization strategy for the SOA layout (the "(opt)" variant of Fig. 7):
// every supported stencil has at most one same-line lower offset (-1,0,0) and
// one same-line upper offset (+1,0,0); all other offsets reference previous
// or later grid lines whose values are fixed for the duration of the current
// line.  Their contributions are therefore computed in a vectorized pre-pass
// (8 FP16 entries per vcvtph2ps; for (half, float) SpMV's register-blocked
// f16_run_line with the center and recurrence diagonals dropped), leaving a
// one-term scalar recurrence.  Scaled levels recover each neighbor as
// q2 * u on the fly in the scalar line sweep; the block sweep keeps a
// uq = q2 .* u buffer up to date instead.  The AOS path is the
// straightforward scalar sweep paying one convert per entry (the "(naive)"
// variant).
//
// Threading: every sweep accepts an optional WavefrontSchedule.  A valid
// schedule orders the same per-line (per-cell for AOS) bodies level by level
// — each item only ever reads items of strictly earlier (fully updated) or
// strictly later (untouched) levels, so any order or thread split within a
// level is *bitwise identical* to the sequential sweep (see
// grid/wavefront.hpp for the level function).  A null or invalid schedule,
// or one of the wrong granularity, means the plain sequential sweep.
//
// Interleaved recurrences: because lines of one level never read each
// other, the scalar (bs == 1) line sweep walks a line schedule at *every*
// thread count and runs the x-recurrences of kLineGroup same-level lines
// cell by cell side by side.  Each line's operation sequence is unchanged;
// only the latency chains (fma -> fma -> mul -> mul) of different lines
// overlap.  The schedule spreads a level over the OpenMP team only when it
// is threaded() and more than one thread is available.
//
// Zero-guess forward sweep (gs_forward_zero_guess): on u == 0 every
// later-in-order neighbor still holds zero, so its product is an exact +-0
// that leaves the accumulator unchanged (an accumulator that starts at +0
// can never become -0).  The sweep skips those diagonals (and the block
// sweep's uq = q2 .* u pre-pass: every uq it reads is written earlier in the
// same sweep), never reads u, and equals set_zero(u) followed by gs_forward
// bitwise — provided every stored value is finite, since Inf * 0 = NaN
// would otherwise vanish.
// The caller owns that guard (MGPrecond::cycle checks the level's
// truncation report).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/wavefront.hpp"
#include "kernels/loops.hpp"
#include "kernels/spmv.hpp"
#include "sgdia/struct_matrix.hpp"
#include "util/aligned.hpp"
#include "util/common.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace smg {

namespace detail {

/// Multiply the bs x bs row-major block at `blk` with vector `v`.
template <class CT>
inline void block_apply(const CT* blk, const CT* v, CT* out, int bs) noexcept {
  for (int br = 0; br < bs; ++br) {
    CT acc{0};
    for (int bc = 0; bc < bs; ++bc) {
      acc = mul_add(blk[br * bs + bc], v[bc], acc);
    }
    out[br] = acc;
  }
}

/// True if `wf` can drive a level-scheduled sweep at this granularity.
inline bool wf_usable(const WavefrontSchedule* wf,
                      WfGranularity gran) noexcept {
  return wf != nullptr && wf->valid() && wf->granularity() == gran;
}

/// True if a sweep should spread the levels of `wf` over the OpenMP team.
inline bool wf_threaded(const WavefrontSchedule& wf) noexcept {
#if defined(_OPENMP)
  return wf.threaded() && omp_get_max_threads() > 1;
#else
  (void)wf;
  return false;
#endif
}

/// Grow a thread workspace buffer to at least n entries (never shrinks, so
/// alternating level sizes do not re-initialize it on every call).
template <class T>
inline T* workspace(avec<T>& buf, std::size_t n) {
  if (buf.size() < n) {
    buf.resize(n);
  }
  return buf.data();
}

/// Run `body(item)` over every scheduled item, level by level (reversed for
/// the backward sweep); items of one level run in parallel.  One parallel
/// region covers the whole sweep — the per-level `omp for` barrier is the
/// only synchronization.
template <bool kForward, class Body>
inline void run_wavefront(const WavefrontSchedule& wf, const Body& body) {
  const int nlev = wf.nlevels();
#pragma omp parallel
  for (int s = 0; s < nlev; ++s) {
    const auto lv = wf.level(kForward ? s : nlev - 1 - s);
    const std::int64_t nl = static_cast<std::int64_t>(lv.size());
#pragma omp for schedule(static)
    for (std::int64_t t = 0; t < nl; ++t) {
      body(lv[static_cast<std::size_t>(t)]);
    }
  }
}

/// Run `body(j, k)` over all grid lines: wavefront-parallel when a usable
/// line-granularity schedule is supplied and threaded, sequential sweep
/// order otherwise (one line at a time gains nothing from the level order).
template <bool kForward, class Body>
inline void run_lines(const Box& box, const WavefrontSchedule* wf,
                      const Body& body) {
  if (wf_usable(wf, WfGranularity::Line) && wf_threaded(*wf)) {
    run_wavefront<kForward>(*wf, [&](std::int32_t line) {
      body(static_cast<int>(line % box.ny), static_cast<int>(line / box.ny));
    });
    return;
  }
  const int k0 = kForward ? 0 : box.nz - 1;
  const int kstep = kForward ? 1 : -1;
  for (int k = k0; k >= 0 && k < box.nz; k += kstep) {
    const int j0 = kForward ? 0 : box.ny - 1;
    for (int j = j0; j >= 0 && j < box.ny; j += kstep) {
      body(j, k);
    }
  }
}

/// Same-level lines whose recurrences the scalar line sweep interleaves.
inline constexpr int kLineGroup = 4;

/// Line-schedule driver of the scalar line sweep: level by level (reversed
/// for the backward sweep), each thread takes a contiguous share of the
/// level's lines and hands it to `group(lines, n)` in runs of at most
/// kLineGroup.  Sharing lines out before grouping them keeps every thread
/// busy on narrow levels.
template <bool kForward, class Group>
inline void run_line_groups(const WavefrontSchedule& wf, const Group& group) {
  const int nlev = wf.nlevels();
#pragma omp parallel if (wf_threaded(wf))
  {
    std::int64_t tid = 0;
    std::int64_t nt = 1;
#if defined(_OPENMP)
    tid = omp_get_thread_num();
    nt = omp_get_num_threads();
#endif
    for (int s = 0; s < nlev; ++s) {
      const auto lv = wf.level(kForward ? s : nlev - 1 - s);
      const std::int64_t n = static_cast<std::int64_t>(lv.size());
      const std::int64_t hi = n * (tid + 1) / nt;
      for (std::int64_t t = n * tid / nt; t < hi; t += kLineGroup) {
        group(lv.data() + t,
              static_cast<int>(std::min<std::int64_t>(kLineGroup, hi - t)));
      }
#pragma omp barrier
    }
  }
}

/// Drop mask (bit d = leave diagonal d out) of a line sweep's vectorized
/// pre-pass: the center (the smoother applies the inverse diagonal), the
/// in-line recurrence diagonal, and for a zero-guess sweep every diagonal
/// that points later in sweep order.
template <bool kZeroGuess>
inline std::uint32_t prepass_drop(const Stencil& st, int recur_d) noexcept {
  std::uint32_t drop = 0;
  for (int d = 0; d < st.ndiag(); ++d) {
    if (d == st.center() || d == recur_d ||
        (kZeroGuess && !st.offset(d).before_center())) {
      drop |= std::uint32_t{1} << d;
    }
  }
  return drop;
}

/// One line's operands for the scalar recurrence, each offset to the line's
/// first cell.
template <class CT>
struct GsLine {
  const CT* acc;  ///< pre-pass sums of the non-recurrence neighbors
  const CT* rec;  ///< recurrence-diagonal run in CT; null if none
  const CT* f;
  const CT* inv;
  const CT* q2;  ///< null when unscaled
  CT* u;
};

/// The per-cell recurrences of G lines of one wavefront level, interleaved
/// cell by cell so their latency chains overlap.  Every line performs the
/// single-line sequence exactly: s = acc + a_rec * uprev, rhs = f - (q2 *) s,
/// u = invdiag * rhs, where uprev is the previous cell's u (q2 * u when
/// scaled), carried in a register.
template <int G, bool kForward, bool kScaled, class CT>
inline void gs_recur_lines(const GsLine<CT>* ln, int nx) {
  if (nx <= 0) {
    return;
  }
  const auto finish = [](const GsLine<CT>& L, int i, CT s) {
    CT rhs = L.f[i];
    if constexpr (kScaled) {
      rhs = mul_add(-L.q2[i], s, rhs);
    } else {
      rhs -= s;
    }
    const CT unew = L.inv[i] * rhs;
    L.u[i] = unew;
    if constexpr (kScaled) {
      return L.q2[i] * unew;
    } else {
      return unew;
    }
  };
  const int istep = kForward ? 1 : -1;
  const int i0 = kForward ? 0 : nx - 1;
  const bool hasrec = ln[0].rec != nullptr;
  CT prev[G];
  for (int g = 0; g < G; ++g) {
    prev[g] = finish(ln[g], i0, ln[g].acc[i0]);
  }
  for (int i = i0 + istep; i >= 0 && i < nx; i += istep) {
    for (int g = 0; g < G; ++g) {
      CT s = ln[g].acc[i];
      if (hasrec) {
        s = mul_add(ln[g].rec[i], prev[g], s);
      }
      prev[g] = finish(ln[g], i, s);
    }
  }
}

template <bool kForward, bool kScaled, class CT>
inline void gs_recur_group(const GsLine<CT>* ln, int ng, int nx) {
  switch (ng) {
    case 4:
      gs_recur_lines<4, kForward, kScaled>(ln, nx);
      break;
    case 3:
      gs_recur_lines<3, kForward, kScaled>(ln, nx);
      break;
    case 2:
      gs_recur_lines<2, kForward, kScaled>(ln, nx);
      break;
    default:
      gs_recur_lines<1, kForward, kScaled>(ln, nx);
      break;
  }
}

/// Scalar Gauss-Seidel sweep over all cells in the given direction.
/// Works for any layout; the AOS ("naive") path for 2-byte storage.
/// Parallelized at cell granularity by a Cell wavefront schedule.
template <bool kForward, bool kZeroGuess, class ST, class CT>
void gs_sweep_scalar(const StructMat<ST>& A, std::span<const CT> f,
                     std::span<CT> u, std::span<const CT> invdiag,
                     const CT* SMG_RESTRICT q2, const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int center = st.center();
  SMG_CHECK(center >= 0, "GS sweep needs a diagonal entry");
  SMG_CHECK(bs <= 8, "block size > 8 unsupported");
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;

  const auto cell_body = [&](int i, int j, int k) {
    CT acc[8];
    CT upd[8];
    const std::int64_t cell = box.idx(i, j, k);
    for (int br = 0; br < bs; ++br) {
      acc[br] = f[cell * bs + br];
    }
    for (int d = 0; d < nd; ++d) {
      const Offset& o = st.offset(d);
      if (d == center || (kZeroGuess && !o.before_center())) {
        continue;
      }
      if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
        continue;
      }
      const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
      const ST* blk = A.data() + A.block_index(cell, d);
      for (int br = 0; br < bs; ++br) {
        CT s{0};
        for (int bc = 0; bc < bs; ++bc) {
          CT xv = u[nbr * bs + bc];
          if (q2 != nullptr) {
            xv *= q2[nbr * bs + bc];
          }
          s = mul_add(widen1<CT>(blk[br * bs + bc]), xv, s);
        }
        if (q2 != nullptr) {
          s *= q2[cell * bs + br];
        }
        acc[br] -= s;
      }
    }
    block_apply(invdiag.data() + cell * block2, acc, upd, bs);
    for (int br = 0; br < bs; ++br) {
      u[cell * bs + br] = upd[br];
    }
  };

  if (wf_usable(wf, WfGranularity::Cell)) {
    const std::int64_t nxy = static_cast<std::int64_t>(box.nx) * box.ny;
    run_wavefront<kForward>(*wf, [&](std::int32_t cell) {
      const int k = static_cast<int>(cell / nxy);
      const int rem = static_cast<int>(cell % nxy);
      cell_body(rem % box.nx, rem / box.nx, k);
    });
    return;
  }

  const int k0 = kForward ? 0 : box.nz - 1;
  const int kstep = kForward ? 1 : -1;
  for (int k = k0; k >= 0 && k < box.nz; k += kstep) {
    const int j0 = kForward ? 0 : box.ny - 1;
    for (int j = j0; j >= 0 && j < box.ny; j += kstep) {
      const int i0 = kForward ? 0 : box.nx - 1;
      for (int i = i0; i >= 0 && i < box.nx; i += kstep) {
        cell_body(i, j, k);
      }
    }
  }
}

/// Line-buffered sweep for SOA scalar (bs == 1) matrices: per line, a
/// vectorized pre-pass folds every neighbor except the in-line recurrence
/// one into an accumulator run (for (half, float) the register-blocked
/// f16_run_line of SpMV, with the same per-cell fold order), then the
/// scalar recurrences of up to kLineGroup same-level lines run interleaved.
template <bool kForward, bool kZeroGuess, class ST, class CT>
void gs_sweep_soa_lines(const StructMat<ST>& A, std::span<const CT> f,
                        std::span<CT> u, std::span<const CT> invdiag,
                        const CT* SMG_RESTRICT q2,
                        const WavefrontSchedule* wf) {
  static_assert(kForward || !kZeroGuess, "a zero-guess sweep runs forward");
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const std::int64_t ncells = A.ncells();
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();
  SMG_CHECK(nd <= 32, "stencil wider than 3x3x3 is unsupported");

  // The single same-line offset participating in the recurrence.
  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const std::uint32_t drop = prepass_drop<kZeroGuess>(st, recur_d);


  const auto sweep = [&](const auto& prepass) {
    const auto group = [&](const std::int32_t* lines, int ng) {
      thread_local avec<CT> accbuf;
      thread_local avec<CT> recbuf;
      const std::size_t need = static_cast<std::size_t>(kLineGroup) * nx;
      CT* acc = workspace(accbuf, need);
      CT* rec = workspace(recbuf, need);
      GsLine<CT> ln[kLineGroup];
      for (int g = 0; g < ng; ++g) {
        const int j = lines[g] % box.ny;
        const int k = lines[g] / box.ny;
        const std::int64_t base = box.idx(0, j, k);
        const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
        CT* SMG_RESTRICT a = acc + static_cast<std::int64_t>(g) * nx;
        prepass(j, k, base, line, a);
        ln[g].acc = a;
        ln[g].rec =
            recur_d >= 0
                ? widen_into<CT>(line_diag_ptr(vals, layout, base, line,
                                               recur_d, nd, ncells, nx),
                                 static_cast<std::size_t>(nx),
                                 rec + static_cast<std::int64_t>(g) * nx)
                : nullptr;
        ln[g].f = f.data() + base;
        ln[g].inv = invdiag.data() + base;
        ln[g].q2 = q2 != nullptr ? q2 + base : nullptr;
        ln[g].u = u.data() + base;
      }
      if (q2 != nullptr) {
        gs_recur_group<kForward, true>(ln, ng, nx);
      } else {
        gs_recur_group<kForward, false>(ln, ng, nx);
      }
    };
    if (wf_usable(wf, WfGranularity::Line)) {
      run_line_groups<kForward>(*wf, group);
      return;
    }
    const int k0 = kForward ? 0 : box.nz - 1;
    const int step = kForward ? 1 : -1;
    for (int k = k0; k >= 0 && k < box.nz; k += step) {
      const int j0 = kForward ? 0 : box.ny - 1;
      for (int j = j0; j >= 0 && j < box.ny; j += step) {
        const std::int32_t line = j + box.ny * k;
        group(&line, 1);
      }
    }
  };

#if defined(SMG_SIMD_AVX2)
  if constexpr (std::is_same_v<ST, half> && std::is_same_v<CT, float>) {
    const F16LineProto proto(A, drop);
    sweep([&](int j, int k, std::int64_t base, std::int64_t line,
              float* SMG_RESTRICT acc) {
      std::int64_t c_aoff[32];
      std::int64_t c_shift[32];
      int c_ilo[32];
      int c_ihi[32];
      const F16LineDesc d =
          f16_line_desc(proto, j, k, c_aoff, c_shift, c_ilo, c_ihi);
      const half* am = vals + proto.abase(base, line);
      if (q2 != nullptr) {
        f16_run_line<false, true, false>(am, u.data() + base, nullptr,
                                         q2 + base, acc, nx, d);
      } else {
        f16_run_line<false, false>(am, u.data() + base, nullptr, nullptr, acc,
                                   nx, d);
      }
    });
    return;
  }
#endif
  int pre[32];
  int npre = 0;
  for (int d = 0; d < nd; ++d) {
    if (((drop >> d) & 1U) == 0) {
      pre[npre++] = d;
    }
  }
  sweep([&](int j, int k, std::int64_t base, std::int64_t line,
            CT* SMG_RESTRICT acc) {
    for (int i = 0; i < nx; ++i) {
      acc[i] = CT{0};
    }
    for (int t = 0; t < npre; ++t) {
      const int d = pre[t];
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const ST* a =
          line_diag_ptr(vals, layout, base, line, d, nd, ncells, nx) + r.ilo;
      const std::int64_t x0 = base + r.shift + r.ilo;
      if (q2 != nullptr) {
        soa_diag_fma<false, true>(a, u.data() + x0, q2 + x0, acc + r.ilo,
                                  r.ihi - r.ilo);
      } else {
        soa_diag_fma<false, false>(a, u.data() + x0,
                                   static_cast<const CT*>(nullptr),
                                   acc + r.ilo, r.ihi - r.ilo);
      }
    }
  });
}

/// Line-buffered sweep for SOA-family block (bs > 1) matrices: per (line,
/// diagonal) the half blocks are widened once (SIMD) into an L1 buffer, the
/// off-line contributions accumulate into a per-line buffer, and only the
/// one same-line offset stays in the per-cell recurrence — the block
/// analogue of gs_sweep_soa_lines.
template <bool kForward, bool kZeroGuess, class ST, class CT>
void gs_sweep_block_lines(const StructMat<ST>& A, std::span<const CT> f,
                          std::span<CT> u, std::span<const CT> invdiag,
                          const CT* SMG_RESTRICT q2,
                          const WavefrontSchedule* wf) {
  static_assert(kForward || !kZeroGuess, "a zero-guess sweep runs forward");
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const std::int64_t ncells = A.ncells();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();
  const std::size_t runlen =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(block2);
  SMG_CHECK(bs <= 8, "block size > 8 unsupported");

  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const int recur_dx = kForward ? -1 : +1;
  const std::uint32_t drop = prepass_drop<kZeroGuess>(st, recur_d);

  // Scaled recovery: maintain uq = q2 .* u incrementally (updated together
  // with u in the recurrence) so the hot off-line pass reads one vector
  // instead of paying a load + multiply per matrix entry.  The buffer is
  // owned by the calling thread; wavefront workers share it through the
  // pointer (each line only writes its own entries).  A zero-guess sweep
  // skips the pre-pass: every uq it reads is written earlier in the sweep.
  thread_local avec<CT> uqbuf;
  CT* SMG_RESTRICT uq = nullptr;
  if (q2 != nullptr) {
    uq = workspace(uqbuf, u.size());
    if constexpr (!kZeroGuess) {
      const CT* SMG_RESTRICT up = u.data();
#pragma omp parallel for simd
      for (std::size_t q = 0; q < u.size(); ++q) {
        uq[q] = q2[q] * up[q];
      }
    }
  }
  const CT* SMG_RESTRICT uread = uq != nullptr ? uq : u.data();

  const auto run_ptr = [&](std::int64_t base, std::int64_t line, int d) {
    return vals + (layout == Layout::SOA
                       ? (static_cast<std::int64_t>(d) * ncells + base) *
                             block2
                       : (line * nd + d) * static_cast<std::int64_t>(nx) *
                             block2);
  };

  const auto line_body = [&](int j, int k) {
    thread_local avec<CT> accbuf;
    thread_local avec<CT> coefbuf;
    thread_local avec<CT> recurbuf;
    accbuf.resize(static_cast<std::size_t>(nx) * bs);
    CT* SMG_RESTRICT acc = accbuf.data();
    CT s[8] = {};
    CT upd[8];

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (std::size_t q = 0; q < static_cast<std::size_t>(nx) * bs; ++q) {
      acc[q] = CT{0};
    }
    // Off-line (and same-line old-value) contributions.
    for (int d = 0; d < nd; ++d) {
      if (((drop >> d) & 1U) != 0) {
        continue;
      }
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const CT* coef = widen_run<CT>(run_ptr(base, line, d), runlen,
                                     coefbuf);
      const std::int64_t xoff = (base + r.shift) * bs;
      for (int i = r.ilo; i < r.ihi; ++i) {
        const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
        const CT* xv = uread + xoff + static_cast<std::int64_t>(i) * bs;
        CT* av = acc + static_cast<std::int64_t>(i) * bs;
        for (int br = 0; br < bs; ++br) {
          CT a2{0};
          for (int bc = 0; bc < bs; ++bc) {
            a2 = mul_add(blk[br * bs + bc], xv[bc], a2);
          }
          av[br] += a2;
        }
      }
    }
    // Per-cell recurrence with the same-line coupling block.
    const CT* rec = recur_d >= 0
                        ? widen_run<CT>(run_ptr(base, line, recur_d),
                                        runlen, recurbuf)
                        : nullptr;
    const int i0 = kForward ? 0 : nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < nx; i += istep) {
      const std::int64_t cell = base + i;
      for (int br = 0; br < bs; ++br) {
        s[br] = acc[static_cast<std::int64_t>(i) * bs + br];
      }
      const int inbr = i + recur_dx;
      if (rec != nullptr && inbr >= 0 && inbr < nx) {
        const CT* blk = rec + static_cast<std::int64_t>(i) * block2;
        const CT* xv = uread + (base + inbr) * bs;
        for (int br = 0; br < bs; ++br) {
          CT a2{0};
          for (int bc = 0; bc < bs; ++bc) {
            a2 = mul_add(blk[br * bs + bc], xv[bc], a2);
          }
          s[br] += a2;
        }
      }
      for (int br = 0; br < bs; ++br) {
        CT rhs = f[cell * bs + br];
        if (q2 != nullptr) {
          rhs = mul_add(-q2[cell * bs + br], s[br], rhs);
        } else {
          rhs -= s[br];
        }
        s[br] = rhs;
      }
      block_apply(invdiag.data() + cell * block2, s, upd, bs);
      for (int br = 0; br < bs; ++br) {
        u[cell * bs + br] = upd[br];
        if (uq != nullptr) {
          uq[cell * bs + br] = q2[cell * bs + br] * upd[br];
        }
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Multi-RHS (panel) sweeps: one pass over the stored matrix smooths all k
// columns of a MultiVector.  Column c performs bitwise the same operations
// in the same order as the single-RHS sweep of the same family — the
// vectorized pre-pass goes through panel_diag_fma (whose per-column contract
// matches soa_diag_fma, f16 path included), and the scalar recurrence keeps
// the single sweep's exact source shapes (it is scalar C++ in the single
// kernels too, for every storage type).  Mul-accumulate folds whose FP
// contraction the optimizer would otherwise resolve per vectorization
// context are pinned on both sides via detail::mul_add (see spmv.hpp), so
// differently-shaped surrounding loops cannot break the per-column
// identity.  Wavefront schedules parallelize the
// panel sweep through the same run_lines/run_wavefront machinery, so the
// bitwise-identity-at-any-thread-count property carries over unchanged.
// ---------------------------------------------------------------------------

namespace detail {

/// Panel mirror of gs_sweep_soa_lines (SOA-family, bs == 1).
template <bool kForward, class ST, class CT>
void panel_gs_sweep_soa_lines(const StructMat<ST>& A, const MultiVector<CT>& f,
                              MultiVector<CT>& u, std::span<const CT> invdiag,
                              const CT* SMG_RESTRICT q2,
                              const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int nd = st.ndiag();
  const int center = st.center();
  const int kp = u.padded_cols();
  const std::int64_t ncells = A.ncells();
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();

  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const int recur_dx = kForward ? -1 : +1;

  // Scaled recovery: maintain the uq = q2 .* u panel incrementally, exactly
  // as the single-RHS sweep maintains its vector (same multiply, same
  // operands, per column).
  thread_local avec<CT> uqbuf;
  const CT* SMG_RESTRICT uread = u.data();
  CT* SMG_RESTRICT uq = nullptr;
  if (q2 != nullptr) {
    const std::size_t n = u.size();
    uqbuf.resize(n);
    CT* SMG_RESTRICT uqp = uqbuf.data();
    const CT* SMG_RESTRICT up = u.data();
    const std::int64_t rows = u.rows();
#pragma omp parallel for schedule(static)
    for (std::int64_t rrow = 0; rrow < rows; ++rrow) {
      const CT qv = q2[rrow];
      const CT* SMG_RESTRICT ur = up + rrow * kp;
      CT* SMG_RESTRICT qr = uqp + rrow * kp;
#pragma omp simd
      for (int c = 0; c < kp; ++c) {
        qr[c] = qv * ur[c];
      }
    }
    uq = uqbuf.data();
    uread = uq;
  }

  const auto line_body = [&](int j, int k) {
    thread_local avec<CT> accbuf;
    accbuf.resize(static_cast<std::size_t>(box.nx) * kp);
    CT* SMG_RESTRICT acc = accbuf.data();

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (std::int64_t q = 0; q < static_cast<std::int64_t>(box.nx) * kp; ++q) {
      acc[q] = CT{0};
    }
    for (int d = 0; d < nd; ++d) {
      if (d == center || d == recur_d) {
        continue;
      }
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const ST* a =
          line_diag_ptr(vals, layout, base, line, d, nd, ncells, box.nx);
      const std::int64_t xoff = base + r.shift;
      panel_diag_fma<false, false>(
          a + r.ilo, uread + (xoff + r.ilo) * kp,
          static_cast<const CT*>(nullptr),
          acc + static_cast<std::int64_t>(r.ilo) * kp, r.ihi - r.ilo, kp);
    }
    const ST* arec = recur_d >= 0
                         ? line_diag_ptr(vals, layout, base, line, recur_d,
                                         nd, ncells, box.nx)
                         : nullptr;
    // Widen the recurrence run once per line (exact conversion, same value
    // as the per-row widen1): the conversion is per-row work that cannot
    // amortize over the kp columns of the recurrence body.
    thread_local avec<CT> recbuf;
    const CT* SMG_RESTRICT arecw =
        arec != nullptr
            ? widen_run<CT>(arec, static_cast<std::size_t>(box.nx), recbuf)
            : nullptr;
    const CT* SMG_RESTRICT fp = f.data();
    CT* SMG_RESTRICT up = u.data();
    const int i0 = kForward ? 0 : box.nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < box.nx; i += istep) {
      const int inbr = i + recur_dx;
      const bool hasrec = arec != nullptr && inbr >= 0 && inbr < box.nx;
      const CT arecv = hasrec ? arecw[i] : CT{0};
      const CT* SMG_RESTRICT urd =
          hasrec ? uread + (base + inbr) * kp : nullptr;
      const CT* SMG_RESTRICT accr = acc + static_cast<std::int64_t>(i) * kp;
      const CT* SMG_RESTRICT fr = fp + (base + i) * kp;
      CT* SMG_RESTRICT ur = up + (base + i) * kp;
      CT* SMG_RESTRICT uqr = uq != nullptr ? uq + (base + i) * kp : nullptr;
      const CT qcell = q2 != nullptr ? q2[base + i] : CT{0};
      const CT idv = invdiag[static_cast<std::size_t>(base + i)];
#pragma omp simd
      for (int c = 0; c < kp; ++c) {
        CT s = accr[c];
        if (hasrec) {
          s = mul_add(arecv, urd[c], s);
        }
        CT rhs = fr[c];
        if (q2 != nullptr) {
          rhs = mul_add(-qcell, s, rhs);
        } else {
          rhs -= s;
        }
        const CT unew = idv * rhs;
        ur[c] = unew;
        if (uqr != nullptr) {
          uqr[c] = qcell * unew;
        }
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

/// Panel mirror of gs_sweep_block_lines (SOA-family, bs > 1).
template <bool kForward, class ST, class CT>
void panel_gs_sweep_block_lines(const StructMat<ST>& A,
                                const MultiVector<CT>& f, MultiVector<CT>& u,
                                std::span<const CT> invdiag,
                                const CT* SMG_RESTRICT q2,
                                const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int nx = box.nx;
  const int center = st.center();
  const int kp = u.padded_cols();
  const std::int64_t ncells = A.ncells();
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const ST* SMG_RESTRICT vals = A.data();
  const Layout layout = A.layout();
  const std::size_t runlen =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(block2);
  SMG_CHECK(bs <= 8, "block size > 8 unsupported");

  const int recur_d = kForward ? st.find(-1, 0, 0) : st.find(+1, 0, 0);
  const int recur_dx = kForward ? -1 : +1;

  thread_local avec<CT> uqbuf;
  const CT* SMG_RESTRICT uread = u.data();
  CT* SMG_RESTRICT uq = nullptr;
  if (q2 != nullptr) {
    const std::size_t n = u.size();
    uqbuf.resize(n);
    CT* SMG_RESTRICT uqp = uqbuf.data();
    const CT* SMG_RESTRICT up = u.data();
    const std::int64_t rows = u.rows();
#pragma omp parallel for schedule(static)
    for (std::int64_t rrow = 0; rrow < rows; ++rrow) {
      const CT qv = q2[rrow];
      const CT* SMG_RESTRICT ur = up + rrow * kp;
      CT* SMG_RESTRICT qr = uqp + rrow * kp;
#pragma omp simd
      for (int c = 0; c < kp; ++c) {
        qr[c] = qv * ur[c];
      }
    }
    uq = uqbuf.data();
    uread = uq;
  }

  const auto run_ptr = [&](std::int64_t base, std::int64_t line, int d) {
    return vals + (layout == Layout::SOA
                       ? (static_cast<std::int64_t>(d) * ncells + base) *
                             block2
                       : (line * nd + d) * static_cast<std::int64_t>(nx) *
                             block2);
  };

  const auto line_body = [&](int j, int k) {
    thread_local avec<CT> accbuf;
    thread_local avec<CT> coefbuf;
    thread_local avec<CT> recurbuf;
    accbuf.resize(static_cast<std::size_t>(nx) * bs * kp);
    CT* SMG_RESTRICT acc = accbuf.data();
    CT s[8];
    CT upd[8];

    const std::int64_t base = box.idx(0, j, k);
    const std::int64_t line = j + static_cast<std::int64_t>(box.ny) * k;
    for (std::int64_t q = 0;
         q < static_cast<std::int64_t>(nx) * bs * kp; ++q) {
      acc[q] = CT{0};
    }
    for (int d = 0; d < nd; ++d) {
      if (d == center || d == recur_d) {
        continue;
      }
      const DiagRange r = diag_range(box, st.offset(d), j, k);
      if (!r.line_valid || r.ihi <= r.ilo) {
        continue;
      }
      const CT* coef = widen_run<CT>(run_ptr(base, line, d), runlen, coefbuf);
      const std::int64_t xoff = (base + r.shift) * bs;
      for (int i = r.ilo; i < r.ihi; ++i) {
        const CT* blk = coef + static_cast<std::int64_t>(i) * block2;
        const std::int64_t xrow = xoff + static_cast<std::int64_t>(i) * bs;
        for (int br = 0; br < bs; ++br) {
          CT* SMG_RESTRICT av =
              acc + (static_cast<std::int64_t>(i) * bs + br) * kp;
#pragma omp simd
          for (int c = 0; c < kp; ++c) {
            CT a2{0};
            for (int bc = 0; bc < bs; ++bc) {
              a2 = mul_add(blk[br * bs + bc], uread[(xrow + bc) * kp + c],
                           a2);
            }
            av[c] += a2;
          }
        }
      }
    }
    const CT* rec = recur_d >= 0 ? widen_run<CT>(run_ptr(base, line, recur_d),
                                                 runlen, recurbuf)
                                 : nullptr;
    const CT* SMG_RESTRICT fp = f.data();
    CT* SMG_RESTRICT up = u.data();
    const int i0 = kForward ? 0 : nx - 1;
    const int istep = kForward ? 1 : -1;
    for (int i = i0; i >= 0 && i < nx; i += istep) {
      const std::int64_t cell = base + i;
      const int inbr = i + recur_dx;
      const bool hasrec = rec != nullptr && inbr >= 0 && inbr < nx;
      const CT* blkrec =
          hasrec ? rec + static_cast<std::int64_t>(i) * block2 : nullptr;
      for (int c = 0; c < kp; ++c) {
        for (int br = 0; br < bs; ++br) {
          s[br] = acc[(static_cast<std::int64_t>(i) * bs + br) * kp + c];
        }
        if (hasrec) {
          for (int br = 0; br < bs; ++br) {
            CT a2{0};
            for (int bc = 0; bc < bs; ++bc) {
              a2 = mul_add(blkrec[br * bs + bc],
                           uread[((base + inbr) * bs + bc) * kp + c], a2);
            }
            s[br] += a2;
          }
        }
        for (int br = 0; br < bs; ++br) {
          CT rhs = fp[(cell * bs + br) * kp + c];
          if (q2 != nullptr) {
            rhs = mul_add(-q2[cell * bs + br], s[br], rhs);
          } else {
            rhs -= s[br];
          }
          s[br] = rhs;
        }
        block_apply(invdiag.data() + cell * block2, s, upd, bs);
        for (int br = 0; br < bs; ++br) {
          up[(cell * bs + br) * kp + c] = upd[br];
          if (uq != nullptr) {
            uq[(cell * bs + br) * kp + c] = q2[cell * bs + br] * upd[br];
          }
        }
      }
    }
  };

  run_lines<kForward>(box, wf, line_body);
}

/// Panel mirror of gs_sweep_scalar (AOS; per-column scalar cell bodies,
/// parallelized at cell granularity by a Cell wavefront schedule).
template <bool kForward, class ST, class CT>
void panel_gs_sweep_scalar(const StructMat<ST>& A, const MultiVector<CT>& f,
                           MultiVector<CT>& u, std::span<const CT> invdiag,
                           const CT* SMG_RESTRICT q2,
                           const WavefrontSchedule* wf) {
  const Box& box = A.box();
  const Stencil& st = A.stencil();
  const int bs = A.block_size();
  const int nd = st.ndiag();
  const int center = st.center();
  const int kp = u.padded_cols();
  SMG_CHECK(center >= 0, "GS sweep needs a diagonal entry");
  SMG_CHECK(bs <= 8, "block size > 8 unsupported");
  const std::int64_t block2 = static_cast<std::int64_t>(bs) * bs;
  const CT* SMG_RESTRICT fp = f.data();
  CT* SMG_RESTRICT up = u.data();

  const auto cell_body = [&](int i, int j, int k) {
    CT acc[8];
    CT upd[8];
    const std::int64_t cell = box.idx(i, j, k);
    for (int c = 0; c < kp; ++c) {
      for (int br = 0; br < bs; ++br) {
        acc[br] = fp[(cell * bs + br) * kp + c];
      }
      for (int d = 0; d < nd; ++d) {
        if (d == center) {
          continue;
        }
        const Offset& o = st.offset(d);
        if (!box.contains(i + o.dx, j + o.dy, k + o.dz)) {
          continue;
        }
        const std::int64_t nbr = box.idx(i + o.dx, j + o.dy, k + o.dz);
        const ST* blk = A.data() + A.block_index(cell, d);
        for (int br = 0; br < bs; ++br) {
          CT s{0};
          for (int bc = 0; bc < bs; ++bc) {
            CT xv = up[(nbr * bs + bc) * kp + c];
            if (q2 != nullptr) {
              xv *= q2[nbr * bs + bc];
            }
            s = mul_add(widen1<CT>(blk[br * bs + bc]), xv, s);
          }
          if (q2 != nullptr) {
            s *= q2[cell * bs + br];
          }
          acc[br] -= s;
        }
      }
      block_apply(invdiag.data() + cell * block2, acc, upd, bs);
      for (int br = 0; br < bs; ++br) {
        up[(cell * bs + br) * kp + c] = upd[br];
      }
    }
  };

  if (wf_usable(wf, WfGranularity::Cell)) {
    const std::int64_t nxy = static_cast<std::int64_t>(box.nx) * box.ny;
    run_wavefront<kForward>(*wf, [&](std::int32_t cell) {
      const int k = static_cast<int>(cell / nxy);
      const int rem = static_cast<int>(cell % nxy);
      cell_body(rem % box.nx, rem / box.nx, k);
    });
    return;
  }

  const int k0 = kForward ? 0 : box.nz - 1;
  const int kstep = kForward ? 1 : -1;
  for (int k = k0; k >= 0 && k < box.nz; k += kstep) {
    const int j0 = kForward ? 0 : box.ny - 1;
    for (int j = j0; j >= 0 && j < box.ny; j += kstep) {
      const int i0 = kForward ? 0 : box.nx - 1;
      for (int i = i0; i >= 0 && i < box.nx; i += kstep) {
        cell_body(i, j, k);
      }
    }
  }
}

}  // namespace detail

/// One forward Gauss-Seidel panel sweep over all columns of the MultiVector;
/// column c is bitwise identical to gs_forward on that column.
template <class ST, class CT>
void gs_forward_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                     MultiVector<CT>& u, std::span<const CT> invdiag,
                     const CT* q2 = nullptr,
                     const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  if (A.layout() != Layout::AOS) {
    if (A.block_size() == 1) {
      detail::panel_gs_sweep_soa_lines<true>(A, f, u, invdiag, q2, wf);
    } else {
      detail::panel_gs_sweep_block_lines<true>(A, f, u, invdiag, q2, wf);
    }
  } else {
    detail::panel_gs_sweep_scalar<true>(A, f, u, invdiag, q2, wf);
  }
}

/// One backward Gauss-Seidel panel sweep; column-wise mirror of gs_backward.
template <class ST, class CT>
void gs_backward_many(const StructMat<ST>& A, const MultiVector<CT>& f,
                      MultiVector<CT>& u, std::span<const CT> invdiag,
                      const CT* q2 = nullptr,
                      const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  if (A.layout() != Layout::AOS) {
    if (A.block_size() == 1) {
      detail::panel_gs_sweep_soa_lines<false>(A, f, u, invdiag, q2, wf);
    } else {
      detail::panel_gs_sweep_block_lines<false>(A, f, u, invdiag, q2, wf);
    }
  } else {
    detail::panel_gs_sweep_scalar<false>(A, f, u, invdiag, q2, wf);
  }
}

namespace detail {

/// Layout / block-size dispatch of one single-vector sweep.
template <bool kForward, bool kZeroGuess, class ST, class CT>
void gs_sweep(const StructMat<ST>& A, std::span<const CT> f, std::span<CT> u,
              std::span<const CT> invdiag, const CT* q2,
              const WavefrontSchedule* wf) {
  if (A.layout() != Layout::AOS) {
    if (A.block_size() == 1) {
      gs_sweep_soa_lines<kForward, kZeroGuess>(A, f, u, invdiag, q2, wf);
    } else {
      gs_sweep_block_lines<kForward, kZeroGuess>(A, f, u, invdiag, q2, wf);
    }
  } else {
    gs_sweep_scalar<kForward, kZeroGuess>(A, f, u, invdiag, q2, wf);
  }
}

}  // namespace detail

/// One forward Gauss-Seidel sweep: u <- (D + L)^{-1} (f - U u).
/// For lower-triangular-pattern matrices this *is* SpTRSV.
/// A usable wavefront schedule (line granularity for SOA/SOAL, cell for AOS)
/// orders the sweep by levels with bitwise-identical results at any thread
/// count; otherwise the sweep is sequential.
template <class ST, class CT>
void gs_forward(const StructMat<ST>& A, std::span<const CT> f, std::span<CT> u,
                std::span<const CT> invdiag, const CT* q2 = nullptr,
                const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  detail::gs_sweep<true, false>(A, f, u, invdiag, q2, wf);
}

/// The first forward sweep from a zero initial guess: u <- (D + L)^{-1} f.
/// Skips every later-in-order diagonal and the uq pre-pass, and never reads
/// u — bitwise equal to set_zero(u) then gs_forward whenever every stored
/// value of A is finite (the caller's guard; see the header comment).
template <class ST, class CT>
void gs_forward_zero_guess(const StructMat<ST>& A, std::span<const CT> f,
                           std::span<CT> u, std::span<const CT> invdiag,
                           const CT* q2 = nullptr,
                           const WavefrontSchedule* wf = nullptr) {
  obs::KernelSpan span(obs::Kind::SymGS);
  span.mark_zero_guess();
  detail::gs_sweep<true, true>(A, f, u, invdiag, q2, wf);
}

/// One backward Gauss-Seidel sweep: u <- (D + U)^{-1} (f - L u).
template <class ST, class CT>
void gs_backward(const StructMat<ST>& A, std::span<const CT> f,
                 std::span<CT> u, std::span<const CT> invdiag,
                 const CT* q2 = nullptr,
                 const WavefrontSchedule* wf = nullptr) {
  const obs::KernelSpan span(obs::Kind::SymGS);
  detail::gs_sweep<false, false>(A, f, u, invdiag, q2, wf);
}

}  // namespace smg
