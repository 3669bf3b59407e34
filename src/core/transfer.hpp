// Geometric transfer operators between consecutive levels.
//
// Vertex-aligned full coarsening: coarse index I maps to fine index 2I along
// every coarsened dimension (a dimension shorter than MGConfig::min_dim is
// left uncoarsened — StructMG-style semicoarsening falls out of this for
// pencil-shaped grids).  Prolongation P is (tri)linear interpolation and the
// restriction is *normalized full weighting* R = (1/2^d) P^T where d is the
// number of coarsened dimensions.  Any R = c P^T yields the same Galerkin
// correction in exact arithmetic; the 1/2-per-dimension normalization keeps
// coarse-operator magnitudes on the same scale as the fine operator, which
// matters once levels are truncated to FP16: an unnormalized P^T grows
// entries ~4x per level and silently re-creates the overflow that scaling
// just removed.  Per-dimension interpolation weights: an even fine point
// copies its coarse owner (weight 1), an odd fine point averages its two
// coarse neighbors (weight 1/2 each, boundary-truncated).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/box.hpp"
#include "obs/telemetry.hpp"
#include "util/common.hpp"
#include "util/multivector.hpp"

namespace smg {

/// Geometry of one coarsening step.
struct Coarsening {
  Box fine{};
  Box coarse{};
  std::array<bool, 3> mask{};  ///< which dims were halved

  static Coarsening make(const Box& fine, int min_dim) {
    Coarsening c;
    c.fine = fine;
    c.mask = {fine.nx >= min_dim, fine.ny >= min_dim, fine.nz >= min_dim};
    c.coarse = Box{c.mask[0] ? (fine.nx + 1) / 2 : fine.nx,
                   c.mask[1] ? (fine.ny + 1) / 2 : fine.ny,
                   c.mask[2] ? (fine.nz + 1) / 2 : fine.nz};
    return c;
  }

  /// Coupling-aware variant (StructMG-style "high-dimensional coarsening"):
  /// a dimension is only halved if it is long enough AND its directional
  /// coupling strength is at least `threshold` times the strongest
  /// coarsenable dimension's.  Point smoothers leave error smooth along
  /// strongly coupled directions only, so semicoarsening the strong
  /// direction(s) is what keeps anisotropic problems (the paper's weather
  /// case) converging grid-independently.
  static Coarsening make(const Box& fine, int min_dim,
                         const std::array<double, 3>& strength,
                         double threshold) {
    Coarsening c;
    c.fine = fine;
    const std::array<bool, 3> can = {fine.nx >= min_dim, fine.ny >= min_dim,
                                     fine.nz >= min_dim};
    double smax = 0.0;
    for (int d = 0; d < 3; ++d) {
      if (can[static_cast<std::size_t>(d)]) {
        smax = std::max(smax, strength[static_cast<std::size_t>(d)]);
      }
    }
    for (int d = 0; d < 3; ++d) {
      c.mask[static_cast<std::size_t>(d)] =
          can[static_cast<std::size_t>(d)] &&
          strength[static_cast<std::size_t>(d)] >= threshold * smax;
    }
    c.coarse = Box{c.mask[0] ? (fine.nx + 1) / 2 : fine.nx,
                   c.mask[1] ? (fine.ny + 1) / 2 : fine.ny,
                   c.mask[2] ? (fine.nz + 1) / 2 : fine.nz};
    return c;
  }

  bool any() const noexcept { return mask[0] || mask[1] || mask[2]; }

  /// Full-weighting normalization: R = restrict_scale() * P^T.
  double restrict_scale() const noexcept {
    double s = 1.0;
    for (bool m : mask) {
      if (m) {
        s *= 0.5;
      }
    }
    return s;
  }
};

namespace detail {

/// Coarse parents of fine coordinate x in one dimension: up to two
/// (index, weight) pairs.  Uncoarsened dims map identically.
struct Parents {
  int idx[2];
  double w[2];
  int count;
};

inline Parents parents_of(int x, int nc, bool coarsened) noexcept {
  Parents p{};
  if (!coarsened) {
    p.idx[0] = x;
    p.w[0] = 1.0;
    p.count = 1;
    return p;
  }
  if ((x & 1) == 0) {
    p.idx[0] = x / 2;
    p.w[0] = 1.0;
    p.count = 1;
    return p;
  }
  p.count = 0;
  const int lo = (x - 1) / 2;
  const int hi = (x + 1) / 2;
  if (lo >= 0 && lo < nc) {
    p.idx[p.count] = lo;
    p.w[p.count] = 0.5;
    ++p.count;
  }
  if (hi >= 0 && hi < nc) {
    p.idx[p.count] = hi;
    p.w[p.count] = 0.5;
    ++p.count;
  }
  return p;
}

/// Fine children of coarse coordinate X in one dimension: the transpose
/// enumeration of parents_of — up to three (index, weight) pairs, ascending.
/// Gather-form restriction iterates these, which makes every coarse dof the
/// property of exactly one loop iteration (race-free under OpenMP), unlike
/// the scatter form where concurrent fine points add into shared parents.
struct Children {
  int idx[3];
  double w[3];
  int count;
};

inline Children children_of(int X, int nf, bool coarsened) noexcept {
  Children c{};
  if (!coarsened) {
    c.idx[0] = X;
    c.w[0] = 1.0;
    c.count = 1;
    return c;
  }
  c.count = 0;
  for (int t = -1; t <= 1; ++t) {
    const int xf = 2 * X + t;
    if (xf >= 0 && xf < nf) {
      c.idx[c.count] = xf;
      c.w[c.count] = t == 0 ? 1.0 : 0.5;
      ++c.count;
    }
  }
  return c;
}

}  // namespace detail

/// f_c = R r_f with R = P^T, in gather form: coarse dof (I,J,K) sums
/// w * r(2I + t, ...) over its fine children.  Each coarse dof is written by
/// exactly one iteration, so the loop parallelizes race-free — the scatter
/// form (fine points adding into shared parents) cannot, because up to eight
/// fine points contend on one coarse accumulator.  Vectors are dof-indexed
/// (block size bs).  The child-gather order here is the contract the fused
/// residual_restrict (kernels/fused.hpp) reproduces bitwise.
template <class CT>
void restrict_to_coarse(const Coarsening& c, int bs, std::span<const CT> rf,
                        std::span<CT> fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(static_cast<std::int64_t>(rf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(fc.size()) == coarse.size() * bs,
            "restrict size mismatch");
  const obs::KernelSpan span(obs::Kind::Restrict);
  const double rscale = c.restrict_scale();
#pragma omp parallel for collapse(2) schedule(static)
  for (int K = 0; K < coarse.nz; ++K) {
    for (int J = 0; J < coarse.ny; ++J) {
      const auto ck = detail::children_of(K, fine.nz, c.mask[2]);
      const auto cj = detail::children_of(J, fine.ny, c.mask[1]);
      for (int I = 0; I < coarse.nx; ++I) {
        const auto ci = detail::children_of(I, fine.nx, c.mask[0]);
        CT* SMG_RESTRICT dst = fc.data() + coarse.idx(I, J, K) * bs;
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int a = 0; a < ck.count; ++a) {
            for (int b = 0; b < cj.count; ++b) {
              for (int cidx = 0; cidx < ci.count; ++cidx) {
                const double w = rscale * ck.w[a] * cj.w[b] * ci.w[cidx];
                const std::int64_t fcell =
                    fine.idx(ci.idx[cidx], cj.idx[b], ck.idx[a]);
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

/// Reference scatter formulation of the same operator (iterate fine points,
/// add into their parents).  Serial by necessity — kept as the ground truth
/// the gather form is tested against; not used on the solve path.
template <class CT>
void restrict_to_coarse_scatter(const Coarsening& c, int bs,
                                std::span<const CT> rf, std::span<CT> fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(static_cast<std::int64_t>(rf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(fc.size()) == coarse.size() * bs,
            "restrict size mismatch");
  for (auto& v : fc) {
    v = CT{0};
  }
  const double rscale = c.restrict_scale();
  for (int k = 0; k < fine.nz; ++k) {
    const auto pk = detail::parents_of(k, coarse.nz, c.mask[2]);
    for (int j = 0; j < fine.ny; ++j) {
      const auto pj = detail::parents_of(j, coarse.ny, c.mask[1]);
      for (int i = 0; i < fine.nx; ++i) {
        const auto pi = detail::parents_of(i, coarse.nx, c.mask[0]);
        const std::int64_t fcell = fine.idx(i, j, k);
        for (int a = 0; a < pk.count; ++a) {
          for (int b = 0; b < pj.count; ++b) {
            for (int cidx = 0; cidx < pi.count; ++cidx) {
              const double w = rscale * pk.w[a] * pj.w[b] * pi.w[cidx];
              const std::int64_t ccell =
                  coarse.idx(pi.idx[cidx], pj.idx[b], pk.idx[a]);
              for (int br = 0; br < bs; ++br) {
                fc[ccell * bs + br] +=
                    static_cast<CT>(w) * rf[fcell * bs + br];
              }
            }
          }
        }
      }
    }
  }
}

/// Panel restriction: F_c = R R_f for all columns of the panel in one pass
/// over the transfer geometry.  Column c is bitwise identical to
/// restrict_to_coarse on that column: the per-coarse-dof child list is
/// enumerated in the same (a, b, cidx) order with the same
/// static_cast<CT>(w) weights, and each column folds its own accumulator.
template <class CT>
void restrict_to_coarse_many(const Coarsening& c, int bs,
                             const MultiVector<CT>& rf, MultiVector<CT>& fc) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(rf.rows() == fine.size() * bs && fc.rows() == coarse.size() * bs &&
                rf.padded_cols() == fc.padded_cols(),
            "restrict_many size mismatch");
  const obs::KernelSpan span(obs::Kind::Restrict);
  const double rscale = c.restrict_scale();
  const int kp = rf.padded_cols();
  const CT* SMG_RESTRICT rp = rf.data();
  CT* SMG_RESTRICT fp = fc.data();
  // Hoist the pure per-coordinate child lookups out of the point loop (the
  // same values the per-point calls would return).
  std::vector<detail::Children> cxi(static_cast<std::size_t>(coarse.nx));
  for (int I = 0; I < coarse.nx; ++I) {
    cxi[static_cast<std::size_t>(I)] = detail::children_of(I, fine.nx, c.mask[0]);
  }
#pragma omp parallel for collapse(2) schedule(static)
  for (int K = 0; K < coarse.nz; ++K) {
    for (int J = 0; J < coarse.ny; ++J) {
      const auto ck = detail::children_of(K, fine.nz, c.mask[2]);
      const auto cj = detail::children_of(J, fine.ny, c.mask[1]);
      for (int I = 0; I < coarse.nx; ++I) {
        const auto& ci = cxi[static_cast<std::size_t>(I)];
        // Flatten the child triple loop once per coarse point; the list
        // preserves the (a, b, cidx) fold order of the single-RHS kernel.
        std::int64_t src[27];
        CT wv[27];
        int ns = 0;
        for (int a = 0; a < ck.count; ++a) {
          for (int b = 0; b < cj.count; ++b) {
            for (int cidx = 0; cidx < ci.count; ++cidx) {
              const double w = rscale * ck.w[a] * cj.w[b] * ci.w[cidx];
              src[ns] = fine.idx(ci.idx[cidx], cj.idx[b], ck.idx[a]);
              wv[ns] = static_cast<CT>(w);
              ++ns;
            }
          }
        }
        CT* SMG_RESTRICT dst = fp + coarse.idx(I, J, K) * bs * kp;
        for (int br = 0; br < bs; ++br) {
          CT* SMG_RESTRICT dr = dst + static_cast<std::int64_t>(br) * kp;
#pragma omp simd
          for (int cc = 0; cc < kp; ++cc) {
            CT acc{0};
            for (int t = 0; t < ns; ++t) {
              acc += wv[t] * rp[(src[t] * bs + br) * kp + cc];
            }
            dr[cc] = acc;
          }
        }
      }
    }
  }
}

/// A vector's storage box and its global-to-storage coordinate shift
/// (storage = global - off): a whole level (off = 0) or one sub-box of a
/// box decomposition with its ghost ring.
struct GridView {
  Box box;
  std::array<int, 3> off{};

  std::int64_t idx(int i, int j, int k) const noexcept {
    return box.idx(i - off[0], j - off[1], k - off[2]);
  }
};

namespace detail {

/// u_f += P e_c along one fine x-line over global columns [i0, i1), streaming
/// its NL coarse parent lines.  el[l] is parent line l at coarse column
/// `coff` (its storage x = 0); w[l] is its line weight (the product of the
/// y/z parent weights) for an even or uncoarsened fine column and h[l] =
/// w[l] / 2 the weight of each of an odd column's two parents.  Per point
/// the fold runs line by line, low then high parent: prolong_add_pointwise's
/// (a, b, cidx) order with the same power-of-two weights, every fold pinned
/// through mul_add, so every fine dof is bitwise the per-point kernel's and
/// the scalar pair path rounds like the block point path.  A point is a run
/// of bs values sharing its weights, which is also how a panel of kp
/// interleaved columns runs (block size bs * kp, see prolong_add_many).
template <int NL, class CT>
inline void prolong_line(const CT* const* el, const CT* w, const CT* h,
                         int bs, bool cx, int ncx, int coff, int i0, int i1,
                         CT* SMG_RESTRICT ul) {
  const auto point = [&](int i) {
    CT* SMG_RESTRICT ur = ul + static_cast<std::int64_t>(i - i0) * bs;
    const int ic = cx ? i >> 1 : i;
    const std::int64_t e = static_cast<std::int64_t>(ic - coff) * bs;
    if (!cx || (i & 1) == 0) {
#pragma omp simd
      for (int br = 0; br < bs; ++br) {
        CT acc{0};
        for (int l = 0; l < NL; ++l) {
          acc = mul_add(w[l], el[l][e + br], acc);
        }
        ur[br] += acc;
      }
      return;
    }
    // Odd column: two parents, or only the low one at the end of an
    // even-length line.  Two loops: testing for the second parent inside
    // the block loop made the panel (bs * kp) form a quarter slower.
    if (ic + 1 < ncx) {
#pragma omp simd
      for (int br = 0; br < bs; ++br) {
        CT acc{0};
        for (int l = 0; l < NL; ++l) {
          acc = mul_add(h[l], el[l][e + br], acc);
          acc = mul_add(h[l], el[l][e + bs + br], acc);
        }
        ur[br] += acc;
      }
      return;
    }
#pragma omp simd
    for (int br = 0; br < bs; ++br) {
      CT acc{0};
      for (int l = 0; l < NL; ++l) {
        acc = mul_add(h[l], el[l][e + br], acc);
      }
      ur[br] += acc;
    }
  };
  int i = i0;
  if (bs == 1 && cx) {
    // Scalar coarsened lines: an (even, odd) column pair shares its low
    // parents, so run pairs without the per-point parity branch.
    if ((i & 1) != 0 && i < i1) {
      point(i++);
    }
    for (; i + 1 < i1 && (i >> 1) + 1 < ncx; i += 2) {
      const std::int64_t e = (i >> 1) - coff;
      CT ae{0};
      CT ao{0};
      for (int l = 0; l < NL; ++l) {
        const CT lo = el[l][e];
        ae = mul_add(w[l], lo, ae);
        ao = mul_add(h[l], lo, ao);
        ao = mul_add(h[l], el[l][e + 1], ao);
      }
      ul[i - i0] += ae;
      ul[i + 1 - i0] += ao;
    }
  }
  for (; i < i1; ++i) {
    point(i);
  }
}

/// u_f += P e_c along fine line (j, k) over global columns [i0, i1): resolve
/// the line's (at most four) coarse parent lines and their weights once,
/// then stream along x.
template <class CT>
inline void prolong_fine_line(const Coarsening& c, int bs, const CT* ec,
                              const GridView& cv, CT* uf, const GridView& fv,
                              int j, int k, int i0, int i1) {
  const Box& coarse = c.coarse;
  const auto pk = parents_of(k, coarse.nz, c.mask[2]);
  const auto pj = parents_of(j, coarse.ny, c.mask[1]);
  const CT* el[4];
  CT w[4];
  CT h[4];
  int nl = 0;
  for (int a = 0; a < pk.count; ++a) {
    for (int b = 0; b < pj.count; ++b) {
      const double wab = pk.w[a] * pj.w[b];
      el[nl] = ec + cv.idx(cv.off[0], pj.idx[b], pk.idx[a]) * bs;
      w[nl] = static_cast<CT>(wab);
      h[nl] = static_cast<CT>(wab * 0.5);
      ++nl;
    }
  }
  CT* ul = uf + fv.idx(i0, j, k) * bs;
  switch (nl) {
    case 4:
      prolong_line<4>(el, w, h, bs, c.mask[0], coarse.nx, cv.off[0], i0, i1,
                      ul);
      break;
    case 2:
      prolong_line<2>(el, w, h, bs, c.mask[0], coarse.nx, cv.off[0], i0, i1,
                      ul);
      break;
    default:
      prolong_line<1>(el, w, h, bs, c.mask[0], coarse.nx, cv.off[0], i0, i1,
                      ul);
      break;
  }
}

}  // namespace detail

/// u_f += P e_c over the fine points [lo, lo + n) (global coordinates),
/// reading e_c through `cv` and updating u_f through `fv`: one sub-box of a
/// box decomposition, whose caller already runs the boxes in parallel.
/// Serial, and without a telemetry span (the caller opens one around the
/// whole batch).
template <class CT>
void prolong_add_box(const Coarsening& c, int bs, const CT* ec,
                     const GridView& cv, CT* uf, const GridView& fv,
                     const std::array<int, 3>& lo,
                     const std::array<int, 3>& n) {
  for (int k = lo[2]; k < lo[2] + n[2]; ++k) {
    for (int j = lo[1]; j < lo[1] + n[1]; ++j) {
      detail::prolong_fine_line(c, bs, ec, cv, uf, fv, j, k, lo[0],
                                lo[0] + n[0]);
    }
  }
}

/// u_f += P e_c on a whole level.  Line-streaming: each fine line resolves
/// its coarse parent lines and weights once, then runs along x.  Fine lines
/// are independent, so the loop is line-parallel and bitwise identical at
/// any thread count.
template <class CT>
void prolong_add(const Coarsening& c, int bs, std::span<const CT> ec,
                 std::span<CT> uf) {
  const Box& fine = c.fine;
  SMG_CHECK(static_cast<std::int64_t>(uf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(ec.size()) == c.coarse.size() * bs,
            "prolong size mismatch");
  const obs::KernelSpan span(obs::Kind::Prolong);
  const GridView cv{c.coarse, {}};
  const GridView fv{fine, {}};
#pragma omp parallel for collapse(2) schedule(static)
  for (int k = 0; k < fine.nz; ++k) {
    for (int j = 0; j < fine.ny; ++j) {
      detail::prolong_fine_line(c, bs, ec.data(), cv, uf.data(), fv, j, k, 0,
                                fine.nx);
    }
  }
}

/// Panel prolongation: U_f += P E_c for all columns.  A panel row of a
/// level with block size bs is a run of bs * kp values that share one
/// transfer weight, so this is prolong_add on the flat arrays with block
/// size bs * kp: column c gets exactly prolong_add's folds on that column.
template <class CT>
void prolong_add_many(const Coarsening& c, int bs, const MultiVector<CT>& ec,
                      MultiVector<CT>& uf) {
  SMG_CHECK(uf.padded_cols() == ec.padded_cols(),
            "prolong_many size mismatch");
  prolong_add<CT>(c, bs * uf.padded_cols(), {ec.data(), ec.size()},
                  {uf.data(), uf.size()});
}

/// Reference per-point formulation of prolong_add: each fine point looks up
/// its coarse parents and folds them in (a, b, cidx) order.  Kept as the
/// ground truth the line-streaming kernel is tested against; not used on
/// the solve path.
template <class CT>
void prolong_add_pointwise(const Coarsening& c, int bs,
                           std::span<const CT> ec, std::span<CT> uf) {
  const Box& fine = c.fine;
  const Box& coarse = c.coarse;
  SMG_CHECK(static_cast<std::int64_t>(uf.size()) == fine.size() * bs &&
                static_cast<std::int64_t>(ec.size()) == coarse.size() * bs,
            "prolong size mismatch");
  for (int k = 0; k < fine.nz; ++k) {
    for (int j = 0; j < fine.ny; ++j) {
      const auto pk = detail::parents_of(k, coarse.nz, c.mask[2]);
      const auto pj = detail::parents_of(j, coarse.ny, c.mask[1]);
      for (int i = 0; i < fine.nx; ++i) {
        const auto pi = detail::parents_of(i, coarse.nx, c.mask[0]);
        const std::int64_t fcell = fine.idx(i, j, k);
        for (int br = 0; br < bs; ++br) {
          CT acc{0};
          for (int a = 0; a < pk.count; ++a) {
            for (int b = 0; b < pj.count; ++b) {
              for (int cidx = 0; cidx < pi.count; ++cidx) {
                const double w = pk.w[a] * pj.w[b] * pi.w[cidx];
                const std::int64_t ccell =
                    coarse.idx(pi.idx[cidx], pj.idx[b], pk.idx[a]);
                acc = detail::mul_add(static_cast<CT>(w),
                                      ec[ccell * bs + br], acc);
              }
            }
          }
          uf[fcell * bs + br] += acc;
        }
      }
    }
  }
}

}  // namespace smg
