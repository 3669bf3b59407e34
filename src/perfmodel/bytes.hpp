// Memory-volume accounting (guidelines §3.1-§3.2, Table 2).
//
// Sparse solvers are memory-bound, so the attainable mixed-precision speedup
// is bounded by the reduction of bytes moved.  SG-DIA moves exactly one
// floating value per stored nonzero; CSR adds one column index per nonzero
// plus the amortized row pointer.
#pragma once

#include <cstddef>

#include "fp/precision.hpp"
#include "grid/stencil.hpp"

namespace smg {

/// SG-DIA bytes per nonzero: just the value bytes.
double sgdia_bytes_per_nnz(Prec value_prec) noexcept;

/// Upper bound of preconditioner speedup when switching value precision
/// (ratio of bytes per nonzero), for either format family.
double speedup_bound_sgdia(Prec from, Prec to) noexcept;
double speedup_bound_csr(Prec from, Prec to, std::size_t index_bytes,
                         double delta) noexcept;

/// percent_A of Eq. 2: matrix share of the memory traffic of one SpMV,
/// given nnz and m (vector length counts x and b once each).
double percent_matrix(double nnz, double m) noexcept;

/// nnz/m for a full interior stencil (boundary effects ignored): equals the
/// stencil size for scalar problems, times block size for vector PDEs.
double stencil_nnz_per_row(Pattern p, int block_size) noexcept;

// --- V-cycle downstroke traffic (DESIGN.md §7) -----------------------------
//
// All counts are dofs (m = rows) and stored nonzeros; `scaled` adds the q2
// row-scale vector read of the recover-and-rescale kernels.  The model
// counts compulsory main-memory traffic only (each operand streamed once;
// caches hold no full vector).

/// y = A x: matrix once, x read, y written, plus q2.
double spmv_bytes(double nnz, double m, Prec mat, Prec vec,
                  bool scaled) noexcept;

/// One Gauss-Seidel sweep (forward or backward): matrix once, f and inv_diag
/// read, u read-modify-written, plus q2.
double symgs_sweep_bytes(double nnz, double m, Prec mat, Prec vec,
                         bool scaled) noexcept;

/// The zero-guess forward GS sweep (gs_forward_zero_guess): only the
/// `nnz_lower` entries of the earlier-in-order off-diagonals are read; f and
/// inv_diag (plus q2) read; u written, never read.  Like symgs_sweep_bytes
/// it leaves out the block sweep's uq = q2 .* u workspace.
double symgs_zero_guess_sweep_bytes(double nnz_lower, double m, Prec mat,
                                    Prec vec, bool scaled) noexcept;

/// One fused weighted-Jacobi sweep: same streams as a GS sweep.
double jacobi_sweep_bytes(double nnz, double m, Prec mat, Prec vec,
                          bool scaled) noexcept;

/// r = f - A u on one level: matrix once, u and f read, r written, plus q2.
double residual_bytes(double nnz, double m, Prec mat, Prec vec,
                      bool scaled) noexcept;

/// f_c = R r_f (gather form): fine residual read, coarse rhs written.
double restrict_bytes(double m_fine, double m_coarse, Prec vec) noexcept;

/// u_f += P e_c: coarse error read, fine iterate read-modify-written.
double prolong_bytes(double m_fine, double m_coarse, Prec vec) noexcept;

/// Fused downstroke f_c = R (f - A u): residual + restriction minus the
/// eliminated residual-vector store and load — exactly
/// 2 * m_fine * bytes_of(vec) less than the unfused pair.
double residual_restrict_bytes(double nnz, double m_fine, double m_coarse,
                               Prec mat, Prec vec, bool scaled) noexcept;

/// One level's downstroke traffic on either path.
double downstroke_bytes(double nnz, double m_fine, double m_coarse, Prec mat,
                        Prec vec, bool scaled, bool fused) noexcept;

// --- multi-RHS (panel) traffic ---------------------------------------------
//
// The k-column kernels stream the stored matrix (and the shared per-row
// operands: q2, inv_diag) ONCE for all k right-hand sides; only the
// per-column vector streams scale with k.  Each model below reduces exactly
// to its single-RHS formula at k = 1 (asserted in tests/perfmodel) — the
// amortization ratio spmv_bytes(...) * k / spmv_many_bytes(..., k) is the
// matrix-traffic bound fig_many_rhs gates against.

/// y[c] = A x[c] for k columns: matrix once, k reads of x, k writes of y,
/// one shared q2 read.
double spmv_many_bytes(double nnz, double m, Prec mat, Prec vec, bool scaled,
                       int k) noexcept;

/// One panel Gauss-Seidel sweep: matrix and inv_diag once, k reads of f,
/// k read-modify-writes of u, one shared q2 read.
double symgs_sweep_many_bytes(double nnz, double m, Prec mat, Prec vec,
                              bool scaled, int k) noexcept;

/// One fused panel weighted-Jacobi sweep: same streams as a panel GS sweep.
double jacobi_sweep_many_bytes(double nnz, double m, Prec mat, Prec vec,
                               bool scaled, int k) noexcept;

/// r[c] = f[c] - A u[c]: matrix once, k reads of u and f, k writes of r,
/// one shared q2 read.
double residual_many_bytes(double nnz, double m, Prec mat, Prec vec,
                           bool scaled, int k) noexcept;

/// f_c[c] = R r_f[c]: k fine reads, k coarse writes.
double restrict_many_bytes(double m_fine, double m_coarse, Prec vec,
                           int k) noexcept;

/// u_f[c] += P e_c[c]: k coarse reads, k fine read-modify-writes.
double prolong_many_bytes(double m_fine, double m_coarse, Prec vec,
                          int k) noexcept;

/// Fused panel downstroke f_c[c] = R (f[c] - A u[c]): residual + restriction
/// minus the eliminated k residual-panel stores and loads.
double residual_restrict_many_bytes(double nnz, double m_fine, double m_coarse,
                                    Prec mat, Prec vec, bool scaled,
                                    int k) noexcept;

/// One level's k-column downstroke traffic on either path.
double downstroke_many_bytes(double nnz, double m_fine, double m_coarse,
                             Prec mat, Prec vec, bool scaled, bool fused,
                             int k) noexcept;

}  // namespace smg
