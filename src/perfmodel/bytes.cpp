#include "perfmodel/bytes.hpp"

#include "csr/csr_matrix.hpp"

namespace smg {

double sgdia_bytes_per_nnz(Prec value_prec) noexcept {
  return static_cast<double>(bytes_of(value_prec));
}

double speedup_bound_sgdia(Prec from, Prec to) noexcept {
  return sgdia_bytes_per_nnz(from) / sgdia_bytes_per_nnz(to);
}

double speedup_bound_csr(Prec from, Prec to, std::size_t index_bytes,
                         double delta) noexcept {
  return csr_bytes_per_nnz(bytes_of(from), index_bytes, delta) /
         csr_bytes_per_nnz(bytes_of(to), index_bytes, delta);
}

double percent_matrix(double nnz, double m) noexcept {
  return nnz / (nnz + 2.0 * m);
}

double stencil_nnz_per_row(Pattern p, int block_size) noexcept {
  return static_cast<double>(Stencil::make(p).ndiag()) * block_size;
}

double spmv_bytes(double nnz, double m, Prec mat, Prec vec,
                  bool scaled) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // read x, write y (+ read q2 when scaled)
  return nnz * bm + (2.0 + (scaled ? 1.0 : 0.0)) * m * bv;
}

double symgs_sweep_bytes(double nnz, double m, Prec mat, Prec vec,
                         bool scaled) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // read f + inv_diag, read-modify-write u (+ read q2 when scaled)
  return nnz * bm + (4.0 + (scaled ? 1.0 : 0.0)) * m * bv;
}

double symgs_zero_guess_sweep_bytes(double nnz_lower, double m, Prec mat,
                                    Prec vec, bool scaled) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // read f + inv_diag, write u (+ read q2 when scaled)
  return nnz_lower * bm + (3.0 + (scaled ? 1.0 : 0.0)) * m * bv;
}

double jacobi_sweep_bytes(double nnz, double m, Prec mat, Prec vec,
                          bool scaled) noexcept {
  return symgs_sweep_bytes(nnz, m, mat, vec, scaled);
}

double residual_bytes(double nnz, double m, Prec mat, Prec vec,
                      bool scaled) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // read u, read f, write r (+ read q2 when scaled)
  return nnz * bm + (3.0 + (scaled ? 1.0 : 0.0)) * m * bv;
}

double restrict_bytes(double m_fine, double m_coarse, Prec vec) noexcept {
  const double bv = static_cast<double>(bytes_of(vec));
  return (m_fine + m_coarse) * bv;
}

double prolong_bytes(double m_fine, double m_coarse, Prec vec) noexcept {
  const double bv = static_cast<double>(bytes_of(vec));
  return (2.0 * m_fine + m_coarse) * bv;
}

double residual_restrict_bytes(double nnz, double m_fine, double m_coarse,
                               Prec mat, Prec vec, bool scaled) noexcept {
  const double bv = static_cast<double>(bytes_of(vec));
  return residual_bytes(nnz, m_fine, mat, vec, scaled) +
         restrict_bytes(m_fine, m_coarse, vec) - 2.0 * m_fine * bv;
}

double downstroke_bytes(double nnz, double m_fine, double m_coarse, Prec mat,
                        Prec vec, bool scaled, bool fused) noexcept {
  if (fused) {
    return residual_restrict_bytes(nnz, m_fine, m_coarse, mat, vec, scaled);
  }
  return residual_bytes(nnz, m_fine, mat, vec, scaled) +
         restrict_bytes(m_fine, m_coarse, vec);
}

// Multi-RHS: the matrix (and the shared per-row q2 / inv_diag operands)
// stream once; only per-column vector streams multiply by k.  Every formula
// reduces to its single-RHS counterpart at k = 1 by construction.

double spmv_many_bytes(double nnz, double m, Prec mat, Prec vec, bool scaled,
                       int k) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // k reads of x, k writes of y (+ one shared q2 read when scaled)
  return nnz * bm + (2.0 * k + (scaled ? 1.0 : 0.0)) * m * bv;
}

double symgs_sweep_many_bytes(double nnz, double m, Prec mat, Prec vec,
                              bool scaled, int k) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // k reads of f, k read-modify-writes of u, one shared inv_diag read
  // (+ one shared q2 read when scaled)
  return nnz * bm + (3.0 * k + 1.0 + (scaled ? 1.0 : 0.0)) * m * bv;
}

double jacobi_sweep_many_bytes(double nnz, double m, Prec mat, Prec vec,
                               bool scaled, int k) noexcept {
  return symgs_sweep_many_bytes(nnz, m, mat, vec, scaled, k);
}

double residual_many_bytes(double nnz, double m, Prec mat, Prec vec,
                           bool scaled, int k) noexcept {
  const double bm = static_cast<double>(bytes_of(mat));
  const double bv = static_cast<double>(bytes_of(vec));
  // k reads of u and f, k writes of r (+ one shared q2 read when scaled)
  return nnz * bm + (3.0 * k + (scaled ? 1.0 : 0.0)) * m * bv;
}

double restrict_many_bytes(double m_fine, double m_coarse, Prec vec,
                           int k) noexcept {
  const double bv = static_cast<double>(bytes_of(vec));
  return (m_fine + m_coarse) * k * bv;
}

double prolong_many_bytes(double m_fine, double m_coarse, Prec vec,
                          int k) noexcept {
  const double bv = static_cast<double>(bytes_of(vec));
  return (2.0 * m_fine + m_coarse) * k * bv;
}

double residual_restrict_many_bytes(double nnz, double m_fine, double m_coarse,
                                    Prec mat, Prec vec, bool scaled,
                                    int k) noexcept {
  const double bv = static_cast<double>(bytes_of(vec));
  return residual_many_bytes(nnz, m_fine, mat, vec, scaled, k) +
         restrict_many_bytes(m_fine, m_coarse, vec, k) -
         2.0 * k * m_fine * bv;
}

double downstroke_many_bytes(double nnz, double m_fine, double m_coarse,
                             Prec mat, Prec vec, bool scaled, bool fused,
                             int k) noexcept {
  if (fused) {
    return residual_restrict_many_bytes(nnz, m_fine, m_coarse, mat, vec,
                                        scaled, k);
  }
  return residual_many_bytes(nnz, m_fine, mat, vec, scaled, k) +
         restrict_many_bytes(m_fine, m_coarse, vec, k);
}

}  // namespace smg
