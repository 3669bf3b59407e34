#include "solvers/cg.hpp"

#include <cmath>

#include "kernels/blas1.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace smg {

template <class KT>
SolveResult pcg(const LinOp<KT>& A, std::span<const KT> b, std::span<KT> x,
                PrecondBase<KT>& M, const SolveOptions& opts) {
  SolveResult res;
  Timer timer;
  M.reset_timing();

  // Tag the solve with its request ID (assigned here unless the caller
  // reserved one) so trace events and metrics can single it out.
  res.request_id = opts.request_id != 0 ? opts.request_id
                                        : obs::acquire_request_ids(1);
  const obs::RequestScope req_scope(res.request_id);

  // Join the preconditioner's telemetry ledger (no-op when it has none)
  // so solver-side spans and the cycle's spans land in one instance.
  const obs::InstallGuard obs_guard(M.telemetry());
  if (obs::Telemetry* t = obs::current()) {
    t->note_request(res.request_id);
  }
  const obs::ScopedSpan solve_span(obs::Kind::Solve);

  const std::size_t n = b.size();
  avec<KT> r(n), z(n), p(n), ap(n);
  std::span<KT> rs{r.data(), n}, zs{z.data(), n}, ps{p.data(), n},
      aps{ap.data(), n};

  // r = b - A x
  A(x, aps);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - ap[i];
  }

  const double bnorm = nrm2<KT>(b);
  const double target = opts.rtol * (bnorm > 0.0 ? bnorm : 1.0);
  double rnorm = nrm2<KT>(rs);
  if (opts.record_history) {
    res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
  }

  M.apply(rs, zs);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = z[i];
  }
  double rz = dot<KT>(rs, zs);

  // Self-healing bookkeeping (inert — zero extra work and a bitwise
  // identical iteration stream — unless M can actually repair itself).
  const bool healing = M.self_healing();
  int heals_left = healing ? opts.heal_retries : 0;
  avec<KT> xgood;
  if (healing) {
    xgood.assign(x.begin(), x.end());
  }
  double stag_ref = rnorm;
  int stag_count = 0;
  bool stag_active = healing && opts.stagnation_window > 0;

  // Report a health event; on a successful repair restart the recurrence
  // from the last finite iterate (the Krylov directions predate the repaired
  // preconditioner and must be discarded).
  const auto recover = [&](HealthEvent e) {
    if (heals_left <= 0 || !M.report_health(e)) {
      return false;
    }
    --heals_left;
    ++res.heals;
    if (e == HealthEvent::NonFinite) {
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = xgood[i];
      }
    }
    A(x, aps);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = b[i] - ap[i];
    }
    rnorm = nrm2<KT>(rs);
    if (!std::isfinite(rnorm)) {
      return false;
    }
    M.apply(rs, zs);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = z[i];
    }
    rz = dot<KT>(rs, zs);
    stag_ref = rnorm;
    stag_count = 0;
    return std::isfinite(rz);
  };

  for (int it = 0; it < opts.max_iters; ++it) {
    if (!std::isfinite(rnorm) || !std::isfinite(rz)) {
      if (recover(HealthEvent::NonFinite)) {
        continue;
      }
      res.breakdown = true;
      break;
    }
    if (rnorm < target) {
      res.converged = true;
      break;
    }
    if (healing) {
      for (std::size_t i = 0; i < n; ++i) {
        xgood[i] = x[i];
      }
    }
    const obs::ScopedSpan iter_span(obs::Kind::Iteration);
    A(ps, aps);
    const double pap = dot<KT>(std::span<const KT>{p.data(), n},
                            std::span<const KT>{ap.data(), n});
    if (pap == 0.0 || !std::isfinite(pap)) {
      if (!std::isfinite(pap) && recover(HealthEvent::NonFinite)) {
        continue;
      }
      res.breakdown = !std::isfinite(pap);
      break;
    }
    const double alpha = rz / pap;
    axpy<KT>(static_cast<KT>(alpha), std::span<const KT>{p.data(), n}, x);
    axpy<KT>(static_cast<KT>(-alpha), std::span<const KT>{ap.data(), n}, rs);

    rnorm = nrm2<KT>(rs);
    ++res.iters;
    if (opts.record_history) {
      res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
    }
    if (rnorm < target) {
      res.converged = true;
      break;
    }
    if (stag_active && std::isfinite(rnorm)) {
      if (rnorm <= opts.stagnation_factor * stag_ref) {
        stag_ref = rnorm;
        stag_count = 0;
      } else if (++stag_count >= opts.stagnation_window) {
        if (recover(HealthEvent::Stagnation)) {
          continue;
        }
        stag_active = false;  // nothing left to repair; stop re-reporting
      }
    }

    M.apply(rs, zs);
    const double rz_new = dot<KT>(std::span<const KT>{r.data(), n},
                               std::span<const KT>{z.data(), n});
    const double beta = rz_new / rz;
    rz = rz_new;
    xpay<KT>(std::span<const KT>{z.data(), n}, static_cast<KT>(beta), ps);
  }

  res.final_relres = rnorm / (bnorm > 0.0 ? bnorm : 1.0);
  if (!std::isfinite(res.final_relres)) {
    res.breakdown = true;
  }
  res.solve_seconds = timer.seconds();
  res.precond_seconds = M.apply_seconds();
  obs::record_solve_metrics(
      "cg", res.solve_seconds, res.iters,
      obs::solve_status_label(res.converged, res.breakdown), res.heals);
  return res;
}

template SolveResult pcg<double>(const LinOp<double>&, std::span<const double>,
                                 std::span<double>, PrecondBase<double>&,
                                 const SolveOptions&);
template SolveResult pcg<float>(const LinOp<float>&, std::span<const float>,
                                std::span<float>, PrecondBase<float>&,
                                const SolveOptions&);

}  // namespace smg
