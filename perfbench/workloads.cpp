#include "workloads.hpp"

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <thread>

#include "core/hierarchy_cache.hpp"
#include "core/mg_precond.hpp"
#include "csr/csr_matrix.hpp"
#include "kernels/spmv.hpp"
#include "ledger.hpp"
#include "problems/problem.hpp"
#include "replay.hpp"
#include "solvers/cg.hpp"
#include "solvers/fmg.hpp"
#include "solvers/gmres.hpp"
#include "solvers/solve_many.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pb {

using smg::avec;
using smg::Box;
using smg::MultiVector;
using smg::StructMat;
using smg::obs::JsonValue;

// Sizes are chosen so a 25 s run holds enough steps for a median and a
// stable tail percentile (see perfbench/README.md).  The working sets fit
// in the 300 MiB L3 of the 4-vCPU reference VM, as bench/'s defaults do.
const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = [] {
    std::vector<Spec> v;
    // Paper regime, plain single-thread baseline: SPD radiation diffusion
    // far outside the FP16 range, PCG, matrix refreshed every 5 steps.
    v.push_back({"timestep-pcg", "rhd", Box{72, 72, 72}, false, Driver::Pcg,
                 5, 1e-9, {1, 1, 1}});
    // Setup-heavy, all cores: a fresh high-contrast reservoir matrix every
    // step (full hierarchy build) plus GMRES(30).
    v.push_back({"rebuild-gmres", "oil", Box{96, 96, 32}, true, Driver::Gmres,
                 1, 1e-9, {1, 1, 1}});
    // Throughput: one hierarchy, solve_many panels of width 1, 2 and 8.
    // All cores: at 1 thread on a 4-vCPU shared VM its run-to-run spread
    // of solve_s was 0.2-0.3 of the median, against <= 0.07 for the
    // all-core workloads (perfbench/README.md).
    v.push_back({"ensemble-panel", "rhd", Box{56, 56, 56}, true, Driver::Many,
                 0, 1e-9, {1, 1, 1}});
    // Sharded FMG: 2x2x2 boxes, halo exchange, thread pool, F-cycle driver.
    v.push_back({"fmg-sharded", "laplace27", Box{72, 72, 72}, true,
                 Driver::Fmg, 4, 0.0, {2, 2, 2}});
    return v;
  }();
  return all;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

namespace {

constexpr int kWidths[3] = {1, 2, 8};
/// FMG error bound: this multiple of fmg_disc_tolerance(box) * ||u_s||_2.
constexpr double kFmgErrorMultiple = 0.5;
/// Relative amplitude of the congruence D A D that refreshes a matrix.
constexpr double kPerturb = 0.1;
/// Tolerance of the ledger's child-sum checks: share of the solve span,
/// plus an absolute floor for timer granularity.
constexpr double kLedgerRelTol = 0.05;
constexpr double kLedgerAbsTol = 1e-3;
/// Traced and untraced repeat solves of the last system (trace run only).
constexpr int kRepeatPairs = 3;

// ---------------------------------------------------------------------------
// Seeded inputs.

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t idx) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + stream;
  smg::splitmix64(s);
  s ^= idx * 0xD1B54A32D192ED03ull;
  return smg::splitmix64(s);
}

/// Smooth positive field near 1: the diagonal of the congruence D A D.
avec<double> smooth_field(const Box& box, smg::Rng& rng, double amp) {
  const double two_pi = 2.0 * M_PI;
  double k[3], ph[3];
  for (int d = 0; d < 3; ++d) {
    k[d] = 1.0 + std::floor(rng.uniform() * 3.0);
    ph[d] = rng.uniform();
  }
  avec<double> f(static_cast<std::size_t>(box.size()));
  for (int kk = 0; kk < box.nz; ++kk) {
    const double sz = std::sin(two_pi * (k[2] * kk / box.nz + ph[2]));
    for (int j = 0; j < box.ny; ++j) {
      const double sy = std::sin(two_pi * (k[1] * j / box.ny + ph[1]));
      for (int i = 0; i < box.nx; ++i) {
        const double sx = std::sin(two_pi * (k[0] * i / box.nx + ph[0]));
        f[static_cast<std::size_t>(box.idx(i, j, kk))] =
            1.0 + amp * sx * sy * sz;
      }
    }
  }
  return f;
}

/// A' = D A D with D = diag(smooth field near 1): same structure, and
/// symmetry and definiteness are kept.
StructMat<double> perturbed(const StructMat<double>& A0, std::uint64_t seed,
                            std::uint64_t epoch) {
  smg::Rng rng(stream_seed(seed, 1, epoch));
  const Box& box = A0.box();
  const avec<double> d = smooth_field(box, rng, kPerturb);
  StructMat<double> A = A0;
  for (int kk = 0; kk < box.nz; ++kk) {
    for (int j = 0; j < box.ny; ++j) {
      for (int i = 0; i < box.nx; ++i) {
        const std::int64_t c = box.idx(i, j, kk);
        for (int s = 0; s < A.ndiag(); ++s) {
          const smg::Offset& o = A.stencil().offset(s);
          const int ni = i + o.dx, nj = j + o.dy, nk = kk + o.dz;
          if (box.contains(ni, nj, nk)) {
            A.at(c, s) *= d[static_cast<std::size_t>(c)] *
                          d[static_cast<std::size_t>(box.idx(ni, nj, nk))];
          }
        }
      }
    }
  }
  return A;
}

void fill_uniform(double* out, std::size_t n, std::uint64_t s) {
  smg::Rng rng(s);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rng.uniform(-1.0, 1.0);
  }
}

/// Seeded smooth manufactured solution: three sine modes of low wave
/// number vanishing one spacing outside the box.
avec<double> manufactured(const Box& box, std::uint64_t seed,
                          std::uint64_t step) {
  smg::Rng rng(stream_seed(seed, 3, step));
  const double hx = 1.0 / (box.nx + 1);
  const double hy = 1.0 / (box.ny + 1);
  const double hz = 1.0 / (box.nz + 1);
  avec<double> u(static_cast<std::size_t>(box.size()), 0.0);
  for (int m = 0; m < 3; ++m) {
    const double a = rng.uniform(0.5, 1.0);
    const double kx = 1 + std::floor(rng.uniform() * 3.0);
    const double ky = 1 + std::floor(rng.uniform() * 3.0);
    const double kz = 1 + std::floor(rng.uniform() * 3.0);
    for (int k = 0; k < box.nz; ++k) {
      const double sz = std::sin(M_PI * kz * (k + 1) * hz);
      for (int j = 0; j < box.ny; ++j) {
        const double sy = std::sin(M_PI * ky * (j + 1) * hy);
        for (int i = 0; i < box.nx; ++i) {
          u[static_cast<std::size_t>(box.idx(i, j, k))] +=
              a * std::sin(M_PI * kx * (i + 1) * hx) * sy * sz;
        }
      }
    }
  }
  return u;
}

/// The widths of one round of the ensemble: {1, 2, 8} in seeded order.
std::array<int, 3> round_widths(std::uint64_t seed, std::uint64_t round) {
  std::array<int, 3> w = {kWidths[0], kWidths[1], kWidths[2]};
  smg::Rng rng(stream_seed(seed, 4, round));
  for (int i = 2; i > 0; --i) {
    const int j = static_cast<int>(rng.uniform() * (i + 1)) % (i + 1);
    std::swap(w[static_cast<std::size_t>(i)], w[static_cast<std::size_t>(j)]);
  }
  return w;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv(const void* p, std::size_t bytes,
                  std::uint64_t h = kFnvBasis) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ b[i]) * 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double median_of(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Independent correctness checks: FP64 through the CSR reference, never
// through the SG-DIA kernels under test.

double norm2(const double* v, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += v[i] * v[i];
  }
  return std::sqrt(s);
}

double true_relres(const smg::CsrMat<double>& ref, const double* b,
                   const double* x, std::size_t n) {
  avec<double> ax(n);
  ref.spmv<double>({x, n}, {ax.data(), n});
  double rr = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = b[i] - ax[i];
    rr += r * r;
  }
  return std::sqrt(rr) / norm2(b, n);
}

double error_norm(const double* x, const double* u, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += (x[i] - u[i]) * (x[i] - u[i]);
  }
  return std::sqrt(s);
}

/// Moves one entry of x by more than either check tolerates.
void perturb(avec<double>& x, double err_tol) {
  const std::size_t i = x.size() / 2;
  x[i] += std::max(2.0 * err_tol, 1e-3 * (1.0 + std::abs(x[i])));
}

/// Empty when x passes: relres <= rtol (residual workloads) or
/// ||x - u_s|| <= err_tol (FMG).
std::string check_x(const smg::CsrMat<double>& ref, const double* b,
                    const double* x, std::size_t n, double rtol,
                    const double* us, double err_tol) {
  char buf[160];
  if (us != nullptr) {
    const double e = error_norm(x, us, n);
    if (!(e <= err_tol)) {
      std::snprintf(buf, sizeof(buf), "FMG error %.3e > bound %.3e", e,
                    err_tol);
      return buf;
    }
    return {};
  }
  const double rr = true_relres(ref, b, x, n);
  if (!(rr <= rtol)) {
    std::snprintf(buf, sizeof(buf), "true relres %.3e > rtol %.1e", rr, rtol);
    return buf;
  }
  return {};
}

// ---------------------------------------------------------------------------
// One matrix epoch and one step.

struct System {
  StructMat<double> A;
  smg::CsrMat<double> ref;
  std::shared_ptr<smg::MGHierarchy> h;
  std::unique_ptr<smg::PrecondBase<double>> M;
};

struct StepInput {
  std::uint64_t step = 0;
  int width = 1;
  avec<double> b;           ///< single-RHS drivers
  MultiVector<double> B;    ///< solve_many
  avec<double> us;          ///< FMG manufactured solution
  double err_tol = 0.0;
};

struct StepResult {
  double solve_s = 0.0;
  double lib_solve_s = 0.0;    ///< the solver's own timing
  double lib_precond_s = 0.0;
  int rhs = 0;
  int failed = 0;
  std::vector<int> iters;      ///< per RHS
  int heals = 0;
  int polish = 0;
  std::uint64_t xhash = 0;
  std::vector<std::string> why;
};

smg::MGConfig config_for(const Spec& spec) {
  smg::MGConfig cfg = smg::config_d16_setup_scale();
  cfg.decomp = spec.decomp;
  return cfg;
}

StepInput make_input(const Spec& spec, const System& sys, std::uint64_t seed,
                     std::uint64_t step, int width) {
  StepInput in;
  in.step = step;
  in.width = width;
  const std::size_t n = static_cast<std::size_t>(sys.A.nrows());
  if (spec.driver == Driver::Many) {
    in.B.resize(sys.A.nrows(), width);
    avec<double> col(n);
    for (int c = 0; c < width; ++c) {
      const std::uint64_t column = step * 8 + static_cast<std::uint64_t>(c);
      fill_uniform(col.data(), n, stream_seed(seed, 2, column));
      in.B.insert_col(c, {col.data(), n});
    }
    return in;
  }
  in.b.resize(n);
  if (spec.driver == Driver::Fmg) {
    in.us = manufactured(spec.box, seed, step);
    sys.ref.spmv<double>({in.us.data(), n}, {in.b.data(), n});
    in.err_tol = kFmgErrorMultiple * smg::fmg_disc_tolerance(spec.box) *
                 norm2(in.us.data(), n);
  } else {
    fill_uniform(in.b.data(), n, stream_seed(seed, 2, step));
  }
  return in;
}

StepResult solve_step(const Spec& spec, const System& sys,
                      smg::PrecondBase<double>& M0, const StepInput& in,
                      Trace* trace) {
  StepResult r;
  const std::size_t n = static_cast<std::size_t>(sys.A.nrows());
  const StructMat<double>& A = sys.A;
  smg::LinOp<double> op = [&A](std::span<const double> x, std::span<double> y) {
    smg::spmv<double, double>(A, x, y);
  };
  TracedPrecond traced(M0, trace);
  smg::PrecondBase<double>& M =
      trace != nullptr ? static_cast<smg::PrecondBase<double>&>(traced) : M0;
  if (trace != nullptr) {
    op = traced_op(std::move(op), trace);
    trace->set_request(in.step + 1);
  }
  auto fail = [&r](std::string why) {
    ++r.failed;
    r.why.push_back(std::move(why));
  };

  if (spec.driver == Driver::Many) {
    smg::LinOpMany<double> opm = smg::make_spmv_many_op(A);
    if (trace != nullptr) {
      opm = [inner = std::move(opm), trace](const MultiVector<double>& x,
                                            MultiVector<double>& y) {
        const Scope s(trace, "op");
        inner(x, y);
      };
    }
    MultiVector<double> X(A.nrows(), in.width);
    smg::SolveManyOptions mo;
    mo.base.rtol = spec.rtol;
    smg::SolveManyResult res;
    {
      const Scope s(trace, "solve");
      const smg::Timer t;
      res = smg::solve_many<double>(opm, in.B, X, M, mo);
      r.solve_s = t.seconds();
    }
    r.lib_solve_s = res.solve_seconds;
    r.lib_precond_s = res.precond_seconds;
    r.rhs = in.width;
    avec<double> b(n), x(n);
    std::uint64_t h = kFnvBasis;
    for (int c = 0; c < in.width; ++c) {
      const smg::SolveResult& cr = res.columns[static_cast<std::size_t>(c)];
      r.iters.push_back(cr.iters);
      r.heals += cr.heals;
      in.B.extract_col(c, {b.data(), n});
      X.extract_col(c, {x.data(), n});
      h = fnv(x.data(), n * sizeof(double), h);
      if (!cr.converged || cr.breakdown) {
        fail("column " + std::to_string(c) + " " + cr.status());
        continue;
      }
      const std::string why =
          check_x(sys.ref, b.data(), x.data(), n, spec.rtol, nullptr, 0.0);
      if (!why.empty()) {
        fail("column " + std::to_string(c) + ": " + why);
      }
    }
    r.xhash = h;
    return r;
  }

  avec<double> x(n, 0.0);
  bool ok = false;
  std::string status;
  r.rhs = 1;
  if (spec.driver == Driver::Fmg) {
    smg::FmgOptions<double> fo;
    fo.rtol = spec.rtol;
    fo.u_exact = {in.us.data(), n};
    fo.error_tol = in.err_tol;
    smg::FmgResult res;
    {
      const Scope s(trace, "solve");
      const smg::Timer t;
      res = smg::fmg_solve<double>(op, {in.b.data(), n}, {x.data(), n}, M, fo);
      r.solve_s = t.seconds();
    }
    r.lib_solve_s = res.solve_seconds;
    r.lib_precond_s = res.precond_seconds;
    r.iters.push_back(res.polish_iters + 1);
    r.polish = res.polish_iters;
    r.heals = res.heals;
    ok = res.converged && !res.breakdown;
    status = res.status();
  } else {
    smg::SolveOptions so;
    so.rtol = spec.rtol;
    smg::SolveResult res;
    {
      const Scope s(trace, "solve");
      const smg::Timer t;
      const std::span<const double> b(in.b.data(), n);
      const std::span<double> xs(x.data(), n);
      res = spec.driver == Driver::Pcg ? smg::pcg<double>(op, b, xs, M, so)
                                       : smg::pgmres<double>(op, b, xs, M, so);
      r.solve_s = t.seconds();
    }
    r.lib_solve_s = res.solve_seconds;
    r.lib_precond_s = res.precond_seconds;
    r.iters.push_back(res.iters);
    r.heals = res.heals;
    ok = res.converged && !res.breakdown;
    status = res.status();
  }
  r.xhash = fnv(x.data(), n * sizeof(double));
  if (!ok) {
    fail(status);
  } else {
    const std::string why =
        check_x(sys.ref, in.b.data(), x.data(), n, spec.rtol,
                in.us.empty() ? nullptr : in.us.data(), in.err_tol);
    if (!why.empty()) {
      fail(why);
    }
  }
  // The checker must reject a perturbed x, or it is not checking anything.
  if (ok && in.step == 0) {
    avec<double> bad = x;
    perturb(bad, in.err_tol);
    if (check_x(sys.ref, in.b.data(), bad.data(), n, spec.rtol,
                in.us.empty() ? nullptr : in.us.data(), in.err_tol)
            .empty()) {
      fail("checker accepted a perturbed x");
    }
  }
  return r;
}

int threads_for(const Spec& spec) {
  const int ncpu =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return spec.all_cores ? std::min(4, ncpu) : 1;
}

const char* bind_name(omp_proc_bind_t b) {
  switch (b) {
    case omp_proc_bind_false:
      return "false";
    case omp_proc_bind_true:
      return "true";
    case omp_proc_bind_master:
      return "primary";
    case omp_proc_bind_close:
      return "close";
    case omp_proc_bind_spread:
      return "spread";
  }
  return "?";
}

JsonValue num(double v) { return JsonValue(v); }

JsonValue num_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (double d : v) {
    a.push_back(num(d));
  }
  return a;
}

// ---------------------------------------------------------------------------
// The closed loop.

class Runner {
 public:
  Runner(const Spec& spec, const RunArgs& args)
      : spec_(spec), args_(args), cfg_(config_for(spec)), cache_(2),
        base_(smg::make_problem(spec.problem, spec.box)) {}

  int run(JsonValue& out);

 private:
  /// Build the system of matrix epoch `epoch` and time its hierarchy setup.
  double new_system(std::uint64_t epoch, Trace* trace);
  void record_step(const StepResult& r, bool sample);
  void traced_extras(const StepInput& last, Trace& trace, Metrics& m);
  void layer_metrics(const Trace& trace, Metrics& m);

  const Spec& spec_;
  RunArgs args_;
  smg::MGConfig cfg_;
  smg::HierarchyCache cache_;
  smg::Problem base_;
  System sys_;

  std::vector<double> setup_s_, solve_s_;
  std::vector<double> iters_, polish_;
  std::vector<std::pair<int, double>> width_s_;  ///< (width, seconds) per call
  std::vector<StepResult> traced_steps_;
  int heals_ = 0;
  double program_s_ = 0.0;
  double warmup_s_ = 0.0;
  std::int64_t rhs_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::uint64_t inputs_hash_ = 0;
};

double Runner::new_system(std::uint64_t epoch, Trace* trace) {
  sys_.M.reset();
  sys_.h.reset();
  sys_.A = perturbed(base_.A, args_.seed, epoch);
  sys_.ref = smg::csr_from_struct<double>(sys_.A);
  const Scope s(trace, "setup");
  const smg::Timer t;
  sys_.h = cache_.get_or_build(sys_.A, cfg_);
  sys_.M = smg::make_mg_precond<double>(*sys_.h);
  return t.seconds();
}

void Runner::record_step(const StepResult& r, bool sample) {
  attempted_ += r.rhs;
  failed_ += r.failed;
  for (const std::string& w : r.why) {
    if (failures_.size() < 20) {
      failures_.push_back(w);
    }
  }
  if (!sample) {
    return;
  }
  solve_s_.push_back(r.solve_s);
  width_s_.emplace_back(r.rhs, r.solve_s);
  for (int it : r.iters) {
    iters_.push_back(it);
  }
  polish_.push_back(r.polish);
  heals_ += r.heals;
  rhs_ += r.rhs;
  program_s_ += r.solve_s;
}

int Runner::run(JsonValue& out) {
  const int threads = threads_for(spec_);
  omp_set_num_threads(threads);
  std::unique_ptr<Trace> trace_holder =
      args_.trace ? std::make_unique<Trace>() : nullptr;
  Trace* trace = trace_holder.get();
  // The traced run spends half its budget in the loop and the rest on the
  // replays and STREAM below.
  const double budget = args_.trace ? 0.5 * args_.seconds : args_.seconds;

  const bool one_matrix = spec_.steps_per_matrix <= 0;
  std::uint64_t step = 0;
  StepInput last;

  // Warm-up: the process's first step, reported on its own.
  {
    const double setup = new_system(0, trace);
    last = make_input(spec_, sys_, args_.seed, 0, one_matrix ? kWidths[2] : 1);
    // The warm-up's matrix and right-hand side identify the seed's inputs.
    inputs_hash_ = fnv(sys_.A.values().data(), sys_.A.values().size_bytes());
    inputs_hash_ =
        fnv(last.b.data(), last.b.size() * sizeof(double), inputs_hash_);
    inputs_hash_ =
        fnv(last.B.data(), last.B.size() * sizeof(double), inputs_hash_);
    const StepResult r = solve_step(spec_, sys_, *sys_.M, last, trace);
    warmup_s_ = setup + r.solve_s;
    record_step(r, false);
    ++step;
  }
  // Whole rounds of the width mix and whole matrix epochs only, so every
  // run holds the same proportions of widths and of setups to solves.
  const smg::Timer wall;
  std::uint64_t round = 0;
  std::array<int, 3> widths{};
  for (std::uint64_t pos = 0;; ++pos, ++step) {
    const bool boundary =
        one_matrix ? pos % 3 == 0 : step % spec_.steps_per_matrix == 0;
    if (boundary && wall.seconds() >= budget && !solve_s_.empty()) {
      break;
    }
    int width = 1;
    if (one_matrix) {
      if (pos % 3 == 0) {
        widths = round_widths(args_.seed, round++);
        // One workload matrix, so no build is due: time one throw-away
        // build per round for setup_s.  Spreading them through the run
        // samples the host the way the loop does; they stay out of
        // solves_per_s.
        {
          smg::HierarchyCache fresh(1);
          const Scope s(trace, "setup");
          const smg::Timer t;
          const auto h = fresh.get_or_build(sys_.A, cfg_);
          const auto M = smg::make_mg_precond<double>(*h);
          setup_s_.push_back(t.seconds());
        }
        // A caller asking the cache for its hierarchy each round: a hit.
        const Scope s(trace, "setup.lookup");
        const smg::Timer t;
        const auto h = cache_.get_or_build(sys_.A, cfg_);
        program_s_ += t.seconds();
        if (h != sys_.h) {
          failures_.push_back("cache returned a different hierarchy");
          ++failed_;
        }
      }
      width = widths[pos % 3];
    } else if (step % spec_.steps_per_matrix == 0) {
      const double s = new_system(step / spec_.steps_per_matrix, trace);
      setup_s_.push_back(s);
      program_s_ += s;
    }
    last = make_input(spec_, sys_, args_.seed, step, width);
    const StepResult r = solve_step(spec_, sys_, *sys_.M, last, trace);
    record_step(r, true);
    if (trace != nullptr) {
      traced_steps_.push_back(r);
    }
  }
  const double loop_wall = wall.seconds();

  Metrics layers;
  if (trace != nullptr) {
    layer_metrics(*trace, layers);
    traced_extras(last, *trace, layers);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::size_t hier_bytes = sys_.h->stored_matrix_bytes();
  for (int l = 0; l < sys_.h->nlevels(); ++l) {
    hier_bytes += sys_.h->level(l).invdiag.size() * smg::bytes_of(cfg_.compute);
  }

  out = JsonValue::object();
  out.set("workload", JsonValue(spec_.name));
  out.set("seed", num(static_cast<double>(args_.seed)));
  out.set("trace", JsonValue(args_.trace));
  JsonValue env = JsonValue::object();
  env.set("threads", num(threads));
  env.set("nproc",
          num(static_cast<double>(std::thread::hardware_concurrency())));
  env.set("compiler", JsonValue(std::string("g++ ") + __VERSION__));
  const char* wait = std::getenv("OMP_WAIT_POLICY");
  env.set("omp_wait_policy",
          JsonValue(std::string(wait != nullptr ? wait : "unset")));
  env.set("omp_proc_bind",
          JsonValue(std::string(bind_name(omp_get_proc_bind()))));
  env.set("problem", JsonValue(spec_.problem));
  env.set("box", JsonValue(std::to_string(spec_.box.nx) + "x" +
                           std::to_string(spec_.box.ny) + "x" +
                           std::to_string(spec_.box.nz)));
  env.set("config", JsonValue(cfg_.tag()));
  out.set("env", std::move(env));
  out.set("inputs_hash", JsonValue(hex(inputs_hash_)));
  out.set("setup_s", num_array(setup_s_));
  out.set("solve_s", num_array(solve_s_));
  out.set("iters_median", num(median_of(iters_)));
  out.set("rhs", num(static_cast<double>(rhs_)));
  out.set("program_s", num(program_s_));
  out.set("loop_wall_s", num(loop_wall));
  out.set("warmup_s", num(warmup_s_));
  out.set("hierarchy_bytes", num(static_cast<double>(hier_bytes)));
  out.set("peak_rss_kb", num(static_cast<double>(ru.ru_maxrss)));
  out.set("attempted", num(static_cast<double>(attempted_)));
  out.set("failed", num(static_cast<double>(failed_)));
  JsonValue fl = JsonValue::array();
  for (const std::string& f : failures_) {
    fl.push_back(JsonValue(f));
  }
  out.set("failures", std::move(fl));
  if (trace != nullptr) {
    JsonValue lj = JsonValue::object();
    for (const auto& [k, v] : layers) {
      lj.set(k, num(v));
    }
    out.set("layers", std::move(lj));
    if (!args_.trace_file.empty()) {
      std::ofstream(args_.trace_file) << trace->chrome_json();
    }
  }
  return static_cast<int>(failed_);
}

void Runner::layer_metrics(const Trace& trace, Metrics& m) {
  const auto& spans = trace.spans();
  std::vector<double> self, applies_s, fcycle, vcycle;
  double solve_total = 0.0, pre_total = 0.0;
  int nsolve = 0, napply = 0;
  std::size_t ti = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != "solve" || s.request_id <= 1) {
      continue;  // request 1 is the warm-up step
    }
    double op = 0.0, pre = 0.0;
    for (int c : trace.children(static_cast<int>(i))) {
      const Span& cs = spans[static_cast<std::size_t>(c)];
      if (cs.name == "op") {
        op += cs.seconds();
      } else {
        pre += cs.seconds();
        ++napply;
        applies_s.push_back(cs.seconds());
        (cs.name == "precond.fcycle" ? fcycle : vcycle).push_back(cs.seconds());
      }
    }
    const double sf = trace.self_seconds(static_cast<int>(i));
    self.push_back(sf);
    solve_total += s.seconds();
    pre_total += pre;
    ++nsolve;
    // Ledger self-checks: the parts add up to the span, and the span agrees
    // with the solver's own clocks.
    const double tol = kLedgerRelTol * s.seconds() + kLedgerAbsTol;
    const StepResult* r =
        ti < traced_steps_.size() ? &traced_steps_[ti++] : nullptr;
    auto bad = [&](const char* what, double a, double b) {
      if (!(std::abs(a - b) <= tol)) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "ledger: request %llu %s %.6f vs %.6f (tol %.6f)",
                      static_cast<unsigned long long>(s.request_id), what, a,
                      b, tol);
        failures_.push_back(buf);
        ++failed_;
      }
    };
    bad("op+precond+self vs solve span", op + pre + sf, s.seconds());
    if (r != nullptr) {
      bad("solve span vs solver solve_seconds", s.seconds(), r->lib_solve_s);
      bad("precond spans vs solver precond_seconds", pre, r->lib_precond_s);
    }
  }
  m["solvers.iters"] = median_of(iters_);
  m["solvers.self_s"] = median_of(self);
  m["solvers.heals"] = heals_;
  m["solvers.fmg.polish_iters"] =
      spec_.driver == Driver::Fmg ? median_of(polish_) : 0.0;
  for (int k : kWidths) {
    std::vector<double> per_rhs;
    for (const auto& [w, sec] : width_s_) {
      if (w == k && spec_.driver == Driver::Many) {
        per_rhs.push_back(sec / k);
      }
    }
    m["solvers.solve_many.k" + std::to_string(k) + ".s_per_rhs"] =
        median_of(per_rhs);
  }
  m["core.precond.apply_s"] = median_of(applies_s);
  m["core.precond.applies"] =
      nsolve > 0 ? static_cast<double>(napply) / nsolve : 0.0;
  m["core.precond.share"] = solve_total > 0.0 ? pre_total / solve_total : 0.0;
  m["core.precond.fcycle_s"] = median_of(fcycle);
  m["core.precond.vcycle_s"] = median_of(vcycle);
  const double lookups = static_cast<double>(cache_.hits() + cache_.misses());
  m["core.cache.hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(cache_.hits()) / lookups : 0.0;
}

void Runner::traced_extras(const StepInput& last, Trace& trace, Metrics& m) {
  const bool one_thread = threads_for(spec_) == 1;
  auto count = [this](const StepResult& r) {
    attempted_ += r.rhs;
    failed_ += r.failed;
    for (const std::string& w : r.why) {
      failures_.push_back(w);
    }
  };
  // Repeat the last step traced and untraced: reproducibility of x and the
  // cost of the benchmark's own spans.
  const std::uint64_t ref_hash = traced_steps_.back().xhash;
  std::vector<double> traced_s, plain_s;
  int same = 0;
  for (int i = 0; i < kRepeatPairs; ++i) {
    const StepResult a = solve_step(spec_, sys_, *sys_.M, last, &trace);
    const StepResult b = solve_step(spec_, sys_, *sys_.M, last, nullptr);
    count(a);
    count(b);
    traced_s.push_back(a.solve_s);
    plain_s.push_back(b.solve_s);
    same += (a.xhash == ref_hash) + (b.xhash == ref_hash);
  }
  m["solvers.repro"] = static_cast<double>(same) / (2 * kRepeatPairs);
  m["bench.trace_overhead_frac"] =
      median_of(traced_s) / median_of(plain_s) - 1.0;
  if (one_thread && same != 2 * kRepeatPairs) {
    failures_.push_back(
        "1-thread solve not bitwise reproducible (traced vs untraced)");
    ++failed_;
  }

  // Library telemetry at Counters vs Off, set through MGConfig::telemetry.
  {
    smg::MGConfig c2 = cfg_;
    c2.telemetry = smg::obs::TelemetryLevel::Counters;
    smg::MGHierarchy h2(sys_.A, c2);
    auto M2 = smg::make_mg_precond<double>(h2);
    std::vector<double> on_s, off_s;
    for (int i = 0; i < kRepeatPairs; ++i) {
      const StepResult a = solve_step(spec_, sys_, *M2, last, nullptr);
      const StepResult b = solve_step(spec_, sys_, *sys_.M, last, nullptr);
      count(a);
      count(b);
      on_s.push_back(a.solve_s);
      off_s.push_back(b.solve_s);
      if (one_thread && a.xhash != b.xhash) {
        failures_.push_back("telemetry Counters changed the solution");
        ++failed_;
      }
    }
    m["obs.telemetry_overhead_frac"] = median_of(on_s) / median_of(off_s) - 1.0;
  }

  Failures fails;
  replay_setup(*sys_.h, m);
  m["core.setup.rest_s"] = median_of(setup_s_) -
                           m["core.setup.galerkin_s"] -
                           m["core.setup.scale_s"];
  replay_kernels(*sys_.h, sys_.A, spec_.driver == Driver::Many, m, fails);
  for (const char* k : {"kernels.symgs_many.L0.s_per_col",
                        "kernels.residual_restrict_many.L0.s_per_col",
                        "core.transfer.prolong_many.L0.s_per_col"}) {
    m.emplace(k, 0.0);  // panels run only on the panel workload
  }
  const bool sharded = spec_.decomp != std::array<int, 3>{1, 1, 1};
  if (sharded) {
    replay_halo(*sys_.h, spec_.decomp, m, fails);
    m["grid.halo.share"] =
        m["grid.halo.s_per_apply"] / m["core.precond.apply_s"];
  } else {
    m["grid.halo.s_per_apply"] = 0.0;
    m["grid.halo.model_bytes_per_apply"] = 0.0;
    m["grid.halo.share"] = 0.0;
  }
  for (const std::string& f : fails) {
    failures_.push_back(f);
    ++failed_;
  }
  m["bench.warmup_s"] = warmup_s_;

  const StreamProbe sp = stream_probe();
  m["perfmodel.stream_triad_gbs"] = sp.triad_gbs;
  m["perfmodel.stream_array_bytes"] = static_cast<double>(sp.array_bytes);
  m["perfmodel.llc_bytes"] = static_cast<double>(sp.llc_bytes);
  std::vector<std::string> frac;
  frac.push_back("kernels.spmv");
  for (int l = 0; l < 3; ++l) {
    const std::string L = ".L" + std::to_string(l);
    frac.push_back("kernels.symgs" + L);
    frac.push_back("kernels.residual_restrict" + L);
    frac.push_back("core.transfer.prolong" + L);
  }
  for (const std::string& k : frac) {
    auto it = m.find(k + ".gbs");
    if (it == m.end()) {
      // Level absent from this hierarchy: nothing ran.
      m[k + ".s_per_call"] = 0.0;
      m[k + ".gbs"] = 0.0;
    }
    m[k + ".stream_frac"] = m[k + ".gbs"] / sp.triad_gbs;
  }
}

// ---------------------------------------------------------------------------
// Self-tests.

std::string input_digest(const Spec& spec, std::uint64_t seed) {
  System sys;
  sys.A = perturbed(smg::make_problem(spec.problem, spec.box).A, seed, 0);
  sys.ref = smg::csr_from_struct<double>(sys.A);
  std::uint64_t h = fnv(sys.A.values().data(), sys.A.values().size_bytes());
  std::string shape =
      spec.name + " " + std::to_string(sys.A.nrows()) + " widths";
  for (std::uint64_t s = 0; s < 3; ++s) {
    std::array<int, 3> w = round_widths(seed, s);
    const int width = spec.driver == Driver::Many ? w[0] : 1;
    const StepInput in = make_input(spec, sys, seed, s, width);
    h = fnv(in.b.data(), in.b.size() * sizeof(double), h);
    h = fnv(in.B.data(), in.B.size() * sizeof(double), h);
    h = fnv(w.data(), sizeof(w), h);
    std::sort(w.begin(), w.end());
    for (int x : w) {
      shape += ' ';
      shape += std::to_string(x);
    }
  }
  return shape + " | " + hex(h);
}

}  // namespace

int run_workload(const Spec& spec, const RunArgs& args, JsonValue& out) {
  Runner r(spec, args);
  return r.run(out);
}

int run_selftest() {
  int failed = 0;
  auto expect = [&failed](bool ok, const std::string& what) {
    std::fprintf(stderr, "selftest %s: %s\n", ok ? "ok  " : "FAIL",
                 what.c_str());
    failed += ok ? 0 : 1;
  };
  for (Spec spec : specs()) {
    spec.box = Box{12, 12, 12};
    const std::string a = input_digest(spec, 7), b = input_digest(spec, 7),
                      c = input_digest(spec, 8);
    expect(a == b, spec.name + ": same seed, same inputs");
    expect(a != c, spec.name + ": different seed, different inputs");
    expect(a.substr(0, a.find('|')) == c.substr(0, c.find('|')),
           spec.name + ": same sizes and width mix across seeds");
  }
  // The correctness checker accepts a solved x and rejects a perturbed one.
  for (Spec spec : {*find_spec("timestep-pcg"), *find_spec("fmg-sharded")}) {
    spec.box = Box{16, 16, 16};
    spec.decomp = {1, 1, 1};
    System sys;
    sys.A = perturbed(smg::make_problem(spec.problem, spec.box).A, 3, 0);
    sys.ref = smg::csr_from_struct<double>(sys.A);
    sys.h = std::make_shared<smg::MGHierarchy>(sys.A, config_for(spec));
    sys.M = smg::make_mg_precond<double>(*sys.h);
    const StepInput in = make_input(spec, sys, 3, 1, 1);
    const StepResult r = solve_step(spec, sys, *sys.M, in, nullptr);
    expect(r.failed == 0, spec.name + ": checker accepts the solved x");
    const std::size_t n = static_cast<std::size_t>(sys.A.nrows());
    avec<double> x(n, 0.0);
    const double* us = in.us.empty() ? nullptr : in.us.data();
    if (us != nullptr) {
      x = in.us;
    } else {
      smg::SolveOptions so;
      so.rtol = spec.rtol;
      auto op = [&sys](std::span<const double> v, std::span<double> y) {
        smg::spmv<double, double>(sys.A, v, y);
      };
      smg::pcg<double>(op, {in.b.data(), n}, {x.data(), n}, *sys.M, so);
    }
    auto passes = [&] {
      return check_x(sys.ref, in.b.data(), x.data(), n, spec.rtol, us,
                     in.err_tol)
          .empty();
    };
    expect(passes(), spec.name + ": checker accepts the exact/solved x");
    perturb(x, in.err_tol);
    expect(!passes(), spec.name + ": checker rejects a perturbed x");
  }
  return failed;
}

}  // namespace pb
