// Fused vs unfused V-cycle downstroke: measured time and modeled traffic.
//
// The downstroke of every level computes r = f - A u and restricts it; the
// unfused reference writes the full residual vector and immediately
// re-reads it, two full-vector passes the fused residual_restrict kernel
// (kernels/fused.hpp) eliminates.  Both paths are bitwise identical, so
// this bench reports (a) per-config V-cycle times fused vs unfused across
// 1-8 threads and FP64/FP32/FP16 storage, (b) the perfmodel's downstroke
// bytes per level, and (c) a solver-level check that fused and unfused
// convergence histories coincide (same iteration count, same final
// residual) on every registered problem.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/harness.hpp"
#include "kernels/blas1.hpp"
#include "perfmodel/bytes.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

using namespace smg;

namespace {

void set_threads(int nt) {
#if defined(_OPENMP)
  omp_set_num_threads(nt);
#else
  (void)nt;
#endif
}

double measure_vcycle_ms(const Problem& p, MGConfig cfg) {
  StructMat<double> A = p.A;
  MGHierarchy h(std::move(A), cfg);
  const std::size_t n = static_cast<std::size_t>(h.level(0).A_full.nrows());
  avec<float> r(n, 1.0f), e(n, 0.0f);
  const int cycles = 10;
  double best = 1e30;
  if (cfg.compute == Prec::FP64) {
    MGPrecond<double> M(&h);
    avec<double> rd(n, 1.0), ed(n, 0.0);
    for (int rep = 0; rep < 3; ++rep) {  // rep 0 doubles as warm-up
      Timer t;
      for (int c = 0; c < cycles; ++c) {
        M.apply({rd.data(), n}, {ed.data(), n});
      }
      best = std::min(best, t.seconds());
    }
  } else {
    MGPrecond<float> M(&h);
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      for (int c = 0; c < cycles; ++c) {
        M.apply({r.data(), n}, {e.data(), n});
      }
      best = std::min(best, t.seconds());
    }
  }
  return best * 1000.0 / cycles;
}

/// Modeled downstroke traffic of one V-cycle (all levels above the coarsest),
/// fused or unfused, in MB.
double modeled_downstroke_mb(const MGHierarchy& h, bool fused) {
  const MGConfig& cfg = h.config();
  double bytes = 0.0;
  for (int l = 0; l + 1 < h.nlevels(); ++l) {
    const Level& L = h.level(l);
    const int bs = L.A_full.block_size();
    const double mf = static_cast<double>(L.A_full.nrows());
    const double mc =
        static_cast<double>(L.to_coarse.coarse.size()) * bs;
    const double nnz = static_cast<double>(L.A_full.ncells()) *
                       L.A_full.stencil().ndiag() * bs * bs;
    bytes += downstroke_bytes(nnz, mf, mc, cfg.storage_at(l), cfg.compute,
                              L.scaled, fused);
  }
  return bytes / (1024.0 * 1024.0);
}

struct StorageCfg {
  const char* name;
  MGConfig cfg;
};

}  // namespace

SMG_BENCH(fig_vcycle_traffic,
          "PAPER.md S5 (memory-bound kernels); ISSUE 2 tentpole",
          bench::kPaper) {
  bench::print_header(
      "Fused residual->restrict vs two-step downstroke: V-cycle time and "
      "modeled traffic",
      "PAPER.md S5 (memory-bound kernels); ISSUE 2 tentpole");

  std::vector<int> threads = {1, 2, 4, 8};
#if defined(_OPENMP)
  std::printf("host procs: %d\n\n", omp_get_num_procs());
#else
  threads = {1};
  std::printf("OpenMP off: single-thread only\n\n");
#endif
  if (ctx.smoke() && threads.size() > 2) {
    threads.resize(2);  // {1, 2}
  }

  const StorageCfg storages[] = {
      {"fp64", config_full64()},
      {"fp32", config_k64p32d32()},
      {"fp16", config_d16_setup_scale()},
  };

  // --- (a) measured V-cycle time, fused vs unfused ------------------------
  Table t({"problem", "storage", "threads", "unfused ms", "fused ms",
           "speedup", "model unfused MB", "model fused MB"});
  for (const auto& name : {"laplace27", "rhd"}) {
    const Problem p = make_problem(name, ctx.box(name));
    for (const StorageCfg& sc : storages) {
      MGConfig cfg = sc.cfg;
      cfg.min_coarse_cells = 64;

      // Modeled traffic is thread-independent; compute once per config.
      double mb_unfused = 0.0, mb_fused = 0.0;
      {
        StructMat<double> A = p.A;
        MGHierarchy h(std::move(A), cfg);
        mb_unfused = modeled_downstroke_mb(h, false);
        mb_fused = modeled_downstroke_mb(h, true);
      }
      const std::string ckey = std::string(name) + "/" + sc.name;
      // Closed-form byte model at the recorded box: gate it.
      ctx.value(ckey + "/model_unfused_mb", mb_unfused, "MB",
                bench::Better::Lower, /*gate=*/true);
      ctx.value(ckey + "/model_fused_mb", mb_fused, "MB",
                bench::Better::Lower, /*gate=*/true);

      for (int nt : threads) {
        set_threads(nt);
        MGConfig off = cfg;
        off.fused_transfers = FusedTransfers::Off;
        MGConfig on = cfg;
        on.fused_transfers = FusedTransfers::On;
        const double ms_off = measure_vcycle_ms(p, off);
        const double ms_on = measure_vcycle_ms(p, on);
        const double sx = ms_off / ms_on;
        const std::string key = ckey + "/t" + std::to_string(nt);
        ctx.value(key + "/fused_ms", ms_on, "ms", bench::Better::Lower);
        ctx.value(key + "/fused_speedup", sx, "x", bench::Better::Higher);
        t.row({name, sc.name, std::to_string(nt), Table::fmt(ms_off, 3),
               Table::fmt(ms_on, 3), Table::fmt(sx, 2) + "x",
               Table::fmt(mb_unfused, 2), Table::fmt(mb_fused, 2)});
      }
    }
  }
  std::printf("\n");
  t.print();
#if defined(_OPENMP)
  if (omp_get_num_procs() < threads.back()) {
    std::printf(
        "\nnote: host has %d hardware thread(s); larger thread counts "
        "oversubscribe.\nWhen the working set fits in cache the eliminated "
        "residual store+load never\nreaches DRAM and measured speedups sit "
        "near 1.0 — the model columns give the\nDRAM-traffic saving that "
        "governs bandwidth-bound machines (PAPER.md S5).\n",
        omp_get_num_procs());
  }
#endif

  // --- (b) modeled per-level traffic for the fp16 laplace27 case ----------
  {
    MGConfig cfg = config_d16_setup_scale();
    cfg.min_coarse_cells = 64;
    StructMat<double> A =
        make_problem("laplace27", ctx.box("laplace27")).A;
    MGHierarchy h(std::move(A), cfg);
    std::printf("\nper-level downstroke bytes, laplace27 fp16 storage:\n");
    Table lt({"level", "rows", "unfused KB", "fused KB", "saved KB"});
    for (int l = 0; l + 1 < h.nlevels(); ++l) {
      const Level& L = h.level(l);
      const int bs = L.A_full.block_size();
      const double mf = static_cast<double>(L.A_full.nrows());
      const double mc = static_cast<double>(L.to_coarse.coarse.size()) * bs;
      const double nnz = static_cast<double>(L.A_full.ncells()) *
                         L.A_full.stencil().ndiag() * bs * bs;
      const double u = downstroke_bytes(nnz, mf, mc, cfg.storage_at(l),
                                        cfg.compute, L.scaled, false);
      const double f = downstroke_bytes(nnz, mf, mc, cfg.storage_at(l),
                                        cfg.compute, L.scaled, true);
      lt.row({std::to_string(l), Table::fmt(mf, 0), Table::fmt(u / 1024.0, 1),
              Table::fmt(f / 1024.0, 1), Table::fmt((u - f) / 1024.0, 1)});
    }
    lt.print();
  }

  // --- (c) convergence histories must be identical ------------------------
  // The preconditioner is bitwise identical fused-vs-unfused at any thread
  // count (tests/core/test_mg_precond.cpp), and so are the Krylov dot
  // products (fixed-order blocked reduction, kernels/blas1.hpp dot) — so
  // the bitwise history comparison runs fully multi-threaded, no 1-thread
  // fallback.
  std::printf("\nfused-vs-unfused solver check (bitwise-identical histories, "
              "%d thread(s)):\n", threads.back());
  Table ct({"problem", "iters off", "iters on", "identical"});
  bool all_same = true;
  set_threads(threads.back());
  for (const std::string& name : problem_names()) {
    const Problem p = make_problem(name, ctx.box(name));
    MGConfig off = config_d16_setup_scale();
    off.min_coarse_cells = 64;
    MGConfig on = off;
    off.fused_transfers = FusedTransfers::Off;
    on.fused_transfers = FusedTransfers::On;
    const auto ro = bench::run_e2e(p, off, 300, 1e-8);
    const auto rn = bench::run_e2e(p, on, 300, 1e-8);
    const bool same = ro.solve.iters == rn.solve.iters &&
                      ro.solve.final_relres == rn.solve.final_relres &&
                      ro.solve.history == rn.solve.history;
    all_same = all_same && same;
    ctx.value(name + "/history_identical", same ? 1.0 : 0.0, "bool",
              bench::Better::None, /*gate=*/true);
    ct.row({name, std::to_string(ro.solve.iters),
            std::to_string(rn.solve.iters), same ? "yes" : "NO"});
  }
  ct.print();
  std::printf("\nall histories identical: %s\n", all_same ? "yes" : "NO");
  if (!all_same) {
    ctx.fail("fused-vs-unfused convergence histories diverged");
  }
}
