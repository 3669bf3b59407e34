// Figure 7: kernel optimization ablation for mixed-precision SpMV and
// SpTRSV (forward Gauss-Seidel / triangular solve).
//
// Series (speedup over MG-fp32/fp32, the best full-FP32 implementation):
//   Max-fp16/fp32        — memory-volume model upper bound
//   MG-fp16/fp32 (opt)   — SOA layout, SIMD F16C conversion
//   MG-fp16/fp32 (naive) — AOS layout, scalar per-entry conversion
//   CSR-fp32 ("vendor")  — index-carrying general kernel (ARMPL/MKL stand-in)
//
// Expected shape: opt ~= Max > 1 > naive for fp16; vendor below MG baseline.
// SpMV uses patterns 3d7/3d19/3d27; SpTRSV uses their lower-triangular
// halves 3d4/3d10/3d14 (one forward sweep == exact solve there).
#include <cmath>

#include "bench_common.hpp"
#include "core/smoother.hpp"
#include "harness/harness.hpp"
#include "csr/csr_matrix.hpp"
#include "kernels/symgs.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace smg;

namespace {

StructMat<double> make_matrix(const Box& box, Pattern pat,
                              std::uint64_t seed) {
  StructMat<double> A(box, Stencil::make(pat), 1, Layout::SOA);
  Rng rng(seed);
  const int center = A.stencil().center();
  for (std::int64_t cell = 0; cell < A.ncells(); ++cell) {
    for (int d = 0; d < A.ndiag(); ++d) {
      A.at(cell, d) =
          d == center ? 2.0 * A.ndiag() : rng.uniform(-1.0, 1.0);
    }
  }
  A.clear_out_of_box();
  return A;
}

/// Best-of-reps seconds for fn(), measured by the telemetry spans the
/// kernels themselves open (src/obs): a local Counters-level sink is
/// installed, and each rep's time is the growth of the all-kind span sum —
/// exactly the interval the kernel's own KernelSpan covers, with any
/// harness overhead outside it excluded.
template <class F>
double time_best(F&& fn, int reps = 5) {
  obs::Telemetry sink(obs::TelemetryLevel::Counters, 1);
  const obs::InstallGuard guard(&sink);
  const auto span_sum = [&sink] {
    double s = 0.0;
    for (int k = 0; k < obs::kNumKinds; ++k) {
      s += sink.total(static_cast<obs::Kind>(k)).seconds;
    }
    return s;
  };
  double best = 1e300;
  double prev = 0.0;
  for (int r = 0; r < reps; ++r) {
    fn();
    const double total = span_sum();
    best = std::min(best, total - prev);
    prev = total;
  }
  return best;
}

struct KernelTimes {
  double fp32_aos = 0.0;   // baseline: MG-fp32/fp32
  double fp16_soa = 0.0;   // opt
  double fp16_aos = 0.0;   // naive
  double csr_fp32 = 0.0;   // vendor stand-in
  double max_model = 0.0;  // model bound (as a speedup)
};

KernelTimes bench_spmv(const Box& box, Pattern pat, int reps) {
  const auto Ad = make_matrix(box, pat, 11);
  const auto A32s = convert<float>(Ad, Layout::SOAL);
  const auto A16s = convert<half>(Ad, Layout::SOAL);
  const auto A16a = convert<half>(Ad, Layout::AOS);
  const auto C32 = csr_from_struct<float, std::int32_t>(Ad);

  const std::size_t n = static_cast<std::size_t>(Ad.nrows());
  avec<float> x(n, 1.0f), y(n, 0.0f);
  Rng rng(3);
  for (auto& v : x) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  KernelTimes kt;
  // Baseline is the *best* full-FP32 kernel (the paper's MG-fp32/fp32):
  // SOA, compiler-vectorized.
  kt.fp32_aos = time_best(
      [&] { spmv<float, float>(A32s, {x.data(), n}, {y.data(), n}); }, reps);
  kt.fp16_soa = time_best(
      [&] { spmv<half, float>(A16s, {x.data(), n}, {y.data(), n}); }, reps);
  kt.fp16_aos = time_best(
      [&] { spmv<half, float>(A16a, {x.data(), n}, {y.data(), n}); }, reps);
  kt.csr_fp32 =
      time_best([&] { C32.spmv<float>({x.data(), n}, {y.data(), n}); }, reps);

  const double slots = static_cast<double>(Ad.ncells()) * Ad.ndiag();
  const double vec = 2.0 * static_cast<double>(n) * 4.0;
  kt.max_model = (slots * 4.0 + vec) / (slots * 2.0 + vec);
  return kt;
}

KernelTimes bench_sptrsv(const Box& box, Pattern pat, int reps) {
  const auto Ld = make_matrix(box, pat, 23);
  const auto invd = compute_invdiag(Ld);
  avec<float> invdf(invd.size());
  for (std::size_t i = 0; i < invd.size(); ++i) {
    invdf[i] = static_cast<float>(invd[i]);
  }
  const auto L32a = convert<float>(Ld, Layout::AOS);
  const auto L32s = convert<float>(Ld, Layout::SOAL);
  const auto L16s = convert<half>(Ld, Layout::SOAL);
  const auto L16a = convert<half>(Ld, Layout::AOS);
  const auto C32 = csr_from_struct<float, std::int32_t>(Ld);

  const std::size_t n = static_cast<std::size_t>(Ld.nrows());
  avec<float> f(n, 1.0f), u(n, 0.0f);
  // The SOA series time the sweep the solver runs: with the level's line
  // schedule, as MGHierarchy plans it.
  const WavefrontSchedule wf = plan_smoother_wavefront(
      box, Ld.stencil(), Layout::SOAL, SmootherParallel::Auto);

  KernelTimes kt;
  // Baseline is the best full-FP32 implementation: SOA line-buffered.
  kt.fp32_aos = time_best(
      [&] {
        gs_forward<float, float>(L32s, {f.data(), n}, {u.data(), n},
                                 {invdf.data(), invdf.size()}, nullptr, &wf);
      },
      reps);
  kt.fp16_soa = time_best(
      [&] {
        gs_forward<half, float>(L16s, {f.data(), n}, {u.data(), n},
                                {invdf.data(), invdf.size()}, nullptr, &wf);
      },
      reps);
  kt.fp16_aos = time_best(
      [&] {
        gs_forward<half, float>(L16a, {f.data(), n}, {u.data(), n},
                                {invdf.data(), invdf.size()});
      },
      reps);
  kt.csr_fp32 = time_best(
      [&] { C32.sptrsv_lower<float>({f.data(), n}, {u.data(), n}); }, reps);
  (void)L32a;

  const double slots = static_cast<double>(Ld.ncells()) * Ld.ndiag();
  const double vec = 3.0 * static_cast<double>(n) * 4.0;  // f, u, invdiag
  kt.max_model = (slots * 4.0 + vec) / (slots * 2.0 + vec);
  return kt;
}

void report(bench::Context& ctx, const char* kernel, Pattern pat,
            const std::vector<KernelTimes>& kts, Table& t) {
  std::vector<double> s_max, s_opt, s_naive, s_csr;
  for (const auto& kt : kts) {
    s_max.push_back(kt.max_model);
    s_opt.push_back(kt.fp32_aos / kt.fp16_soa);
    s_naive.push_back(kt.fp32_aos / kt.fp16_aos);
    s_csr.push_back(kt.fp32_aos / kt.csr_fp32);
  }
  const std::string key =
      std::string(kernel) + "/" + std::string(to_string(pat));
  // The model bound is closed-form (gate it); measured speedups are
  // host-dependent ratios — recorded ungated for the trajectory.
  ctx.value(key + "/speedup_bound", geomean({s_max.data(), s_max.size()}),
            "x", bench::Better::Higher, /*gate=*/true);
  ctx.value(key + "/speedup_opt", geomean({s_opt.data(), s_opt.size()}),
            "x", bench::Better::Higher);
  ctx.value(key + "/speedup_naive",
            geomean({s_naive.data(), s_naive.size()}), "x",
            bench::Better::Higher);
  ctx.value(key + "/speedup_csr_vendor",
            geomean({s_csr.data(), s_csr.size()}), "x",
            bench::Better::Higher);
  t.row({kernel, std::string(to_string(pat)),
         Table::fmt(geomean({s_max.data(), s_max.size()}), 2),
         Table::fmt(geomean({s_opt.data(), s_opt.size()}), 2),
         Table::fmt(geomean({s_naive.data(), s_naive.size()}), 2),
         "1.00",
         Table::fmt(geomean({s_csr.data(), s_csr.size()}), 2)});
}

}  // namespace

SMG_BENCH(fig7_kernel_ablation,
          "Figure 7 (speedups over MG-fp32/fp32, geomean over grid sizes)",
          bench::kPaper) {
  bench::print_header("Kernel ablation: AOS vs SOA vs model bound",
                      "Figure 7 (speedups over MG-fp32/fp32, geomean over"
                      " grid sizes)");

  std::vector<Box> sizes = {Box{48, 48, 48}, Box{64, 64, 64},
                            Box{80, 80, 80}};
  if (ctx.smoke()) {
    sizes = {Box{40, 40, 40}};  // one out-of-cache size keeps CI fast
  }
  const int reps = ctx.opts().repeats;
  Table t({"kernel", "pattern", "Max-fp16/fp32", "MG-fp16/fp32(opt)",
           "MG-fp16/fp32(naive)", "MG-fp32/fp32", "CSR-fp32(vendor)"});

  for (Pattern pat : {Pattern::P3d7, Pattern::P3d19, Pattern::P3d27}) {
    std::vector<KernelTimes> kts;
    for (const Box& box : sizes) {
      kts.push_back(bench_spmv(box, pat, reps));
    }
    report(ctx, "SpMV", pat, kts, t);
  }
  for (Pattern pat : {Pattern::P3d4, Pattern::P3d10, Pattern::P3d14}) {
    std::vector<KernelTimes> kts;
    for (const Box& box : sizes) {
      kts.push_back(bench_sptrsv(box, pat, reps));
    }
    report(ctx, "SpTRSV", pat, kts, t);
  }
  t.print();
  std::printf("\n(expected shape: opt tracks Max; naive pays the per-entry\n"
              "fcvt penalty; the index-carrying CSR 'vendor' kernel trails\n"
              "the structured baseline.)\n");
}
