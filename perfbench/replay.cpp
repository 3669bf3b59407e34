#include "replay.hpp"

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <type_traits>

#include "core/coarsen.hpp"
#include "core/scaling.hpp"
#include "core/transfer.hpp"
#include "grid/halo.hpp"
#include "kernels/blas1.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmv.hpp"
#include "kernels/symgs.hpp"
#include "perfmodel/bytes.hpp"
#include "perfmodel/halo.hpp"
#include "perfmodel/stream.hpp"
#include "util/multivector.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pb {

using smg::avec;
using smg::MultiVector;
using smg::Prec;
using smg::StructMat;

namespace {

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median seconds per call: one warm-up call, then at least 5 timed calls
/// and at least 50 ms of them.
double per_call(const std::function<void()>& f) {
  f();
  std::vector<double> t;
  double total = 0.0;
  while (t.size() < 5 || (total < 0.05 && t.size() < 2000)) {
    const smg::Timer tm;
    f();
    t.push_back(tm.seconds());
    total += t.back();
  }
  return median_of(std::move(t));
}

/// Records `name`.{s_per_call,gbs} and checks the perfmodel byte count
/// against the byte count of the operands the replay actually streamed.
void record(Metrics& m, Failures& fails, const std::string& name, double s,
            double model_bytes, double operand_bytes) {
  m[name + ".s_per_call"] = s;
  m[name + ".gbs"] = model_bytes / s / 1e9;
  if (model_bytes != operand_bytes) {
    fails.push_back("ledger: " + name + " perfmodel bytes " +
                    std::to_string(model_bytes) + " != operand bytes " +
                    std::to_string(operand_bytes));
  }
}

template <class DT, class ST>
StructMat<DT> convert(const StructMat<ST>& A) {
  StructMat<DT> out(A.box(), A.stencil(), A.block_size(), A.layout());
  const auto src = A.values();
  auto dst = out.values();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<DT>(static_cast<float>(src[i]));
  }
  return out;
}

avec<float> to_float(const avec<double>& v) {
  avec<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<float>(v[i]);
  }
  return out;
}

/// The single-vector level kernels of one level, on its stored matrix.
template <class ST>
void replay_level(const smg::MGHierarchy& h, int l, const StructMat<ST>& A,
                  Metrics& m, Failures& fails) {
  using CT = float;
  const smg::Level& lev = h.level(l);
  const std::string L = ".L" + std::to_string(l);
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  const double nnz = static_cast<double>(A.nnz_logical());
  const bool scaled = lev.scaled;
  const avec<CT> q2v = scaled ? to_float(lev.q2) : avec<CT>{};
  const CT* q2 = scaled ? q2v.data() : nullptr;
  const avec<CT> inv = to_float(lev.invdiag);
  avec<CT> f(n, CT{1}), u(n, CT{0});
  // Operand bytes as streamed: the matrix at its element size, each vector
  // at its length.
  const double vb = sizeof(CT);
  const double mat = nnz * static_cast<double>(sizeof(ST));
  const double q2b = vb * static_cast<double>(q2v.size());
  const double dn = static_cast<double>(n);

  const double gs_s = per_call([&] {
    smg::gs_forward<ST, CT>(A, {f.data(), n}, {u.data(), n},
                            {inv.data(), inv.size()}, q2, &lev.smoother_wf);
  });
  record(m, fails, "kernels.symgs" + L, gs_s,
         smg::symgs_sweep_bytes(nnz, dn, lev.storage, Prec::FP32, scaled),
         mat + q2b +
             vb * static_cast<double>(f.size() + inv.size() + 2 * u.size()));

  if (l + 1 >= h.nlevels()) {
    return;
  }
  const smg::Coarsening& c = lev.to_coarse;
  const int bs = A.block_size();
  const std::size_t nc = static_cast<std::size_t>(c.coarse.size() * bs);
  const double dnc = static_cast<double>(nc);
  avec<CT> fc(nc, CT{0}), ec(nc, CT{1});
  const double rr_s = per_call([&] {
    smg::residual_restrict<ST, CT>(A, {f.data(), n}, {u.data(), n}, q2, c,
                                   {fc.data(), nc});
  });
  record(m, fails, "kernels.residual_restrict" + L, rr_s,
         smg::residual_restrict_bytes(nnz, dn, dnc, lev.storage, Prec::FP32,
                                      scaled),
         mat + q2b + vb * static_cast<double>(f.size() + u.size() + fc.size()));
  const double pr_s = per_call([&] {
    smg::prolong_add<CT>(c, bs, {ec.data(), nc}, {u.data(), n});
  });
  record(m, fails, "core.transfer.prolong" + L, pr_s,
         smg::prolong_bytes(dn, dnc, Prec::FP32),
         vb * static_cast<double>(ec.size() + 2 * u.size()));
}

/// L0 FP16 vs FP32 storage on identical values (the FP16 values widened),
/// and the k=8 panel kernels when requested.
template <class ST>
void replay_level0_extras(const smg::MGHierarchy& h, const StructMat<ST>& A,
                          bool panels, Metrics& m, Failures& fails) {
  using CT = float;
  const smg::Level& lev = h.level(0);
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  const double nnz = static_cast<double>(A.nnz_logical());
  const bool scaled = lev.scaled;
  const avec<CT> q2v = scaled ? to_float(lev.q2) : avec<CT>{};
  const CT* q2 = scaled ? q2v.data() : nullptr;
  const avec<CT> inv = to_float(lev.invdiag);
  const std::span<const CT> invs(inv.data(), inv.size());
  const StructMat<smg::half> a16 = convert<smg::half>(A);
  const StructMat<float> a32 = convert<float>(a16);
  avec<CT> x(n, CT{1}), y(n, CT{0});
  const std::span<const CT> xs(x.data(), n);
  const std::span<CT> ys(y.data(), n);
  const double dn = static_cast<double>(n);

  const double sp16 =
      per_call([&] { smg::spmv<smg::half, CT>(a16, xs, ys, q2); });
  const double sp32 = per_call([&] { smg::spmv<float, CT>(a32, xs, ys, q2); });
  m["kernels.spmv.fp16_over_fp32"] = sp16 / sp32;
  m["kernels.spmv.model_bound"] =
      smg::spmv_bytes(nnz, dn, Prec::FP16, Prec::FP32, scaled) /
      smg::spmv_bytes(nnz, dn, Prec::FP32, Prec::FP32, scaled);
  const double gs16 = per_call([&] {
    smg::gs_forward<smg::half, CT>(a16, xs, ys, invs, q2, &lev.smoother_wf);
  });
  const double gs32 = per_call([&] {
    smg::gs_forward<float, CT>(a32, xs, ys, invs, q2, &lev.smoother_wf);
  });
  m["kernels.symgs.L0.fp16_over_fp32"] = gs16 / gs32;
  m["kernels.symgs.L0.model_bound"] =
      smg::symgs_sweep_bytes(nnz, dn, Prec::FP16, Prec::FP32, scaled) /
      smg::symgs_sweep_bytes(nnz, dn, Prec::FP32, Prec::FP32, scaled);

  if (!panels || h.nlevels() < 2) {
    return;
  }
  constexpr int k = 8;
  const smg::Coarsening& c = lev.to_coarse;
  const int bs = A.block_size();
  const std::int64_t nc = c.coarse.size() * bs;
  MultiVector<CT> F(A.nrows(), k), U(A.nrows(), k), FC(nc, k), EC(nc, k);
  F.fill(CT{1});
  EC.fill(CT{1});
  const double vb = sizeof(CT);
  const double mat = nnz * static_cast<double>(sizeof(ST));
  const double q2b = vb * static_cast<double>(q2v.size());
  const double dnc = static_cast<double>(nc);
  const Prec st = lev.storage;
  const double gsm = per_call([&] {
    smg::gs_forward_many<ST, CT>(A, F, U, invs, q2, &lev.smoother_wf);
  });
  record(m, fails, "kernels.symgs_many.L0", gsm,
         smg::symgs_sweep_many_bytes(nnz, dn, st, Prec::FP32, scaled, k),
         mat + q2b + vb * (3.0 * k * dn + static_cast<double>(inv.size())));
  const double rrm = per_call(
      [&] { smg::residual_restrict_many<ST, CT>(A, F, U, q2, c, FC); });
  record(m, fails, "kernels.residual_restrict_many.L0", rrm,
         smg::residual_restrict_many_bytes(nnz, dn, dnc, st, Prec::FP32,
                                           scaled, k),
         mat + q2b + vb * k * (2.0 * dn + dnc));
  const double prm =
      per_call([&] { smg::prolong_add_many<CT>(c, bs, EC, U); });
  record(m, fails, "core.transfer.prolong_many.L0", prm,
         smg::prolong_many_bytes(dn, dnc, Prec::FP32, k),
         vb * k * (dnc + 2.0 * dn));
  for (const char* name :
       {"kernels.symgs_many.L0", "kernels.residual_restrict_many.L0",
        "core.transfer.prolong_many.L0"}) {
    const std::string s(name);
    m[s + ".s_per_col"] = m[s + ".s_per_call"] / k;
    m.erase(s + ".s_per_call");
    m.erase(s + ".gbs");
  }
}

}  // namespace

void replay_kernels(const smg::MGHierarchy& h, const StructMat<double>& A0,
                    bool panels, Metrics& m, Failures& fails) {
  if (h.config().compute != Prec::FP32) {
    fails.push_back("replay: compute precision is not FP32");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(A0.nrows());
  avec<double> x(n, 1.0), y(n, 0.0);
  const std::span<const double> xs(x.data(), n), ys(y.data(), n);
  const double nnz = static_cast<double>(A0.nnz_logical());
  const double sp = per_call(
      [&] { smg::spmv<double, double>(A0, xs, {y.data(), n}); });
  record(m, fails, "kernels.spmv", sp,
         smg::spmv_bytes(nnz, static_cast<double>(n), Prec::FP64, Prec::FP64,
                         false),
         8.0 * (nnz + static_cast<double>(x.size() + y.size())));
  volatile double sink = 0.0;
  const double dt =
      per_call([&] { sink = sink + smg::dot<double>(xs, ys); });
  m["kernels.blas1.dot.s_per_call"] = dt;
  m["kernels.blas1.dot.gbs"] = 2.0 * 8.0 * static_cast<double>(n) / dt / 1e9;

  for (int l = 0; l < std::min(3, h.nlevels()); ++l) {
    h.level(l).A_stored.visit(
        [&](const auto& A) { replay_level(h, l, A, m, fails); });
  }
  h.level(0).A_stored.visit(
      [&](const auto& A) { replay_level0_extras(h, A, panels, m, fails); });

  const smg::DenseLU& lu = h.coarse_solver();
  const std::size_t nc = static_cast<std::size_t>(lu.size());
  avec<float> b(nc, 1.0f), xc(nc, 0.0f);
  m["core.coarse_solve.s"] = per_call(
      [&] { lu.solve<float>({b.data(), nc}, {xc.data(), nc}); });
}

void replay_setup(const smg::MGHierarchy& h, Metrics& m) {
  const smg::MGConfig& cfg = h.config();
  double galerkin = 0.0;
  double scale = 0.0;
  for (int l = 0; l < h.nlevels(); ++l) {
    const smg::Level& lev = h.level(l);
    if (l + 1 < h.nlevels()) {
      const smg::Timer t;
      const StructMat<double> Ac =
          smg::galerkin_coarsen(lev.A_full, lev.to_coarse);
      galerkin += t.seconds();
    }
    if (lev.scaled) {
      StructMat<double> copy = lev.A_full;
      const smg::Timer t;
      smg::scale_matrix(copy, cfg.scale_safety, smg::format_max(lev.storage));
      scale += t.seconds();
    }
  }
  m["core.setup.galerkin_s"] = galerkin;
  m["core.setup.scale_s"] = scale;
  m["core.setup.levels"] = h.nlevels();
}

void replay_halo(const smg::MGHierarchy& h, std::array<int, 3> nb, Metrics& m,
                 Failures& fails) {
  const std::int64_t min_box = h.config().decomp_min_box;
  const std::vector<smg::BoxDecomp> chain = smg::decomp_chain(h, nb, min_box);
  const std::vector<smg::HaloLevelModel> model =
      smg::model_halo(h, nb, min_box);
  const int bs = h.level(0).A_full.block_size();
  smg::MemcpyExchanger wire;
  double s_per_apply = 0.0;
  for (std::size_t l = 0; l < chain.size() && l < model.size(); ++l) {
    if (!model[l].boxed) {
      continue;
    }
    const smg::HaloPlan plan(chain[l], bs);
    smg::HaloExchange hx;
    hx.init(&plan, sizeof(float));
    std::vector<avec<float>> fields(static_cast<std::size_t>(plan.nboxes()));
    for (int b = 0; b < plan.nboxes(); ++b) {
      fields[static_cast<std::size_t>(b)].assign(
          static_cast<std::size_t>(plan.local(b).size() * bs), 1.0f);
    }
    const std::function<float*(int)> field = [&fields](int b) {
      return fields[static_cast<std::size_t>(b)].data();
    };
    const double s = per_call(
        [&] { hx.exchange<float>(field, smg::ThreadPool::global(), wire); });
    s_per_apply += static_cast<double>(model[l].exchanges()) * s;
    const std::uint64_t model_bytes =
        static_cast<std::uint64_t>(model[l].values_per_exchange) *
        sizeof(float);
    if (hx.bytes_exchanged() != model_bytes * hx.exchanges()) {
      fails.push_back("ledger: halo L" + std::to_string(l) + " exchanged " +
                      std::to_string(hx.bytes_exchanged()) + " bytes over " +
                      std::to_string(hx.exchanges()) + " exchanges, model " +
                      std::to_string(model_bytes) + " per exchange");
    }
  }
  m["grid.halo.s_per_apply"] = s_per_apply;
  m["grid.halo.model_bytes_per_apply"] = static_cast<double>(
      smg::model_halo_bytes_per_apply(model, sizeof(float)));
}

StreamProbe stream_probe() {
  StreamProbe p;
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) {
    llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  }
  p.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
  const std::size_t n = (4 * p.llc_bytes + sizeof(double) - 1) / sizeof(double);
  const smg::StreamResult r = smg::measure_stream(n, 3);
  p.triad_gbs = r.triad_gbs;
  p.array_bytes = r.bytes;
  return p;
}

}  // namespace pb
