#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>

#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "perfmodel/bytes.hpp"
#include "util/table.hpp"

namespace smg::obs {

namespace {

/// Kinds shown in the per-level kernel table, in report order.
constexpr Kind kKernelKinds[] = {
    Kind::SymGS,    Kind::Jacobi,   Kind::SpMV,
    Kind::Residual, Kind::ResidualRestrict, Kind::Restrict,
    Kind::Prolong,  Kind::CoarseSolve,      Kind::Blas1,
    Kind::HaloPack, Kind::HaloUnpack,
};

/// Modeled compulsory bytes of one call of `k` on level `l` (0 = no model).
double model_bytes(Kind k, int l, const MGHierarchy& h, Prec krylov) {
  const MGConfig& cfg = h.config();
  if (l < 0) {
    // Solver side: SpMV / residual stream the finest FP64->KT matrix with
    // Krylov-precision vectors, never scaled.
    const Level& L = h.level(0);
    const int bs = L.A_full.block_size();
    const double m = static_cast<double>(L.A_full.nrows());
    const double nnz = static_cast<double>(L.A_full.ncells()) *
                       L.A_full.stencil().ndiag() * bs * bs;
    switch (k) {
      case Kind::SpMV:
        return spmv_bytes(nnz, m, krylov, krylov, false);
      case Kind::Residual:
        return residual_bytes(nnz, m, krylov, krylov, false);
      default:
        return 0.0;
    }
  }
  const Level& L = h.level(l);
  const int bs = L.A_full.block_size();
  const double m = static_cast<double>(L.A_full.nrows());
  const double mc =
      l + 1 < h.nlevels()
          ? static_cast<double>(L.to_coarse.coarse.size()) * bs
          : 0.0;
  const double nnz = static_cast<double>(L.A_full.ncells()) *
                     L.A_full.stencil().ndiag() * bs * bs;
  const Prec mat = L.storage;
  const Prec vec = cfg.compute;
  switch (k) {
    case Kind::SymGS:
      return symgs_sweep_bytes(nnz, m, mat, vec, L.scaled);
    case Kind::Jacobi:
      return jacobi_sweep_bytes(nnz, m, mat, vec, L.scaled);
    case Kind::SpMV:
      return spmv_bytes(nnz, m, mat, vec, L.scaled);
    case Kind::Residual:
      return residual_bytes(nnz, m, mat, vec, L.scaled);
    case Kind::ResidualRestrict:
      return residual_restrict_bytes(nnz, m, mc, mat, vec, L.scaled);
    case Kind::Restrict:
      return restrict_bytes(m, mc, vec);
    case Kind::Prolong:
      return prolong_bytes(m, mc, vec);
    default:
      return 0.0;  // coarse_solve (dense LU), blas1, structural kinds
  }
}

/// Modeled bytes of one zero-guess SymGS sweep on level `l`: only the
/// earlier-in-order off-diagonals are read.
double zero_guess_model_bytes(int l, const MGHierarchy& h) {
  const Level& L = h.level(l);
  const int bs = L.A_full.block_size();
  const double nnz_lower = static_cast<double>(L.A_full.ncells()) *
                           static_cast<double>(L.A_full.stencil().lower().size()) *
                           bs * bs;
  return symgs_zero_guess_sweep_bytes(
      nnz_lower, static_cast<double>(L.A_full.nrows()), L.storage,
      h.config().compute, L.scaled);
}

}  // namespace

SolverReport build_report(const Telemetry& t, const MGHierarchy& h,
                          double reference_gbs, Prec krylov) {
  SolverReport r;
  r.solve_seconds = t.total(Kind::Solve).seconds;
  r.iterations = t.total(Kind::Iteration).calls;
  r.precond_seconds = t.apply_seconds();
  r.precond_calls = t.apply_calls();
  r.panel_applies = t.panel_applies();
  r.panel_columns = t.panel_columns();
  r.max_panel_width = static_cast<std::uint64_t>(t.max_panel_width());
  r.reference_gbs = reference_gbs;
  r.dropped = t.dropped();
  for (int l = -1; l < h.nlevels(); ++l) {
    for (const Kind k : kKernelKinds) {
      const SpanStat s = t.stat(k, l);
      if (s.calls == 0) {
        continue;
      }
      KernelRow row;
      row.kind = k;
      row.level = l;
      row.seconds = s.seconds;
      row.calls = s.calls;
      row.model_bytes_per_call = model_bytes(k, l, h, krylov);
      if (k == Kind::SymGS && l >= 0) {
        // Zero-guess sweeps move fewer bytes: charge each call at its own
        // model and report the per-call mean.
        const std::uint64_t zg = std::min(t.zero_guess_sweeps(l), s.calls);
        const double calls = static_cast<double>(s.calls);
        row.model_bytes_per_call =
            (static_cast<double>(zg) * zero_guess_model_bytes(l, h) +
             (calls - static_cast<double>(zg)) * row.model_bytes_per_call) /
            calls;
      }
      if (row.model_bytes_per_call > 0.0 && s.seconds > 0.0) {
        row.achieved_gbs = row.model_bytes_per_call *
                           static_cast<double>(s.calls) / s.seconds / 1e9;
        if (reference_gbs > 0.0) {
          row.efficiency = row.achieved_gbs / reference_gbs;
        }
      }
      r.kernels.push_back(row);
    }
  }
  r.levels = collect_precision_counters(h);
  for (int l = 0; l < h.nlevels(); ++l) {
    if (t.halo_exchanges(l) == 0) {
      continue;
    }
    HaloLevelStat hs;
    hs.level = l;
    hs.bytes = t.halo_bytes(l);
    hs.exchanges = t.halo_exchanges(l);
    hs.pack_seconds = t.stat(Kind::HaloPack, l).seconds;
    hs.unpack_seconds = t.stat(Kind::HaloUnpack, l).seconds;
    r.halo.push_back(hs);
  }
  r.policy = h.policy();
  r.autopilot = h.autopilot_log();
  r.storage_ladder = h.config().expand_ladder(h.nlevels());
  r.request_first = t.request_first();
  r.request_last = t.request_last();
  r.request_count = t.request_count();
  r.metrics = snapshot_metrics();
  return r;
}

SolverReport build_report(const Telemetry& t, const MGHierarchy& h,
                          double reference_gbs) {
  return build_report(t, h, reference_gbs, Prec::FP64);
}

void print_report(const SolverReport& r, std::ostream& os) {
  os << "telemetry report (achieved GB/s = perfmodel bytes / measured s)\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  solve: %.4f s, %llu iteration(s); preconditioner: %.4f s "
                "over %llu apply call(s)\n",
                r.solve_seconds,
                static_cast<unsigned long long>(r.iterations),
                r.precond_seconds,
                static_cast<unsigned long long>(r.precond_calls));
  os << line;
  if (r.panel_applies > 0) {
    std::snprintf(line, sizeof(line),
                  "  throughput mode: %llu panel apply call(s) carrying %llu "
                  "column(s) (max width %llu)\n",
                  static_cast<unsigned long long>(r.panel_applies),
                  static_cast<unsigned long long>(r.panel_columns),
                  static_cast<unsigned long long>(r.max_panel_width));
    os << line;
  }
  if (r.reference_gbs > 0.0) {
    std::snprintf(line, sizeof(line), "  bandwidth reference: %.2f GB/s\n",
                  r.reference_gbs);
    os << line;
  }
  if (r.dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "  WARNING: %llu span(s)/event(s) dropped (caps hit)\n",
                  static_cast<unsigned long long>(r.dropped));
    os << line;
  }

  Table t({"level", "kernel", "calls", "total ms", "us/call", "model MB/call",
           "GB/s", "% of ref"});
  for (const KernelRow& k : r.kernels) {
    const std::string lev = k.level < 0 ? "-" : std::to_string(k.level);
    const double per_call_us =
        k.calls > 0 ? k.seconds * 1e6 / static_cast<double>(k.calls) : 0.0;
    t.row({lev, std::string(to_string(k.kind)), std::to_string(k.calls),
           Table::fmt(k.seconds * 1e3, 3), Table::fmt(per_call_us, 1),
           k.model_bytes_per_call > 0.0
               ? Table::fmt(k.model_bytes_per_call / (1024.0 * 1024.0), 3)
               : "-",
           k.achieved_gbs > 0.0 ? Table::fmt(k.achieved_gbs, 2) : "-",
           k.efficiency > 0.0 ? Table::fmt(k.efficiency * 100.0, 1) : "-"});
  }
  t.print(os);
  os << "\n";
  print_precision_counters(r.levels, os);
  if (!r.halo.empty()) {
    os << "\nper-level halo traffic (decomposed engine)\n";
    Table ht({"level", "exchanges", "wire MB", "pack ms", "unpack ms"});
    for (const HaloLevelStat& hl : r.halo) {
      ht.row({std::to_string(hl.level), std::to_string(hl.exchanges),
              Table::fmt(static_cast<double>(hl.bytes) / (1024.0 * 1024.0), 3),
              Table::fmt(hl.pack_seconds * 1e3, 3),
              Table::fmt(hl.unpack_seconds * 1e3, 3)});
    }
    ht.print(os);
  }
  if (!r.autopilot.empty()) {
    os << "\nprecision autopilot decisions (policy: "
       << std::string(to_string(r.policy)) << ")\n";
    Table a({"level", "trigger", "action", "from", "to", "safety", "reason"});
    for (const AutopilotDecision& d : r.autopilot) {
      a.row({std::to_string(d.level), std::string(to_string(d.trigger)),
             std::string(to_string(d.action)), std::string(to_string(d.from)),
             std::string(to_string(d.to)),
             d.safety > 0.0 ? Table::sci(d.safety, 2) : "-", d.reason});
    }
    a.print(os);
  }
}

void print_report(const SolverReport& r) { print_report(r, std::cout); }

void print_precision_counters(const std::vector<LevelPrecisionCounters>& c,
                              std::ostream& os) {
  os << "per-level precision counters (headroom > 1 => no overflow "
        "possible)\n";
  Table t({"level", "rows", "storage", "shifted", "scaled", "G", "headroom",
           "min|a|", "max|a|", "ovf", "flush0", "subnorm", "conv/apply"});
  for (const LevelPrecisionCounters& l : c) {
    t.row({std::to_string(l.level), std::to_string(l.rows),
           std::string(to_string(l.storage)), l.shifted ? "yes" : "no",
           l.scaled ? "yes" : "no",
           l.scaled ? Table::sci(l.g, 2) : "-",
           l.headroom > 0.0 ? Table::sci(l.headroom, 2) : "-",
           Table::sci(l.min_abs, 2), Table::sci(l.max_abs, 2),
           std::to_string(l.overflowed), std::to_string(l.flushed_to_zero),
           std::to_string(l.subnormal),
           std::to_string(l.conversions_per_apply)});
  }
  t.print(os);
}

void print_precision_counters(const std::vector<LevelPrecisionCounters>& c) {
  print_precision_counters(c, std::cout);
}

std::string to_json(const SolverReport& r) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"smg-telemetry-v3\",";
  out += "\"precision_policy\":\"" + std::string(to_string(r.policy)) + "\",";
  out += "\"storage_ladder\":[";
  for (std::size_t i = 0; i < r.storage_ladder.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + std::string(to_string(r.storage_ladder[i])) + "\"";
  }
  out += "],";
  out += "\"requests\":{\"first\":" + json_num(r.request_first);
  out += ",\"last\":" + json_num(r.request_last);
  out += ",\"count\":" + json_num(r.request_count) + "},";
  out += "\"solve\":{\"seconds\":" + json_num(r.solve_seconds);
  out += ",\"iterations\":" + json_num(r.iterations);
  out += ",\"precond_seconds\":" + json_num(r.precond_seconds);
  out += ",\"precond_calls\":" + json_num(r.precond_calls);
  out += ",\"panel_applies\":" + json_num(r.panel_applies);
  out += ",\"panel_columns\":" + json_num(r.panel_columns);
  out += ",\"max_panel_width\":" + json_num(r.max_panel_width) + "},";
  out += "\"reference_gbs\":" + json_num(r.reference_gbs) + ",";
  out += "\"dropped\":" + json_num(r.dropped) + ",";
  out += "\"kernels\":[";
  for (std::size_t i = 0; i < r.kernels.size(); ++i) {
    const KernelRow& k = r.kernels[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"kind\":\"" + std::string(to_string(k.kind)) + "\"";
    out += ",\"level\":" + std::to_string(k.level);
    out += ",\"seconds\":" + json_num(k.seconds);
    out += ",\"calls\":" + json_num(k.calls);
    out += ",\"model_bytes_per_call\":" + json_num(k.model_bytes_per_call);
    out += ",\"achieved_gbs\":" + json_num(k.achieved_gbs);
    out += ",\"efficiency\":" + json_num(k.efficiency) + "}";
  }
  out += "],\"levels\":[";
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    const LevelPrecisionCounters& l = r.levels[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"level\":" + std::to_string(l.level);
    out += ",\"rows\":" + std::to_string(l.rows);
    out += ",\"stored_values\":" + json_num(l.stored_values);
    out += ",\"matrix_bytes\":" + json_num(l.matrix_bytes);
    out += ",\"storage\":\"" + std::string(to_string(l.storage)) + "\"";
    out += std::string(",\"shifted\":") + (l.shifted ? "true" : "false");
    out += std::string(",\"scaled\":") + (l.scaled ? "true" : "false");
    out += ",\"g\":" + json_num(l.g);
    out += ",\"gmax\":" + json_num(l.gmax);
    out += ",\"headroom\":" + json_num(l.headroom);
    out += ",\"min_abs\":" + json_num(l.min_abs);
    out += ",\"max_abs\":" + json_num(l.max_abs);
    out += ",\"overflowed\":" + json_num(l.overflowed);
    out += ",\"flushed_to_zero\":" + json_num(l.flushed_to_zero);
    out += ",\"subnormal\":" + json_num(l.subnormal);
    out += ",\"conversions_per_apply\":" + json_num(l.conversions_per_apply);
    out += ",\"rescales\":" + std::to_string(l.rescales);
    out += ",\"promotions\":" + std::to_string(l.promotions);
    out += "}";
  }
  out += "],\"halo\":[";
  for (std::size_t i = 0; i < r.halo.size(); ++i) {
    const HaloLevelStat& hl = r.halo[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"level\":" + std::to_string(hl.level);
    out += ",\"bytes\":" + json_num(hl.bytes);
    out += ",\"exchanges\":" + json_num(hl.exchanges);
    out += ",\"pack_seconds\":" + json_num(hl.pack_seconds);
    out += ",\"unpack_seconds\":" + json_num(hl.unpack_seconds) + "}";
  }
  out += "],\"autopilot\":[";
  for (std::size_t i = 0; i < r.autopilot.size(); ++i) {
    const AutopilotDecision& d = r.autopilot[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"level\":" + std::to_string(d.level);
    out += ",\"trigger\":\"" + std::string(to_string(d.trigger)) + "\"";
    out += ",\"action\":\"" + std::string(to_string(d.action)) + "\"";
    out += ",\"from\":\"" + std::string(to_string(d.from)) + "\"";
    out += ",\"to\":\"" + std::string(to_string(d.to)) + "\"";
    out += ",\"safety\":" + json_num(d.safety);
    out += ",\"reason\":\"" + json_escape(d.reason) + "\"}";
  }
  out += "],\"metrics\":";
  out += json_write(metrics_to_json(r.metrics));
  out += "}";
  return out;
}

std::string to_chrome_trace(const Telemetry& t) {
  std::string out = "{\"traceEvents\":[";
  const std::vector<TraceEvent> events = t.trace_events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) {
      out += ",";
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":0,\"tid\":%d,\"args\":{\"mg_level\":%d,"
                  "\"req\":%llu}}",
                  std::string(to_string(e.kind)).c_str(), e.t0 * 1e6,
                  (e.t1 - e.t0) * 1e6, e.tid, e.level,
                  static_cast<unsigned long long>(e.req));
    out += buf;
  }
  out += "]}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    return false;
  }
  f << text;
  return static_cast<bool>(f);
}

int emit_from_env(const SolverReport& r, const Telemetry& t) {
  int written = 0;
  if (const char* p = std::getenv("SMG_TELEMETRY_JSON");
      p != nullptr && *p != '\0') {
    if (write_text_file(p, to_json(r))) {
      std::fprintf(stderr, "telemetry: wrote JSON report to %s\n", p);
      ++written;
    } else {
      std::fprintf(stderr, "telemetry: FAILED to write %s\n", p);
    }
  }
  if (const char* p = std::getenv("SMG_TELEMETRY_TRACE");
      p != nullptr && *p != '\0') {
    if (write_text_file(p, to_chrome_trace(t))) {
      std::fprintf(stderr, "telemetry: wrote Chrome trace to %s\n", p);
      ++written;
    } else {
      std::fprintf(stderr, "telemetry: FAILED to write %s\n", p);
    }
  }
  return written;
}

}  // namespace smg::obs
