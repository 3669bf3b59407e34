// The benchmark's own span recorder and its layer-boundary decorators.
//
// Spans are recorded only around calls into the library's public entry
// points (the solver call, the LinOp the solver invokes, the PrecondBase it
// applies, the hierarchy build) — nothing inside the program is touched.
// A span keeps its name, start, end, parent and the step's request id; the
// whole trace lives in memory and is written out when the run ends.  With
// tracing off the workloads call the undecorated objects, so the untraced
// run measures exactly the path users run.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "solvers/precond.hpp"
#include "solvers/solver_types.hpp"

namespace pb {

struct Span {
  std::string name;
  double t0 = 0.0;  ///< seconds since the trace was created
  double t1 = 0.0;
  int parent = -1;  ///< index into Trace::spans(), -1 for a root span
  std::uint64_t request_id = 0;
  double seconds() const noexcept { return t1 - t0; }
};

/// In-memory span ledger for one single-caller loop.  Not thread-safe: the
/// solver invokes its operator and preconditioner from the calling thread.
class Trace {
 public:
  Trace();
  int open(std::string name);
  void close(int idx);
  void set_request(std::uint64_t id) noexcept { request_ = id; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Duration of span `idx` minus the part of it its children cover.
  double self_seconds(int idx) const;
  /// Direct children of span `idx`, in start order.
  std::vector<int> children(int idx) const;
  /// Chrome trace-event JSON of every span ("X" events, microseconds).
  std::string chrome_json() const;

 private:
  double now() const;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t request_ = 0;
};

/// RAII span; a null trace records nothing.
class Scope {
 public:
  Scope(Trace* t, std::string name)
      : t_(t), idx_(t ? t->open(std::move(name)) : -1) {}
  ~Scope() {
    if (t_ != nullptr) {
      t_->close(idx_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* t_;
  int idx_;
};

/// The solver's operator, wrapped in an "op" span per application.
smg::LinOp<double> traced_op(smg::LinOp<double> inner, Trace* t);

/// A PrecondBase that forwards everything to `inner` and wraps each
/// apply/apply_many in a "precond.vcycle" / "precond.fcycle" span named
/// after the cycle shape the apply runs.
class TracedPrecond final : public smg::PrecondBase<double> {
 public:
  TracedPrecond(smg::PrecondBase<double>& inner, Trace* t)
      : in_(inner), t_(t) {}
  void apply(std::span<const double> r, std::span<double> e) override;
  void apply_many(const smg::MultiVector<double>& r,
                  smg::MultiVector<double>& e) override;
  double apply_seconds() const override { return in_.apply_seconds(); }
  void reset_timing() override { in_.reset_timing(); }
  smg::obs::Telemetry* telemetry() override { return in_.telemetry(); }
  bool self_healing() const override { return in_.self_healing(); }
  bool report_health(smg::HealthEvent e) override {
    return in_.report_health(e);
  }
  smg::CycleShape cycle_shape() const override { return in_.cycle_shape(); }
  bool set_cycle_shape(smg::CycleShape s) override {
    return in_.set_cycle_shape(s);
  }

 private:
  const char* span_name() const;
  smg::PrecondBase<double>& in_;
  Trace* t_;
};

}  // namespace pb
