#include "ledger.hpp"

#include <algorithm>
#include <cstdio>

namespace pb {

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

double Trace::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Trace::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request_id = request_;
  const int idx = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back(idx);
  // Stamp the start last so the bookkeeping above is not inside the span.
  spans_.back().t0 = now();
  return idx;
}

void Trace::close(int idx) {
  const double t = now();
  spans_[static_cast<std::size_t>(idx)].t1 = t;
  if (!stack_.empty() && stack_.back() == idx) {
    stack_.pop_back();
  }
}

std::vector<int> Trace::children(int idx) const {
  std::vector<int> out;
  for (std::size_t i = static_cast<std::size_t>(idx) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == idx) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

double Trace::self_seconds(int idx) const {
  const Span& p = spans_[static_cast<std::size_t>(idx)];
  // Union of the children's intervals clipped to the parent: children are
  // recorded in start order, so one sweep merges overlaps.
  double covered = 0.0;
  double hi = p.t0;
  for (int c : children(idx)) {
    const Span& s = spans_[static_cast<std::size_t>(c)];
    const double a = std::max(s.t0, hi);
    const double b = std::min(s.t1, p.t1);
    if (b > a) {
      covered += b - a;
      hi = b;
    }
  }
  return p.seconds() - covered;
}

std::string Trace::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request_id\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.t0 * 1e6,
                  s.seconds() * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.request_id));
    out += buf;
  }
  out += "]}\n";
  return out;
}

smg::LinOp<double> traced_op(smg::LinOp<double> inner, Trace* t) {
  return [inner = std::move(inner), t](std::span<const double> x,
                                       std::span<double> y) {
    const Scope s(t, "op");
    inner(x, y);
  };
}

const char* TracedPrecond::span_name() const {
  return in_.cycle_shape() == smg::CycleShape::F ? "precond.fcycle"
                                                 : "precond.vcycle";
}

void TracedPrecond::apply(std::span<const double> r, std::span<double> e) {
  const Scope s(t_, span_name());
  in_.apply(r, e);
}

void TracedPrecond::apply_many(const smg::MultiVector<double>& r,
                               smg::MultiVector<double>& e) {
  const Scope s(t_, span_name());
  in_.apply_many(r, e);
}

}  // namespace pb
