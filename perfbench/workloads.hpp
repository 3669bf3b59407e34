// The benchmark's four closed-loop workloads and the benchmark's self-tests.
//
// Every workload is one caller in one process: the next step starts only
// when the previous solve has returned, as in a time-stepping application.
// Inputs (matrix perturbations, right-hand sides, batch widths,
// manufactured solutions) are generated from the seed alone; every seed
// uses the same sizes and the same width mix.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/box.hpp"
#include "obs/json.hpp"

namespace pb {

enum class Driver { Pcg, Gmres, Many, Fmg };

struct Spec {
  std::string name;
  std::string problem;
  smg::Box box;
  bool all_cores = false;     ///< false: 1 thread; true: min(4, nproc)
  Driver driver = Driver::Pcg;
  int steps_per_matrix = 1;   ///< 0: one matrix (and hierarchy) per run
  double rtol = 1e-9;         ///< residual tolerance (PCG/GMRES/solve_many)
  std::array<int, 3> decomp{1, 1, 1};
};

const std::vector<Spec>& specs();
const Spec* find_spec(const std::string& name);

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< Chrome trace of the traced run ("" = none)
};

/// Run one workload and fill `out` with its raw samples, checks and (when
/// tracing) per-layer metrics.  Returns the number of failed checks.
int run_workload(const Spec& spec, const RunArgs& args,
                 smg::obs::JsonValue& out);

/// Self-tests of the benchmark's own code (seeded inputs, correctness
/// checker).  Returns the number of failed tests.
int run_selftest();

}  // namespace pb
