// Per-layer replays run after a traced loop, on the workload's own stored
// levels: the public kernels per level, the setup stages, the halo exchange,
// and a STREAM triad sized for the host's last-level cache.  Bytes are the
// src/perfmodel compulsory-traffic models ("computed", not counted by
// hardware); each replay cross-checks them against the operand sizes it
// actually passed.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/mg_hierarchy.hpp"

namespace pb {

using Metrics = std::map<std::string, double>;
using Failures = std::vector<std::string>;

/// kernels.spmv.* (the solver's FP64 operator), kernels.symgs.L*,
/// kernels.residual_restrict.L*, core.transfer.prolong.L*, the L0
/// FP16-over-FP32 ratios with their byte-model bounds, kernels.blas1.dot.*
/// and core.coarse_solve.s.  With `panels` also the k=8 panel kernels at L0.
/// Every *.gbs is model bytes / measured seconds.
void replay_kernels(const smg::MGHierarchy& h, const smg::StructMat<double>& A0,
                    bool panels, Metrics& m, Failures& fails);

/// core.setup.{galerkin_s,scale_s,levels}: the public galerkin_coarsen and
/// scale_matrix stages replayed on the hierarchy's FP64 levels.
void replay_setup(const smg::MGHierarchy& h, Metrics& m);

/// grid.halo.{s_per_apply,model_bytes_per_apply}: one HaloExchange per
/// boxed level, timed, times the perfmodel's exchanges per apply.
void replay_halo(const smg::MGHierarchy& h, std::array<int, 3> nb,
                 Metrics& m, Failures& fails);

struct StreamProbe {
  double triad_gbs = 0.0;
  std::size_t llc_bytes = 0;    ///< last-level cache the array is sized from
  std::size_t array_bytes = 0;  ///< bytes per STREAM array
};

/// STREAM triad at the current OpenMP thread count with arrays of at least
/// four times the last-level cache.
StreamProbe stream_probe();

}  // namespace pb
