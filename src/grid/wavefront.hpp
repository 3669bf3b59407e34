// Level-scheduled (wavefront) orderings for Gauss-Seidel / SpTRSV sweeps.
//
// A lexicographic forward sweep updates cell (i,j,k) using NEW values from
// lexicographically earlier neighbors and OLD values from later ones.  For
// stencils whose offsets satisfy |dy|,|dz| <= 1 the level function
//     L(j,k) = j + 2k                   (line granularity)
//     L(i,j,k) = i + 2j + 4k           (cell granularity, also |dx| <= 1)
// strictly separates those two sets: every lexicographically earlier
// neighbor (line) has a strictly smaller level and every later one a
// strictly larger level, and no stencil offset connects two items of the
// same level.  Processing levels in ascending order (descending for the
// backward sweep) with the items of one level in parallel therefore
// reproduces the sequential sweep *bitwise* at any thread count.
//
// Stencils violating the bound get an invalid (empty) schedule — callers
// fall back to the sequential sweep, never to a wrong parallel one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "grid/box.hpp"
#include "grid/stencil.hpp"

namespace smg {

enum class WfGranularity {
  Line,  ///< item = grid line j + ny*k (SOA/SOAL line kernels)
  Cell,  ///< item = cell index i + nx*(j + ny*k) (AOS scalar kernel)
};

/// Items grouped by wavefront level; levels are stored densely (empty levels
/// are compacted away) and traversed forward or backward by the sweeps.
class WavefrontSchedule {
 public:
  WavefrontSchedule() = default;

  /// Line-granularity schedule; invalid if any offset has |dy| or |dz| > 1.
  static WavefrontSchedule lines(const Box& box, const Stencil& st);
  /// Cell-granularity schedule; invalid if any offset leaves the 3x3x3 cube.
  static WavefrontSchedule cells(const Box& box, const Stencil& st);

  bool valid() const noexcept { return !level_ptr_.empty(); }
  WfGranularity granularity() const noexcept { return gran_; }

  int nlevels() const noexcept {
    return valid() ? static_cast<int>(level_ptr_.size()) - 1 : 0;
  }
  std::span<const std::int32_t> level(int l) const noexcept {
    return {items_.data() + level_ptr_[static_cast<std::size_t>(l)],
            static_cast<std::size_t>(
                level_ptr_[static_cast<std::size_t>(l) + 1] -
                level_ptr_[static_cast<std::size_t>(l)])};
  }
  std::int64_t nitems() const noexcept {
    return static_cast<std::int64_t>(items_.size());
  }
  /// Whether a sweep may spread each level over the OpenMP team.  False
  /// means "walk this order on the calling thread": the smoother planner
  /// clears it for levels too narrow to amortize the per-level barrier,
  /// while the line sweeps still use the order to interleave same-level
  /// lines.  Factories return schedules with it set.
  bool threaded() const noexcept { return threaded_; }
  void set_threaded(bool t) noexcept { threaded_ = t; }

  /// Average exploitable parallelism: items per (non-empty) level.
  double mean_parallelism() const noexcept {
    const int nl = nlevels();
    return nl > 0 ? static_cast<double>(nitems()) / nl : 0.0;
  }

 private:
  std::vector<std::int32_t> items_;
  std::vector<std::int32_t> level_ptr_;  ///< size nlevels()+1; empty = invalid
  WfGranularity gran_ = WfGranularity::Line;
  bool threaded_ = true;
};

}  // namespace smg
