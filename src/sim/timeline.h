// Resource timelines: the building block for modeling contended hardware
// (NICs, disks, memory channels) in virtual time.
//
// A Timeline is a FIFO-serialized resource: an operation that becomes ready
// at time `r` and occupies the resource for `d` seconds completes at
// max(r, next_free) + d. For equal-sized concurrent operations this yields
// the same completion times as fair processor sharing, which matches how
// saturated NICs and SSDs behave to first order.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"

namespace pstk::sim {

class Timeline {
 public:
  Timeline() = default;

  /// Reserve the resource: returns the completion time and advances the
  /// internal free pointer.
  SimTime Acquire(SimTime ready, SimTime duration);

  /// Completion time a hypothetical op would get, without reserving.
  [[nodiscard]] SimTime Peek(SimTime ready, SimTime duration) const;

  [[nodiscard]] SimTime next_free() const { return next_free_; }
  /// Total busy time accumulated (for utilization reports).
  [[nodiscard]] SimTime busy_time() const { return busy_; }

 private:
  SimTime next_free_ = 0;
  SimTime busy_ = 0;
};

/// Tracks how many operations overlap a time window; used by the SSD model
/// to detect read contention (paper §III-C: thresholds on parallel readers).
class ConcurrencyWindow {
 public:
  /// Record an operation spanning [start, end); returns the number of
  /// previously-recorded operations it overlaps.
  std::size_t Record(SimTime start, SimTime end);

 private:
  struct Span {
    SimTime start;
    SimTime end;
  };
  std::vector<Span> spans_;
};

}  // namespace pstk::sim
