#include "sim/timeline.h"

#include <algorithm>

#include "common/check.h"

namespace pstk::sim {

SimTime Timeline::Acquire(SimTime ready, SimTime duration) {
  PSTK_DCHECK(duration >= 0);
  const SimTime start = std::max(ready, next_free_);
  next_free_ = start + duration;
  busy_ += duration;
  return next_free_;
}

SimTime Timeline::Peek(SimTime ready, SimTime duration) const {
  return std::max(ready, next_free_) + duration;
}

std::size_t ConcurrencyWindow::Record(SimTime start, SimTime end) {
  // Callers issue spans with nondecreasing start times (FIFO resources), so
  // spans that ended before `start` can never overlap again — prune them to
  // keep Record amortized O(active).
  std::erase_if(spans_, [start](const Span& s) { return s.end <= start; });
  std::size_t overlapping = 0;
  for (const Span& span : spans_) {
    if (span.start < end && start < span.end) ++overlapping;
  }
  spans_.push_back(Span{start, end});
  return overlapping;
}

}  // namespace pstk::sim
