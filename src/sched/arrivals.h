// Job arrival processes for pstk::sched: seeded Poisson streams and
// trace-file replays, materialized as engine events.
//
// Determinism stance: a Poisson spec with a fixed seed always expands to
// the same arrival-time vector (xoshiro-driven exponential gaps, no host
// entropy), so a whole service-bench run is a pure function of its flags —
// byte-identical across repeats.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/engine.h"

namespace pstk::sched {

struct ArrivalSpec {
  enum class Kind { kPoisson, kTrace };
  Kind kind = Kind::kPoisson;
  /// Poisson: offered load in jobs per simulated second.
  double rate = 1.0;
  /// Poisson: number of arrivals to generate.
  int count = 0;
  std::uint64_t seed = 1;
  /// Trace: explicit arrival times (seconds), sorted ascending.
  std::vector<SimTime> trace;

  /// Spellings:
  ///   poisson:rate=<jobs/s>,n=<count>[,seed=<u64>]
  ///   trace:<file>            (one arrival time in seconds per line;
  ///                            blank lines and #-comments skipped)
  /// Rates and times must be finite, counts and seeds whole decimal
  /// numbers, and n at most 10^6; a rate so small that the arrival times
  /// would overflow is refused. Bad input returns a Status, never aborts.
  static Result<ArrivalSpec> Parse(const std::string& text);

  /// Materialize the arrival times (sorted ascending).
  [[nodiscard]] std::vector<SimTime> Times() const;
};

/// Schedule one engine event per arrival; `on_arrival(index, t)` fires at
/// virtual time t (submitting a job there is the expected use).
void ScheduleArrivals(sim::Engine& engine, const ArrivalSpec& spec,
                      std::function<void(int index, SimTime t)> on_arrival);

}  // namespace pstk::sched
