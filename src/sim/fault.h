// sim::FaultPlan — a declarative, deterministic schedule of node failures
// (and optional repairs) that can be applied to any cluster run.
//
// The plan is pure data: it can be parsed from the benches' shared
// `--faults=node:<id>@<t>[+<down_for>][,...]` flag, generated from an
// MTBF via `FaultPlan::Exponential`, or built by hand in tests. The
// consumer decides what a fault means: `cluster::Cluster::ApplyFaultPlan`
// schedules disk failure + process kills (and repairs), while
// `ckpt::RestartManager` replays the same plan across restart attempts,
// translating global fault times into per-attempt engine time.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace pstk::sim {

/// One node failure. Times are virtual seconds; for plans replayed across
/// restart attempts they are *global* (measured from first job submission).
struct FaultEvent {
  int node = 0;
  SimTime time = 0;
  /// Repair delay: the node comes back (disk healthy, processes NOT
  /// respawned) at `time + down_for`. Negative = permanent failure.
  SimTime down_for = -1;

  [[nodiscard]] bool transient() const { return down_for >= 0; }
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // kept sorted by time by the factories

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Parse the benches' CLI syntax. Two spellings:
  ///
  ///  * explicit events: `node:<id>@<t>[+<down_for>]`, comma separated.
  ///    "node:3@10,node:5@20+30" fails node 3 at t=10s forever and node 5
  ///    at t=20s for 30s;
  ///  * a whole Poisson process (the CLI form of `Exponential` below):
  ///    `exp:mtbf=<s>,horizon=<s>,nodes=<n>[,first=<id>][,down=<s>]
  ///    [,seed=<u64>]`. Not mixable with explicit `node:` entries.
  ///
  /// Times and restore times must be finite and ids, counts and seeds
  /// whole decimal numbers in range; an `exp:` spec expecting more than
  /// 10^6 failures (horizon / mtbf) is refused. Bad input returns a Status,
  /// never aborts.
  static Result<FaultPlan> Parse(std::string_view spec);

  /// Poisson failure process: exponential inter-arrival times with mean
  /// `mtbf` over [0, horizon), targets cycling round-robin through nodes
  /// [first_node, nodes) so a coordinator/driver pinned to node 0 can be
  /// spared. Deterministic for a given seed.
  static FaultPlan Exponential(SimTime mtbf, SimTime horizon, int nodes,
                               int first_node, SimTime down_for,
                               std::uint64_t seed);

  /// Round-trips through Parse (modulo float formatting).
  [[nodiscard]] std::string ToString() const;
};

}  // namespace pstk::sim
