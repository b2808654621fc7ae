// Shared observability flags for the bench binaries.
//
// Every bench accepts:
//   --trace=<file>   write a merged Chrome trace_event JSON of all runs
//   --metrics        print a per-run metrics table (counters + histograms)
//   --verify         turn on the runtime-verification checkers (MPI usage,
//                    SHMEM synchronization, Spark/MR invariants) and print
//                    a findings report per run
//   --faults=node:<id>@<t>[+<down>][,...]
//   --faults=exp:mtbf=<s>,horizon=<s>,nodes=<n>[,first=<id>][,down=<s>][,seed=<u64>]
//                    unified fault-injection plan: either explicit events
//                    (fail node <id> at virtual time <t>, optionally
//                    restoring it <down> seconds later) or a seeded
//                    Poisson failure process (FaultPlan::Exponential);
//                    benches apply it with
//                    cluster.ApplyFaultPlan(Instance().fault_plan())
//   --arrivals=poisson:rate=<jobs/s>,n=<count>[,seed=<u64>]
//   --arrivals=trace:<file>
//                    job-arrival process for the service benches
//                    (svc_answerscount); parsed lazily with
//                    sched::ArrivalSpec::Parse so bench_opts itself does
//                    not depend on pstk_sched. Ignored by batch benches.
//
// Usage pattern (see fig6_pagerank_bdb.cc):
//   int main(int argc, char** argv) {
//     bench::Observability::Instance().ParseFlags(&argc, argv);
//     ... per-run: Attach(engine) before Run, Collect(engine, label) after ...
//     return bench::Observability::Instance().Finish() ? 0 : 1;
//   }
//
// Run helpers that build their own engines (pagerank_common etc.) call
// Attach/Collect directly, so top-level benches need no plumbing beyond
// ParseFlags + Finish.
#pragma once

#include <string>
#include <string_view>

#include "buf/bytes.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace pstk::bench {

class Observability {
 public:
  static Observability& Instance();

  /// Strip --trace=<file>, --metrics, and --verify from argv (compacting in
  /// place and updating *argc) so downstream key=value config parsing never
  /// sees them.
  void ParseFlags(int* argc, char** argv);

  /// True when --trace was given (runs should record spans/histograms).
  [[nodiscard]] bool active() const { return !trace_path_.empty(); }
  [[nodiscard]] bool metrics() const { return metrics_; }
  [[nodiscard]] bool verify() const { return verify_; }
  /// The plan parsed from --faults= (empty when the flag was absent).
  [[nodiscard]] const sim::FaultPlan& fault_plan() const {
    return fault_plan_;
  }
  /// Raw --arrivals= spec (empty when absent). Service benches parse it
  /// with sched::ArrivalSpec::Parse.
  [[nodiscard]] const std::string& arrivals() const { return arrivals_; }

  /// Enable the engine's instrumentation bus when --trace/--metrics is on
  /// and turn on the verification checkers when --verify is on.
  void Attach(sim::Engine& engine);

  /// Harvest one finished engine: append its events to the merged trace
  /// (each run gets its own pid block, prefixed with `label`) and print the
  /// metrics table when --metrics is on.
  void Collect(sim::Engine& engine, const std::string& label);

  /// Write the trace file (valid JSON even with zero collected runs).
  /// Returns false if the file could not be written.
  bool Finish();

 private:
  Observability() = default;

  std::string trace_path_;
  std::string arrivals_;
  bool metrics_ = false;
  bool verify_ = false;
  sim::FaultPlan fault_plan_;
  std::string events_json_;
  int runs_ = 0;
  /// buf::Bytes process-global counters at Attach time; Collect publishes
  /// the delta as buf.* metrics attributed to the run.
  buf::StatsSnapshot buf_at_attach_;
};

/// Remove every `flag` argument (an exact match such as "--smoke") from
/// argv, compacting it in place and updating *argc, so key=value config
/// parsing never sees it. True if it was present.
bool TakeFlag(int* argc, char** argv, std::string_view flag);

}  // namespace pstk::bench
