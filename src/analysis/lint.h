// pstk-lint: dataflow-based static analysis of benchmark/example sources
// for cross-paradigm misuse — the static twin of the runtime verifier
// (src/verify). Sources run through a four-stage pipeline:
//
//   token.h    C++-subset tokenizer (comment/string-literal aware)
//   parse.h    structural parser: functions, loops, branches, pragmas,
//              calls with argument text, lambdas lifted as functions
//   dataflow.h per-function def-use: variable table, reaching writes,
//              rank-derived / 64-bit-size value facts, branch context
//   callgraph.h whole-program layer: call graph, taint-knowledge
//              fixpoint, bottom-up function summaries (transitive
//              collective/blocking/checkpoint facts, count/peer params,
//              the collective sequence every path executes — the same
//              path-exact walk is the divergence rules' uniformity gate)
//
// All sources of one invocation are analyzed together (LintTree /
// LintProgram), so the MPI rules see through wrapper functions — a
// helper that hides a Barrier or an int-narrowed Send count is reported
// at the call site with a related location inside the wrapper.
//
// Rules (slug — severity — what it catches):
//   ckpt-outside-collective — error — CheckpointCoordinator::Checkpoint()
//       under a rank-derived condition: the first arrival decides whether
//       the epoch is due, so skipping ranks never write their fragment and
//       the epoch can never commit
//   mpi-blocking-symmetric-send — error — blocking Send to a rank-derived
//       peer with a matching Recv after it; deadlocks at the rendezvous
//       threshold (silent when the per-rank simulation below proves the
//       exchange drains)
//   mpi-collective-in-divergent-branch — error — collective call (or
//       early return) under a rank-derived condition: ranks disagree on
//       the collective sequence (the call-order bug the runtime verifier
//       only sees when the branch executes)
//   mpi-int-count-overflow — error — 64-bit size expression narrowed via
//       static_cast into an int count of Send/Recv/ReadAtAll with no
//       INT_MAX guard in the function (the paper's Fig. 4 failure,
//       diagnosed statically)
//   mpi-tag-mismatch — error — all send tags and all recv tags in a
//       function are constants and the two sets are disjoint: the match
//       can never happen
//   mpi-rendezvous-deadlock — error — per-rank concretization of the
//       function's send/recv order (rank() = r, size() = N for small N)
//       run under rendezvous semantics ends with every stuck rank blocked
//       in Send: the head-to-head exchange / ring-send cycle that hangs
//       once messages cross the eager threshold
//   mpi-wait-cycle — error — same simulation, but the wait-for cycle
//       includes a Recv (or a chain ending at an exited peer): a
//       recv-before-send ordering no message size can save
//   shmem-put-without-quiet — error — symmetric put followed by a get of
//       the same symmetric object with no Quiet/Fence/BarrierAll between
//   omp-shared-reduction — error — `#pragma omp parallel for` whose body
//       accumulates (+=) into a variable declared outside the loop,
//       without reduction/atomic/critical
//   omp-missing-private — warning — scalar declared before a
//       `#pragma omp parallel for` and plainly assigned inside the loop
//       body without private()/firstprivate()/reduction()
//   spark-missing-persist — warning — RDD reused inside a loop, or hit by
//       two actions, without Persist()/Cache(): every reuse recomputes
//       the whole lineage (the paper's Fig. 6 persist() omission)
//   mpi-collective-mismatch — error — both arms of a rank-divergent
//       branch execute collectives but provably *different* sequences
//       (MUST/MPI-Checker-style matching): the mismatched collectives
//       deadlock
//   mpi-collective-in-loop-divergent-bound — error — collective inside a
//       loop whose bound is rank-derived: ranks disagree on the trip
//       count and execute different numbers of collectives
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "common/status.h"

namespace pstk::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

/// SARIF-style level name: "note" / "warning" / "error".
const char* SeverityName(Severity severity);

/// Secondary location attached to an interprocedural finding — e.g. the
/// collective inside the wrapper a divergent call site reaches.
struct RelatedLocation {
  std::string file;
  int line = 0;
  std::string note;
};

struct LintFinding {
  std::string rule;     // stable slug, e.g. "spark-missing-persist"
  std::string file;     // label or path of the offending source
  int line = 0;         // 1-based line number
  std::string message;  // human diagnostic
  Severity severity = Severity::kWarning;
  std::string fixit;    // short remediation hint ("" when obvious)
  std::vector<RelatedLocation> related;  // cross-function evidence chain
  // Line-drift-tolerant identity: FNV-1a of the trimmed source line the
  // finding points at ("" when the source text is unavailable). Baseline
  // entries carry it so suppressions survive unrelated edits above.
  std::string line_hash;
};

/// Static metadata for one rule (drives --format=sarif and the report).
struct RuleInfo {
  const char* slug;
  Severity severity;
  const char* summary;  // one-line description
  const char* fix;      // default remediation hint
};

/// All registered rules, sorted by slug.
const std::vector<RuleInfo>& Rules();

/// Scan one source text. `file` is only used to label findings.
std::vector<LintFinding> LintSource(const std::string& file,
                                    const std::string& source);

/// Scan a set of sources as one program: call edges cross file
/// boundaries, so wrapper-hidden misuse in one file is reported at call
/// sites in another. LintSource and LintTree are wrappers over this.
std::vector<LintFinding> LintProgram(std::vector<ProgramSource> sources);

/// Read and scan one file from the host filesystem.
Result<std::vector<LintFinding>> LintFile(const std::string& path);

/// Recursively scan every .cc/.cpp/.h under each root (files sorted for
/// deterministic output). Roots may also name single files.
Result<std::vector<LintFinding>> LintTree(
    const std::vector<std::string>& roots);

/// The finding/baseline line hash: 32-bit FNV-1a of the line with leading
/// and trailing whitespace removed, rendered as 8 hex digits.
std::string SourceLineHash(const std::string& line_text);

/// Highest severity present (kNote when empty).
Severity WorstSeverity(const std::vector<LintFinding>& findings);

// --- output formats --------------------------------------------------------

/// Render findings as a Table III-style report (one row per finding plus
/// a per-rule summary); "clean" when there are none.
std::string RenderLintReport(const std::vector<LintFinding>& findings);

/// SARIF 2.1.0 (GitHub code-scanning upload format): one run, the rule
/// registry as tool.driver.rules, one result per finding.
std::string RenderSarif(const std::vector<LintFinding>& findings);

// --- baseline suppression --------------------------------------------------

/// One suppression: findings of `rule` in files whose path ends with
/// `path` are dropped. A nonempty `hash` additionally pins the trimmed
/// text of the flagged line (SourceLineHash), which keeps the entry
/// matching when unrelated edits shift line numbers but stops it from
/// hiding a *different* finding that lands in the same file.
struct BaselineEntry {
  std::string rule;
  std::string path;
  std::string hash;
};

/// Parse baseline text: one `rule path [hash]` tuple per line, `#`
/// comments and blank lines ignored.
std::vector<BaselineEntry> ParseBaseline(const std::string& text);

/// Load and parse a baseline file.
Result<std::vector<BaselineEntry>> LoadBaseline(const std::string& path);

/// Render findings as baseline text that suppresses exactly them
/// (entries deduplicated and sorted). `header` replaces the default
/// comment block when nonempty — pass the previous baseline's leading
/// comments through so regeneration produces reviewable diffs.
std::string FormatBaseline(const std::vector<LintFinding>& findings,
                           const std::string& header = "");

/// Remove suppressed findings; `suppressed` (optional) receives the count.
std::vector<LintFinding> ApplyBaseline(
    std::vector<LintFinding> findings,
    const std::vector<BaselineEntry>& baseline, int* suppressed = nullptr);

}  // namespace pstk::analysis
