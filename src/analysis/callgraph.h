// Interprocedural layer of pstk-lint: a whole-program call graph plus
// bottom-up function summaries over the stage-2 parse IR.
//
// Pipeline (Program::Analyze):
//   1. tokenize + parse every source;
//   2. taint-knowledge fixpoint: every FunctionFlow is rebuilt with the
//      current set of rank-returning / wide-returning function names
//      until the sets stabilize — `int Partner() { return rank ^ 1; }`
//      makes a `Partner(...)` call a rank source in every caller;
//   3. call-edge resolution by method name (arity-preferred — see
//      Resolve); a lambda lifted as `outer::lambda#k` is linked to its
//      host function with a containment edge, conservatively treated as
//      a call (deferred lambdas count as invoked);
//   4. bottom-up summaries: monotone bool facts (transitively calls a
//      collective / blocking primitive / Checkpoint) via fixpoint over
//      call edges, parameter facts (count params, peer params) via a
//      second fixpoint, and per-function *collective sequences* via a
//      memoized path-exact walk: the sequence every path to the exit
//      executes, with loops run zero or one time and a `return` ending
//      its path. Recursion, collectives under loops and paths that
//      disagree make the sequence "unknown" rather than a guess.
//
// Soundness stance: intentionally unsound-but-useful. There is no
// virtual-dispatch resolution (every same-name definition is merged), no
// aliasing, and taint is textual. Every rule that consumes a summary
// treats "unknown" as "stay quiet", so imprecision costs recall, never
// false positives; DESIGN.md §analysis spells out the tradeoffs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/parse.h"

namespace pstk::analysis {

/// One translation unit handed to the whole-program analysis. `file` is
/// only used to label findings and related locations.
struct ProgramSource {
  std::string file;
  std::string source;
};

/// What a caller can learn about one function without looking inside it.
struct FunctionSummary {
  bool calls_collective = false;  // transitively reaches a collective
  bool calls_blocking = false;    // transitively reaches Wait/Recv/join/...
  bool calls_checkpoint = false;  // transitively reaches Checkpoint()

  // First site *within this function* that establishes the corresponding
  // bool fact: a direct call, or the call that reaches one (so a related
  // location always points one hop down the wrapper chain). 0 when unset.
  int collective_line = 0;
  std::string collective_name;  // method name of the first collective
  int checkpoint_line = 0;

  // Parameter indices that flow (possibly through further wrappers) into
  // an int-narrowed transfer count; narrow_line is the cast site (or the
  // forwarding call site) inside this function. An INT_MAX guard in the
  // function suppresses recording — the wrapper checks for its callers.
  std::vector<int> count_params;
  int narrow_line = 0;

  // Parameter indices that flow into the peer argument of a blocking
  // Send that has a matching Recv at or after it (the symmetric-exchange
  // shape); exchange_line is the Send (or forwarding call) site.
  std::vector<int> peer_params;
  int exchange_line = 0;

  // The ordered collective sequence every path through this function
  // executes, when statically provable.
  bool sequence_known = true;
  std::vector<std::string> collective_seq;
};

class Program {
 public:
  struct FnEntry {
    std::string file;
    const Function* fn = nullptr;
    FunctionFlow flow;  // built with the final taint knowledge
    FunctionSummary summary;
    std::vector<int> callees;  // indices into fns(), deduplicated
  };

  /// Parse + analyze a whole program. Never fails; unparsable constructs
  /// degrade to missing information.
  static Program Analyze(std::vector<ProgramSource> sources);

  Program(Program&&) = default;
  Program& operator=(Program&&) = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  [[nodiscard]] const std::vector<FnEntry>& fns() const { return fns_; }

  /// Candidate callee indices for a call: every definition whose name
  /// matches the call's method; when any candidate's parameter count
  /// matches the argument count, only those candidates are kept.
  [[nodiscard]] std::vector<int> Resolve(const CallExpr& call) const;

  /// Index of the first function named `name` (with `arity` parameters
  /// when arity >= 0); -1 when absent.
  [[nodiscard]] int Find(const std::string& name, int arity = -1) const;

  /// Collective sequence that every path through `stmts` executes, with
  /// callee expansion; a `return` ends its path. nullopt when not
  /// statically provable: paths that disagree, a collective under a loop,
  /// or an unknown or ambiguous callee sequence. With `gate`, a step that
  /// reaches Checkpoint() is unprovable too — the uniformity gate
  /// LintProgram applies to whole function bodies.
  [[nodiscard]] std::optional<std::vector<std::string>> CollectiveSeqOf(
      const std::vector<Stmt>& stmts, bool gate = false) const;

  /// Any call in the subtree that is a collective or resolves to a
  /// collective-reaching function. Returns the first such site (call
  /// line + collective name); nullopt when none.
  struct CollectiveSite {
    int line = 0;
    std::string name;
  };
  [[nodiscard]] std::optional<CollectiveSite> FirstCollectiveSite(
      const std::vector<Stmt>& stmts) const;

 private:
  Program() = default;

  struct FileUnit {
    std::string file;
    Unit unit;
  };

  std::vector<FileUnit> units_;
  std::vector<FnEntry> fns_;
  // Heap-allocated so FunctionFlow's knowledge pointer survives moves.
  std::unique_ptr<TaintKnowledge> know_;
};

// --- shared method classification ------------------------------------------
// One home for the method-name tables so the intra rules (lint.cc) and
// the summary layer can never disagree about what counts as what.

/// MPI/SHMEM/MPI-IO collective (Barrier, Allreduce, ReadAtAll, ...).
bool IsCollectiveMethod(const std::string& method);

/// Blocks the calling context (Wait, Recv, join, BlockOn, sleep_for...).
bool IsBlockingMethod(const std::string& method);

/// Index of the count argument of a point-to-point / MPI-IO transfer
/// method (`Send(buf, count, peer, tag)` -> 1); -1 for non-transfers.
int TransferCountArg(const std::string& method);

/// Operand text of the first int-narrowing cast in `arg` ("" when none).
std::string NarrowCastOperand(const std::string& arg);

}  // namespace pstk::analysis
