#include "analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/callgraph.h"
#include "analysis/dataflow.h"
#include "analysis/deadlock.h"
#include "analysis/parse.h"
#include "common/strings.h"

namespace pstk::analysis {

namespace {

// ===========================================================================
// Rule registry
// ===========================================================================

const RuleInfo kRules[] = {
    {"ckpt-outside-collective", Severity::kError,
     "CheckpointCoordinator::Checkpoint() under a rank-derived condition: "
     "the first arrival decides whether the epoch is due, so ranks that "
     "skip the call never write their fragment and the epoch never "
     "commits — the snapshot can never be restored",
     "call Checkpoint() on every rank at the same collective boundary "
     "(hoist it out of the rank-derived branch)"},
    {"mpi-blocking-symmetric-send", Severity::kError,
     "blocking Send to a rank-relative peer with a matching Recv after it; "
     "the symmetric exchange deadlocks once messages cross the rendezvous "
     "threshold",
     "use Isend/SendAsync for one side of the exchange, or order the pair "
     "so one rank sends first"},
    {"mpi-collective-in-divergent-branch", Severity::kError,
     "collective call (or early return) under a rank-derived condition: "
     "ranks disagree on the collective call sequence and the job hangs",
     "hoist the collective out of the branch, or make the condition "
     "uniform across ranks"},
    {"mpi-collective-in-loop-divergent-bound", Severity::kError,
     "collective inside a loop whose bound is rank-derived: ranks "
     "disagree on the trip count and execute different numbers of "
     "collectives — the job hangs at the first extra iteration",
     "make the loop bound uniform across ranks (broadcast it first), or "
     "hoist the collective out of the loop"},
    {"mpi-collective-mismatch", Severity::kError,
     "the two arms of a rank-divergent branch execute provably different "
     "collective sequences (MUST-style call-order matching): ranks meet "
     "in different collectives and deadlock",
     "make both arms execute the same collective sequence, or hoist the "
     "collectives out of the branch"},
    {"mpi-int-count-overflow", Severity::kError,
     "64-bit size expression narrowed into an int count parameter with no "
     "INT_MAX guard: counts above 2^31-1 wrap (the paper's Fig. 4 "
     "structural failure)",
     "guard the count against numeric_limits<int32_t>::max() before "
     "narrowing, or chunk the transfer"},
    {"mpi-rendezvous-deadlock", Severity::kError,
     "running the function's per-rank send/recv order under rendezvous "
     "semantics deadlocks with every stuck rank blocked in Send "
     "(head-to-head exchange or circular ring of sends): the exchange "
     "hangs once messages cross the rendezvous threshold",
     "fuse each Send/Recv pair into Sendrecv(), or break the cycle by "
     "reversing the order on one rank (e.g. even ranks send first)"},
    {"mpi-tag-mismatch", Severity::kError,
     "every send tag and every receive tag in this function is a constant "
     "and the two sets are disjoint: no message can ever match",
     "make the send and receive tags agree (or derive both from one "
     "constant)"},
    {"mpi-wait-cycle", Severity::kError,
     "running the function's per-rank send/recv order under rendezvous "
     "semantics deadlocks on a wait-for cycle that includes a blocking "
     "Recv: a rank waits for a message its peer only sends after its own "
     "blocked receive (or never, having already returned)",
     "reorder so every Recv has a matching Send already in flight: pair "
     "the exchange with Sendrecv(), or stagger the order by rank parity"},
    {"omp-missing-private", Severity::kWarning,
     "scalar declared before `#pragma omp parallel for` is plainly "
     "assigned inside the loop body without private()/firstprivate(): "
     "threads race on the shared temporary",
     "add private(<var>) to the pragma, or declare the variable inside "
     "the loop body"},
    {"omp-shared-reduction", Severity::kError,
     "parallel-for body accumulates into a variable declared outside the "
     "loop without a reduction clause (or omp atomic/critical): data race",
     "add reduction(+ : <var>) to the pragma, or guard the update with "
     "#pragma omp atomic"},
    {"shmem-put-without-quiet", Severity::kError,
     "symmetric put followed by a get of the same symmetric object with "
     "no Quiet()/Fence()/BarrierAll() between: the put may not be "
     "remotely complete",
     "call Quiet() (or a barrier) between the put and the read-back"},
    {"spark-missing-persist", Severity::kWarning,
     "RDD reused (inside a loop, or by multiple actions) without "
     "Persist()/Cache(): every reuse recomputes the whole lineage (the "
     "paper's Fig. 6 persist() omission)",
     "call .Persist(StorageLevel::kMemoryAndDisk) (or .Cache()) on the "
     "RDD before reusing it"},
};

const RuleInfo* FindRule(const std::string& slug) {
  for (const RuleInfo& r : kRules) {
    if (slug == r.slug) return &r;
  }
  return nullptr;
}

LintFinding MakeFinding(const char* slug, const std::string& file, int line,
                        std::string message) {
  const RuleInfo* rule = FindRule(slug);
  LintFinding f;
  f.rule = slug;
  f.file = file;
  f.line = line;
  f.message = std::move(message);
  if (rule != nullptr) {
    f.severity = rule->severity;
    f.fixit = rule->fix;
  }
  return f;
}

bool MethodIn(const CallExpr& call,
              std::initializer_list<const char*> names) {
  return std::any_of(names.begin(), names.end(),
                     [&](const char* n) { return call.method == n; });
}

/// Leading identifier of an argument expression ("local_bins.at(slot)" ->
/// "local_bins"); "" when the argument does not start with one.
std::string BaseIdent(const std::string& arg) {
  std::size_t i = 0;
  while (i < arg.size() && (arg[i] == '(' || arg[i] == '&' || arg[i] == '*')) {
    ++i;
  }
  std::size_t j = i;
  while (j < arg.size() &&
         (std::isalnum(static_cast<unsigned char>(arg[j])) != 0 ||
          arg[j] == '_')) {
    ++j;
  }
  return arg.substr(i, j - i);
}

// ===========================================================================
// MPI rules
// ===========================================================================

bool HasArithmetic(const std::string& text) {
  return text.find('+') != std::string::npos ||
         text.find('-') != std::string::npos ||
         text.find('^') != std::string::npos ||
         text.find('%') != std::string::npos;
}

void CheckBlockingSymmetricSend(const std::string& file,
                                const FunctionFlow& flow,
                                std::vector<LintFinding>& out) {
  for (const FlowEvent& e : flow.events()) {
    if (e.call == nullptr || e.call->method != "Send") continue;
    const bool rank_relative = std::any_of(
        e.call->args.begin(), e.call->args.end(), [&](const std::string& a) {
          if (!flow.IsRankDerived(a)) return false;
          if (HasArithmetic(a)) return true;
          // `partner = rank ^ 1; Send(..., partner, ...)`: the arithmetic
          // lives in the variable's initializer, not the argument text.
          const VarInfo* var = flow.Lookup(a);
          return var != nullptr && HasArithmetic(var->init);
        });
    if (!rank_relative) continue;
    const bool recv_after = std::any_of(
        flow.events().begin(), flow.events().end(), [&](const FlowEvent& r) {
          return r.call != nullptr && r.call->method == "Recv" &&
                 r.order >= e.order;
        });
    if (!recv_after) continue;
    out.push_back(MakeFinding(
        "mpi-blocking-symmetric-send", file, e.call->line,
        "blocking Send to a rank-relative peer with a matching Recv "
        "nearby; use Isend/SendAsync or reorder, or the exchange "
        "deadlocks once messages cross the rendezvous threshold"));
  }
}

bool IsCollective(const CallExpr& call) {
  return IsCollectiveMethod(call.method);
}

/// A call that is a collective itself or resolves to a summary that
/// transitively reaches one.
bool CallReachesCollective(const Program& prog, const CallExpr& call) {
  if (IsCollective(call)) return true;
  for (int idx : prog.Resolve(call)) {
    if (prog.fns()[static_cast<std::size_t>(idx)].summary.calls_collective) {
      return true;
    }
  }
  return false;
}

std::string JoinSeq(const std::vector<std::string>& seq) {
  std::string out;
  for (const std::string& s : seq) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out.empty() ? "<none>" : out;
}

/// Statement-tree walker behind the collective-divergence rules. At each
/// rank-divergent branch it first tries MUST-style sequence matching via
/// the summaries: provably equal arm sequences are *safe* (no finding —
/// `if (rank==0) Barrier(); else Barrier();` is symmetric), provably
/// different nonempty sequences are one mpi-collective-mismatch, and
/// anything else falls back to per-site reporting (the PR-3 behavior,
/// extended through wrappers with related locations). Rank-divergent
/// loop bounds over collective-reaching bodies get their own rule.
class DivergenceWalker {
 public:
  DivergenceWalker(const Program& prog, const Program::FnEntry& entry,
                   std::vector<LintFinding>& out)
      : prog_(prog), entry_(entry), out_(out) {}

  void Run() { Walk(entry_.fn->body); }

 private:
  [[nodiscard]] bool Divergent(const Stmt& s) const {
    // `.ok()` status guards are exempt — see FunctionFlow's ctor note.
    return s.text.find(".ok()") == std::string::npos &&
           entry_.flow.IsRankDerived(s.text);
  }

  void Walk(const std::vector<Stmt>& body) {
    for (const Stmt& s : body) {
      if (s.kind == StmtKind::kBranch && Divergent(s)) {
        const auto then_seq = prog_.CollectiveSeqOf(s.children);
        const auto else_seq = prog_.CollectiveSeqOf(s.else_children);
        if (then_seq.has_value() && else_seq.has_value()) {
          if (*then_seq == *else_seq) continue;  // provably symmetric
          if (!then_seq->empty() && !else_seq->empty()) {
            out_.push_back(MakeFinding(
                "mpi-collective-mismatch", entry_.file, s.line,
                "rank-divergent branch (`" + s.text +
                    "`) executes different collective sequences: [" +
                    JoinSeq(*then_seq) + "] on the then-arm vs [" +
                    JoinSeq(*else_seq) +
                    "] on the else-arm: ranks meet in different "
                    "collectives and deadlock"));
            continue;
          }
        }
        ReportSites(s.children, s);
        ReportSites(s.else_children, s);
        continue;
      }
      if (s.kind == StmtKind::kLoop && Divergent(s)) {
        const auto site = prog_.FirstCollectiveSite(s.children);
        if (site.has_value()) {
          out_.push_back(MakeFinding(
              "mpi-collective-in-loop-divergent-bound", entry_.file, s.line,
              "loop with the rank-derived bound `" + s.text +
                  "` reaches collective " + site->name + "() (line " +
                  std::to_string(site->line) +
                  "): ranks disagree on the trip count and execute "
                  "different numbers of collectives"));
        }
        Walk(s.children);
        continue;
      }
      Walk(s.children);
      Walk(s.else_children);
    }
  }

  /// Per-site reporting inside one divergent arm: direct collectives
  /// (the PR-3 message, byte-compatible), wrapper calls that reach a
  /// collective, and wrapper calls that reach Checkpoint().
  void ReportSites(const std::vector<Stmt>& arm, const Stmt& branch) {
    ForEachStmt(arm, [&](const Stmt& s) {
      for (const CallExpr& c : s.calls) {
        if (IsCollective(c)) {
          out_.push_back(MakeFinding(
              "mpi-collective-in-divergent-branch", entry_.file, c.line,
              "collective " + c.method + "() under the rank-derived "
              "condition at line " + std::to_string(branch.line) +
              " (`" + branch.text + "`): ranks that skip the branch never "
              "reach the collective"));
          continue;
        }
        const Program::FnEntry* coll_callee = nullptr;
        const Program::FnEntry* ckpt_callee = nullptr;
        for (int idx : prog_.Resolve(c)) {
          const Program::FnEntry& cand =
              prog_.fns()[static_cast<std::size_t>(idx)];
          if (cand.summary.calls_collective && coll_callee == nullptr) {
            coll_callee = &cand;
          }
          if (cand.summary.calls_checkpoint && ckpt_callee == nullptr) {
            ckpt_callee = &cand;
          }
        }
        if (coll_callee != nullptr) {
          LintFinding f = MakeFinding(
              "mpi-collective-in-divergent-branch", entry_.file, c.line,
              "call to " + c.method + "() under the rank-derived "
              "condition at line " + std::to_string(branch.line) + " (`" +
                  branch.text + "`): " + c.method +
                  "() reaches collective " +
                  coll_callee->summary.collective_name +
                  "() — ranks that skip the branch never reach it");
          f.related.push_back(RelatedLocation{
              coll_callee->file, coll_callee->summary.collective_line,
              "collective " + coll_callee->summary.collective_name +
                  "() reached through " + c.method + "()"});
          out_.push_back(std::move(f));
          continue;
        }
        if (ckpt_callee != nullptr) {
          LintFinding f = MakeFinding(
              "ckpt-outside-collective", entry_.file, c.line,
              "call to " + c.method + "() under the rank-derived "
              "condition at line " + std::to_string(branch.line) + " (`" +
                  branch.text + "`): " + c.method +
                  "() reaches Checkpoint() — ranks that skip the call "
                  "never write their fragment, so the epoch can never "
                  "commit");
          f.related.push_back(RelatedLocation{
              ckpt_callee->file, ckpt_callee->summary.checkpoint_line,
              "Checkpoint() reached through " + c.method + "()"});
          out_.push_back(std::move(f));
        }
      }
    });
  }

  const Program& prog_;
  const Program::FnEntry& entry_;
  std::vector<LintFinding>& out_;
};

void CheckCollectiveDivergence(const Program& prog,
                               const Program::FnEntry& entry,
                               std::vector<LintFinding>& out) {
  DivergenceWalker(prog, entry, out).Run();
}

/// Divergent early return while collectives (possibly wrapper-hidden)
/// follow — kept event-based, exactly the PR-3 shape.
void CheckEarlyReturnDivergence(const Program& prog,
                                const Program::FnEntry& entry,
                                std::vector<LintFinding>& out) {
  const FunctionFlow& flow = entry.flow;
  for (const FlowEvent& e : flow.events()) {
    if (e.call != nullptr || e.stmt->kind != StmtKind::kReturn) continue;
    if (!e.InRankDivergentBranch()) continue;
    const BranchCtx* branch = nullptr;
    for (const BranchCtx& b : e.branches) {
      if (b.rank_divergent) branch = &b;
    }
    const bool collective_later = std::any_of(
        flow.events().begin(), flow.events().end(),
        [&](const FlowEvent& later) {
          return later.call != nullptr && later.order > e.order &&
                 CallReachesCollective(prog, *later.call);
        });
    if (collective_later) {
      out.push_back(MakeFinding(
          "mpi-collective-in-divergent-branch", entry.file, e.stmt->line,
          "early return under the rank-derived condition at line " +
              std::to_string(branch->line) + " (`" + branch->cond +
              "`) while collectives follow: returning ranks drop out "
              "of the collective sequence"));
    }
  }
}

// ===========================================================================
// Static deadlock detection (mpi-rendezvous-deadlock / mpi-wait-cycle)
// ===========================================================================
//
// Concretize the function once per rank of a small world (N = 2, 3, 4):
// substitute <comm>.rank() / <comm>.size(), evaluate branch conditions
// and peer/tag expressions with EvalIntExpr, and collect each rank's
// communication order; SimulateRendezvous then runs the orders to
// quiescence and extracts the wait-for cycle, if any. This is the static
// mirror of verify::DeadlockExplainer. Anything not provable — an
// unevaluable condition guarding communication, comm ops under loops,
// calls into blocking or collective wrappers, an unevaluable peer or
// tag — bails the whole function for that world: unknown stays quiet.

class RankExtractor {
 public:
  RankExtractor(const Program& prog, const Program::FnEntry& entry,
                const std::set<std::string>& comms, int rank, int world)
      : prog_(prog),
        entry_(entry),
        comms_(comms),
        rank_(rank),
        world_(world) {}

  /// False when this rank's order is not statically provable.
  bool Run(std::vector<CommOp>* out) {
    Walk(entry_.fn->body);
    if (!ok_) return false;
    *out = std::move(ops_);
    return true;
  }

 private:
  static bool IsIdentTail(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.';
  }

  /// Replace `<comm>.rank()` / `<comm>.size()` (exact comm names only —
  /// `vec.size()` must never concretize) with this rank's values.
  [[nodiscard]] std::string Subst(const std::string& text) const {
    std::string out = text;
    for (const std::string& comm : comms_) {
      ReplaceAll(out, comm + ".rank()", std::to_string(rank_));
      ReplaceAll(out, comm + ".size()", std::to_string(world_));
    }
    return out;
  }

  static void ReplaceAll(std::string& text, const std::string& from,
                         const std::string& to) {
    std::size_t pos = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
      if (pos == 0 || !IsIdentTail(text[pos - 1])) {
        text.replace(pos, from.size(), to);
        pos += to.size();
      } else {
        pos += from.size();
      }
    }
  }

  [[nodiscard]] std::optional<long long> Eval(const std::string& expr,
                                              int depth = 0) const {
    if (depth > 8) return std::nullopt;
    return EvalIntExpr(
        Subst(expr), [&](const std::string& name) -> std::optional<long long> {
          const auto it = bindings_.find(name);
          if (it == bindings_.end()) return std::nullopt;
          return Eval(it->second, depth + 1);
        });
  }

  [[nodiscard]] bool IsCommP2p(const CallExpr& c) const {
    if (comms_.count(c.receiver) == 0) return false;
    return MethodIn(c, {"Send", "Recv", "Isend", "Irecv", "Sendrecv",
                        "Wait", "Waitall"});
  }

  /// Any communication-relevant call in the subtree: a comm p2p op, a
  /// collective, or a call resolving to a blocking/collective wrapper.
  [[nodiscard]] bool SubtreeTouchesComm(const std::vector<Stmt>& stmts) const {
    bool found = false;
    ForEachStmt(stmts, [&](const Stmt& s) {
      for (const CallExpr& c : s.calls) {
        if (IsCommP2p(c) || IsCollective(c)) {
          found = true;
          continue;
        }
        for (int idx : prog_.Resolve(c)) {
          const FunctionSummary& sum =
              prog_.fns()[static_cast<std::size_t>(idx)].summary;
          if (sum.calls_blocking || sum.calls_collective) found = true;
        }
      }
    });
    return found;
  }

  /// Skipped scopes (untaken loop bodies, unevaluable comm-free branches)
  /// invalidate every binding they might have written.
  void EraseAssigned(const std::vector<Stmt>& stmts) {
    ForEachStmt(stmts, [&](const Stmt& s) {
      if (!s.decl_name.empty()) bindings_.erase(s.decl_name);
      if (!s.induction_var.empty()) bindings_.erase(s.induction_var);
      for (const Assign& a : s.assigns) bindings_.erase(a.name);
    });
  }

  void UpdateBindings(const Stmt& s) {
    if (!s.decl_name.empty()) {
      if (!s.init_text.empty()) {
        bindings_[s.decl_name] = s.init_text;
      } else {
        bindings_.erase(s.decl_name);
      }
    }
    for (const Assign& a : s.assigns) {
      bool bound = false;
      if (a.op == "=" && a.subscript.empty()) {
        const VarInfo* var = entry_.flow.Lookup(a.name);
        if (var != nullptr) {
          for (const VarWrite& w : var->writes) {
            if (w.line == a.line && !w.rhs.empty()) {
              bindings_[a.name] = w.rhs;
              bound = true;
              break;
            }
          }
        }
      }
      if (!bound) bindings_.erase(a.name);
    }
  }

  void Push(const CallExpr& c, CommOp op) {
    op.line = c.line;
    ops_.push_back(op);
  }

  bool HandleCommCall(const CallExpr& c) {
    const std::string& m = c.method;
    if (m == "rank" || m == "size" || m == "Iprobe" || m == "ok") {
      return true;  // queries: no ordering effect
    }
    if (IsCollectiveMethod(m)) {
      CommOp op;
      op.kind = CommOp::Kind::kCollective;
      op.label = m;
      Push(c, op);
      return true;
    }
    if (m == "Send" || m == "Recv" || m == "Isend" || m == "Irecv") {
      std::size_t peer_arg = 0;
      std::size_t tag_arg = 0;
      if (c.args.size() == 4) {  // (data, bytes, peer, tag)
        peer_arg = 2;
        tag_arg = 3;
      } else if (c.args.size() == 3) {  // span form: (span, peer, tag)
        peer_arg = 1;
        tag_arg = 2;
      } else {
        return false;
      }
      const auto peer = Eval(c.args[peer_arg]);
      const auto tag = Eval(c.args[tag_arg]);
      if (!peer.has_value() || !tag.has_value()) return false;
      if (*peer < 0 || *peer >= world_) return false;  // not this world
      CommOp op;
      op.kind = m == "Send"    ? CommOp::Kind::kSend
                : m == "Recv"  ? CommOp::Kind::kRecv
                : m == "Isend" ? CommOp::Kind::kIsend
                               : CommOp::Kind::kIrecv;
      op.peer = static_cast<int>(*peer);
      op.tag = static_cast<int>(*tag);
      if (op.kind == CommOp::Kind::kIsend ||
          op.kind == CommOp::Kind::kIrecv) {
        ++outstanding_;
      }
      Push(c, op);
      return true;
    }
    if (m == "Sendrecv") {
      // (send_data, send_bytes, dest, recv_data, recv_max, source, tag)
      if (c.args.size() != 7) return false;
      const auto dest = Eval(c.args[2]);
      const auto src = Eval(c.args[5]);
      const auto tag = Eval(c.args[6]);
      if (!dest.has_value() || !src.has_value() || !tag.has_value()) {
        return false;
      }
      if (*dest < 0 || *dest >= world_ || *src < 0 || *src >= world_) {
        return false;
      }
      CommOp op;
      op.kind = CommOp::Kind::kSendrecv;
      op.peer = static_cast<int>(*dest);
      op.peer2 = static_cast<int>(*src);
      op.tag = static_cast<int>(*tag);
      Push(c, op);
      return true;
    }
    if (m == "Wait" || m == "Waitall") {
      // CommOp::kWait waits for *all* posted ops; MiniMPI's Wait takes one
      // request, so the two only agree while at most one is outstanding.
      if (m == "Wait" && outstanding_ > 1) return false;
      outstanding_ = 0;
      CommOp op;
      op.kind = CommOp::Kind::kWait;
      Push(c, op);
      return true;
    }
    return false;  // Split and friends: comm topology changes, bail
  }

  void HandleCalls(const Stmt& s) {
    for (const CallExpr& c : s.calls) {
      if (!ok_) return;
      if (comms_.count(c.receiver) != 0) {
        if (!HandleCommCall(c)) ok_ = false;
        continue;
      }
      if (IsCollective(c)) {
        CommOp op;
        op.kind = CommOp::Kind::kCollective;
        op.label = c.method;
        Push(c, op);
        continue;
      }
      for (int idx : prog_.Resolve(c)) {
        const FunctionSummary& sum =
            prog_.fns()[static_cast<std::size_t>(idx)].summary;
        if (sum.calls_blocking || sum.calls_collective) {
          ok_ = false;  // unknown communication behind the call
          return;
        }
      }
    }
  }

  void Walk(const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      if (!ok_ || stopped_) return;
      switch (s.kind) {
        case StmtKind::kBranch: {
          // Comm ops in the condition itself can't be ordered reliably.
          for (const CallExpr& c : s.calls) {
            if (IsCommP2p(c) || IsCollective(c)) {
              ok_ = false;
              return;
            }
          }
          const auto taken = Eval(s.text);
          if (taken.has_value()) {
            Walk(*taken != 0 ? s.children : s.else_children);
          } else {
            if (SubtreeTouchesComm(s.children) ||
                SubtreeTouchesComm(s.else_children)) {
              ok_ = false;
              return;
            }
            EraseAssigned(s.children);
            EraseAssigned(s.else_children);
          }
          break;
        }
        case StmtKind::kLoop: {
          // Iteration counts are out of scope: any communicating loop
          // bails, a comm-free one is skipped (its writes invalidated).
          if (SubtreeTouchesComm(s.children)) {
            ok_ = false;
            return;
          }
          for (const CallExpr& c : s.calls) {
            if (IsCommP2p(c) || IsCollective(c)) {
              ok_ = false;
              return;
            }
          }
          EraseAssigned(s.children);
          if (!s.induction_var.empty()) bindings_.erase(s.induction_var);
          break;
        }
        case StmtKind::kReturn:
          stopped_ = true;  // this rank's sequence ends here
          return;
        case StmtKind::kBlock:
          Walk(s.children);
          break;
        case StmtKind::kPlain:
          HandleCalls(s);
          if (ok_) UpdateBindings(s);
          break;
        case StmtKind::kPragma:
          break;
      }
    }
  }

  const Program& prog_;
  const Program::FnEntry& entry_;
  const std::set<std::string>& comms_;
  const int rank_;
  const int world_;
  std::map<std::string, std::string> bindings_;  // name -> last known rhs
  std::vector<CommOp> ops_;
  int outstanding_ = 0;
  bool ok_ = true;
  bool stopped_ = false;
};

const char* CommOpName(CommOp::Kind kind) {
  switch (kind) {
    case CommOp::Kind::kSend: return "Send";
    case CommOp::Kind::kRecv: return "Recv";
    case CommOp::Kind::kIsend: return "Isend";
    case CommOp::Kind::kIrecv: return "Irecv";
    case CommOp::Kind::kWait: return "Wait";
    case CommOp::Kind::kSendrecv: return "Sendrecv";
    case CommOp::Kind::kCollective: return "collective";
  }
  return "?";
}

/// Reports the first world size whose simulation deadlocks. Returns true
/// when the exchange provably drains: at least one world size is
/// provable and no provable size deadlocks.
bool CheckRendezvousDeadlock(const Program& prog,
                             const Program::FnEntry& entry,
                             std::vector<LintFinding>& out) {
  std::set<std::string> comms;
  for (const Param& p : entry.fn->params) {
    if (!p.name.empty() && p.type.find("Comm") != std::string::npos) {
      comms.insert(p.name);
    }
  }
  if (comms.empty()) return false;
  bool has_p2p = false;
  ForEachStmt(entry.fn->body, [&](const Stmt& s) {
    for (const CallExpr& c : s.calls) {
      if (comms.count(c.receiver) != 0 &&
          MethodIn(c, {"Send", "Recv", "Isend", "Irecv"})) {
        has_p2p = true;
      }
    }
  });
  if (!has_p2p) return false;

  bool proven = false;
  bool deadlocked = false;
  for (int world = 2; world <= 4; ++world) {
    std::vector<std::vector<CommOp>> seqs(static_cast<std::size_t>(world));
    bool provable = true;
    for (int r = 0; r < world && provable; ++r) {
      provable = RankExtractor(prog, entry, comms, r, world)
                     .Run(&seqs[static_cast<std::size_t>(r)]);
    }
    if (!provable) continue;
    proven = true;
    const DeadlockReport rep = SimulateRendezvous(seqs);
    if (!rep.deadlock) continue;
    deadlocked = true;
    if (rep.involves_collective || rep.ranks.empty() || rep.ops.empty()) {
      continue;
    }
    const bool rendezvous = rep.all_sends && rep.proper_cycle;
    const char* slug =
        rendezvous ? "mpi-rendezvous-deadlock" : "mpi-wait-cycle";
    std::ostringstream msg;
    msg << "with " << world << " ranks the point-to-point order deadlocks: ";
    for (std::size_t i = 0; i < rep.ranks.size(); ++i) {
      if (i > 0) msg << " -> ";
      msg << "rank " << rep.ranks[i] << " blocks in "
          << CommOpName(rep.ops[i].kind) << "()";
      if (rep.ops[i].peer >= 0) msg << " on rank " << rep.ops[i].peer;
      msg << " (line " << rep.ops[i].line << ")";
    }
    if (rendezvous) {
      msg << " — a cycle of blocking Sends: under rendezvous semantics no "
             "Send completes until its Recv is posted, so the exchange "
             "hangs once messages cross the eager threshold";
    } else if (rep.proper_cycle) {
      msg << " — a wait-for cycle through a blocking Recv that no message "
             "size can save";
    } else {
      msg << " — the chain ends at a rank that already finished, so the "
             "awaited message never comes";
    }
    LintFinding f = MakeFinding(slug, entry.file, rep.ops.front().line,
                                msg.str());
    for (std::size_t i = 0; i < rep.ranks.size(); ++i) {
      f.related.push_back(RelatedLocation{
          entry.file, rep.ops[i].line,
          "rank " + std::to_string(rep.ranks[i]) + " blocks in " +
              CommOpName(rep.ops[i].kind) + "() here"});
    }
    out.push_back(std::move(f));
    return false;  // first deadlocking world size is the report
  }
  return proven && !deadlocked;
}

// ===========================================================================
// ckpt-outside-collective
// ===========================================================================
//
// CheckpointCoordinator::Checkpoint() uses first-arrival-decides epoch
// accounting: the first rank to reach the boundary decides whether the
// epoch is due, and the epoch commits only once every rank has written its
// fragment. A Checkpoint() call under a rank-derived condition therefore
// produces permanently-uncommittable epochs (the runtime twin is the
// verify ckpt restart-consistency checker, which only fires when the
// divergent branch actually executes).

void CheckCkptOutsideCollective(const std::string& file,
                                const FunctionFlow& flow,
                                std::vector<LintFinding>& out) {
  for (const FlowEvent& e : flow.events()) {
    if (e.call == nullptr || e.call->method != "Checkpoint") continue;
    if (!e.InRankDivergentBranch()) continue;
    const BranchCtx* branch = nullptr;
    for (const BranchCtx& b : e.branches) {
      if (b.rank_divergent) branch = &b;
    }
    out.push_back(MakeFinding(
        "ckpt-outside-collective", file, e.call->line,
        "Checkpoint() under the rank-derived condition at line " +
            std::to_string(branch->line) + " (`" + branch->cond +
            "`): ranks that skip the call never write their fragment, so "
            "the epoch can never commit"));
  }
}

/// True when `expr` depends on a 64-bit-sized parameter of `entry`'s
/// function — the signal that the overflow hazard belongs to the callers
/// (it is recorded in the summary and reported at call sites), not to
/// this function. A non-wide parameter the expression merely mentions
/// (a Comm&, a file handle) does not make this a wrapper.
bool DependsOnWideParam(const Program::FnEntry& entry,
                        const std::string& expr) {
  return std::any_of(
      entry.fn->params.begin(), entry.fn->params.end(), [&](const Param& p) {
        return !p.name.empty() && entry.flow.Is64BitSized(p.name) &&
               entry.flow.DependsOn(expr, p.name);
      });
}

void CheckIntCountOverflow(const Program& prog,
                           const Program::FnEntry& entry,
                           std::vector<LintFinding>& out) {
  const FunctionFlow& flow = entry.flow;
  for (const FlowEvent& e : flow.events()) {
    if (e.call == nullptr) continue;
    // Direct transfer call with a narrowing cast on the count (the PR-3
    // rule). A parameter-sourced operand defers to the call sites.
    const int direct = TransferCountArg(e.call->method);
    if (direct >= 0 &&
        static_cast<std::size_t>(direct) < e.call->args.size()) {
      const std::string operand =
          NarrowCastOperand(e.call->args[static_cast<std::size_t>(direct)]);
      if (!operand.empty() && flow.Is64BitSized(operand) &&
          !flow.HasIntMaxGuard() && !DependsOnWideParam(entry, operand)) {
        out.push_back(MakeFinding(
            "mpi-int-count-overflow", entry.file, e.call->line,
            "64-bit size `" + operand + "` narrowed to an int count of " +
                e.call->method + "() with no INT_MAX guard in the "
                "function: counts above 2 GB wrap (the Fig. 4 failure — "
                "MPI_File_read_at_all takes an `int` count)"));
        continue;
      }
    }
    // A call whose argument lands in a wrapper's int-narrowed count
    // parameter (the summary records the flow, transitively).
    bool fired = false;
    for (int idx : prog.Resolve(*e.call)) {
      if (fired) break;
      const Program::FnEntry& callee =
          prog.fns()[static_cast<std::size_t>(idx)];
      for (int pos : callee.summary.count_params) {
        if (pos < 0 ||
            static_cast<std::size_t>(pos) >= e.call->args.size()) {
          continue;
        }
        const std::string& arg =
            e.call->args[static_cast<std::size_t>(pos)];
        std::string expr = NarrowCastOperand(arg);
        if (expr.empty()) expr = arg;
        if (!flow.Is64BitSized(expr)) continue;
        if (flow.HasIntMaxGuard()) continue;
        if (DependsOnWideParam(entry, expr)) continue;  // defer further up
        LintFinding f = MakeFinding(
            "mpi-int-count-overflow", entry.file, e.call->line,
            "64-bit size `" + expr + "` flows into the int-narrowed "
            "count parameter `" +
                callee.fn->params[static_cast<std::size_t>(pos)].name +
                "` of " + e.call->method + "() with no INT_MAX guard: "
                "counts above 2 GB wrap (the Fig. 4 failure, one call "
                "deep)");
        f.related.push_back(RelatedLocation{
            callee.file, callee.summary.narrow_line,
            "the count is narrowed to int inside " + e.call->method +
                "()"});
        out.push_back(std::move(f));
        fired = true;
        break;
      }
    }
  }
}

/// Caller side of mpi-blocking-symmetric-send: a rank-relative peer
/// expression passed into a wrapper whose summary says the parameter
/// reaches a blocking Send with a matching Recv.
void CheckSymmetricSendWrapper(const Program& prog,
                               const Program::FnEntry& entry,
                               std::vector<LintFinding>& out) {
  const FunctionFlow& flow = entry.flow;
  for (const FlowEvent& e : flow.events()) {
    if (e.call == nullptr || e.call->method == "Send") continue;
    bool fired = false;
    for (int idx : prog.Resolve(*e.call)) {
      if (fired) break;
      const Program::FnEntry& callee =
          prog.fns()[static_cast<std::size_t>(idx)];
      for (int pos : callee.summary.peer_params) {
        if (pos < 0 ||
            static_cast<std::size_t>(pos) >= e.call->args.size()) {
          continue;
        }
        const std::string& a = e.call->args[static_cast<std::size_t>(pos)];
        if (!flow.IsRankDerived(a)) continue;
        bool arith = HasArithmetic(a);
        if (!arith) {
          const VarInfo* var = flow.Lookup(a);
          arith = var != nullptr && HasArithmetic(var->init);
        }
        if (!arith) continue;
        LintFinding f = MakeFinding(
            "mpi-blocking-symmetric-send", entry.file, e.call->line,
            "rank-relative peer `" + a + "` passed to " + e.call->method +
                "(), which performs a blocking Send with a matching Recv "
                "on it; the symmetric exchange deadlocks once messages "
                "cross the rendezvous threshold");
        f.related.push_back(RelatedLocation{
            callee.file, callee.summary.exchange_line,
            "the blocking Send inside " + e.call->method + "()"});
        out.push_back(std::move(f));
        fired = true;
        break;
      }
    }
  }
}

void CheckTagMismatch(const std::string& file, const FunctionFlow& flow,
                      std::vector<LintFinding>& out) {
  std::set<long long> send_tags;
  std::set<long long> recv_tags;
  int first_recv_line = 0;
  for (const FlowEvent& e : flow.events()) {
    if (e.call == nullptr || e.call->args.size() < 2) continue;
    const bool is_send = MethodIn(*e.call, {"Send", "Isend"});
    const bool is_recv = MethodIn(*e.call, {"Recv", "Irecv"});
    if (!is_send && !is_recv) continue;
    const std::string& tag = e.call->args.back();
    // Only constant tags are provable; one variable tag voids the check.
    char* end = nullptr;
    const long long value = std::strtoll(tag.c_str(), &end, 0);
    if (end == tag.c_str() || *end != '\0') return;
    if (is_send) send_tags.insert(value);
    if (is_recv) {
      recv_tags.insert(value);
      if (first_recv_line == 0) first_recv_line = e.call->line;
    }
  }
  if (send_tags.empty() || recv_tags.empty()) return;
  std::vector<long long> overlap;
  std::set_intersection(send_tags.begin(), send_tags.end(),
                        recv_tags.begin(), recv_tags.end(),
                        std::back_inserter(overlap));
  if (!overlap.empty()) return;
  std::ostringstream msg;
  msg << "send tag(s) {";
  for (long long t : send_tags) msg << " " << t;
  msg << " } and receive tag(s) {";
  for (long long t : recv_tags) msg << " " << t;
  msg << " } never intersect: within this function no send can match a "
         "receive";
  out.push_back(MakeFinding("mpi-tag-mismatch", file, first_recv_line,
                            msg.str()));
}

// ===========================================================================
// SHMEM rule
// ===========================================================================

void CheckPutWithoutQuiet(const std::string& file, const FunctionFlow& flow,
                          std::vector<LintFinding>& out) {
  struct PendingPut {
    std::string base;
    int line;
  };
  std::vector<PendingPut> pending;
  for (const FlowEvent& e : flow.events()) {
    if (e.call == nullptr) continue;
    const CallExpr& c = *e.call;
    if (MethodIn(c, {"Put", "PutValue"}) && !c.args.empty()) {
      const std::string base = BaseIdent(c.args[0]);
      if (!base.empty()) pending.push_back(PendingPut{base, c.line});
      continue;
    }
    if (MethodIn(c, {"Quiet", "Fence", "Barrier", "BarrierAll"})) {
      pending.clear();
      continue;
    }
    std::string src;
    if (c.method == "GetValue" && !c.args.empty()) src = c.args[0];
    if (c.method == "Get" && c.args.size() >= 2) src = c.args[1];
    if (src.empty()) continue;
    const std::string base = BaseIdent(src);
    for (const PendingPut& p : pending) {
      if (p.base != base) continue;
      out.push_back(MakeFinding(
          "shmem-put-without-quiet", file, c.line,
          "get of symmetric object '" + base + "' follows the put at "
          "line " + std::to_string(p.line) + " with no Quiet()/Fence()/"
          "BarrierAll() between: the put is not remotely complete and "
          "the get may read stale data"));
      break;
    }
  }
}

// ===========================================================================
// OpenMP rules
// ===========================================================================

bool IsOmpParallelFor(const std::string& pragma) {
  return pragma.find("omp") != std::string::npos &&
         pragma.find("parallel") != std::string::npos &&
         pragma.find("for") != std::string::npos;
}

/// Identifiers inside every `clause( ... )` occurrence of `pragma`.
std::vector<std::string> ClauseVars(const std::string& pragma,
                                    const char* clause) {
  std::vector<std::string> out;
  const std::string needle = std::string(clause) + "(";
  std::size_t pos = 0;
  while ((pos = pragma.find(needle, pos)) != std::string::npos) {
    const std::size_t open = pos + needle.size() - 1;
    const std::size_t close = pragma.find(')', open);
    if (close == std::string::npos) break;
    std::string word;
    for (std::size_t j = open + 1; j <= close; ++j) {
      const char c = pragma[j];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') {
        word += c;
      } else {
        if (!word.empty()) out.push_back(word);
        word.clear();
      }
    }
    pos = close;
  }
  return out;
}

void CollectSubtreeDecls(const std::vector<Stmt>& body,
                         std::set<std::string>* names) {
  ForEachStmt(body, [&](const Stmt& s) {
    if (!s.decl_name.empty()) names->insert(s.decl_name);
    if (!s.induction_var.empty()) names->insert(s.induction_var);
  });
}

/// Walk the loop body; `guarded(stmt)` is true when the statement sits
/// directly under an `omp atomic`/`omp critical` pragma sibling.
void ForEachBodyStmtWithGuards(
    const std::vector<Stmt>& body,
    const std::function<void(const Stmt&, bool guarded)>& visit) {
  bool guard_next = false;
  for (const Stmt& s : body) {
    if (s.kind == StmtKind::kPragma) {
      if (s.text.find("omp") != std::string::npos &&
          (s.text.find("atomic") != std::string::npos ||
           s.text.find("critical") != std::string::npos)) {
        guard_next = true;
        continue;
      }
      guard_next = false;
      continue;
    }
    visit(s, guard_next);
    if (!guard_next) {
      ForEachBodyStmtWithGuards(s.children, visit);
      ForEachBodyStmtWithGuards(s.else_children, visit);
    }
    guard_next = false;
  }
}

void CheckOmpPragma(const std::string& file, const Stmt& pragma,
                    const Stmt& loop, const FunctionFlow& flow,
                    std::vector<LintFinding>& out) {
  std::set<std::string> declared_inside;
  CollectSubtreeDecls({loop}, &declared_inside);

  std::set<std::string> protected_vars;
  for (const char* clause :
       {"reduction", "private", "firstprivate", "lastprivate", "linear"}) {
    for (std::string& v : ClauseVars(pragma.text, clause)) {
      protected_vars.insert(std::move(v));
    }
  }

  // --- omp-shared-reduction: unguarded accumulation into a shared var.
  if (pragma.text.find("reduction(") == std::string::npos) {
    bool flagged = false;
    ForEachBodyStmtWithGuards(loop.children, [&](const Stmt& s,
                                                 bool guarded) {
      if (flagged || guarded) return;
      for (const Assign& a : s.assigns) {
        if (a.op == "=" || a.op.size() < 2) continue;
        if (declared_inside.count(a.name) != 0) continue;
        if (protected_vars.count(a.name) != 0) continue;
        // `a[i] += ...` with the loop's own induction index is a
        // disjoint-element update, not a race.
        if (!a.subscript.empty() &&
            declared_inside.count(a.subscript) != 0) {
          continue;
        }
        out.push_back(MakeFinding(
            "omp-shared-reduction", file, pragma.line,
            "parallel-for accumulates into shared '" + a.name +
                "' at line " + std::to_string(s.line) +
                " without a reduction clause (or omp atomic): data race"));
        flagged = true;
        return;
      }
    });
  }

  // --- omp-missing-private: plain scalar assignment to an outer local.
  std::set<std::string> already;
  ForEachBodyStmtWithGuards(loop.children, [&](const Stmt& s, bool guarded) {
    if (guarded) return;
    for (const Assign& a : s.assigns) {
      if (a.op != "=" || !a.subscript.empty()) continue;
      if (declared_inside.count(a.name) != 0) continue;
      if (protected_vars.count(a.name) != 0) continue;
      if (already.count(a.name) != 0) continue;
      const VarInfo* var = flow.Lookup(a.name);
      if (var == nullptr || var->is_param) continue;
      static const char* const kScalarWords[] = {
          "int",     "long",   "double",   "float",    "bool",
          "char",    "short",  "unsigned", "size_t",   "int32_t",
          "int64_t", "uint32_t", "uint64_t", "auto",   "Bytes",
          "SimTime",
      };
      const bool scalar = std::any_of(
          std::begin(kScalarWords), std::end(kScalarWords),
          [&](const char* w) { return ContainsWord(var->type, w); });
      if (!scalar) continue;
      already.insert(a.name);
      out.push_back(MakeFinding(
          "omp-missing-private", file, s.line,
          "'" + a.name + "' (declared at line " +
              std::to_string(var->decl_line) +
              ", outside the parallel loop) is assigned inside the "
              "parallel-for body; without private(" + a.name +
              ") every thread writes the same shared scalar"));
    }
  });
}

void CheckOmpRules(const std::string& file, const std::vector<Stmt>& body,
                   const FunctionFlow& flow,
                   std::vector<LintFinding>& out) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Stmt& s = body[i];
    if (s.kind == StmtKind::kPragma && IsOmpParallelFor(s.text) &&
        i + 1 < body.size() && body[i + 1].kind == StmtKind::kLoop) {
      CheckOmpPragma(file, s, body[i + 1], flow, out);
    }
    CheckOmpRules(file, s.children, flow, out);
    CheckOmpRules(file, s.else_children, flow, out);
  }
}

// ===========================================================================
// Spark rule
// ===========================================================================

const char* const kRddMakers[] = {
    ".Parallelize(", ".TextFile(",  ".Map<",        ".Map(",
    ".FlatMap",      ".Filter(",    ".KeyBy",       ".ReduceByKey",
    ".GroupByKey",   ".PartitionBy", ".Join(",      ".MapValues",
    ".Distinct(",    ".Union(",     ".AsPairs",     ".AsRdd",
};

const char* const kRddActions[] = {
    "Count",   "Collect", "CollectAsMap", "Reduce",        "Fold",
    "Take",    "First",   "Foreach",      "SaveAsTextFile", "CountByKey",
    "Lookup",  "TakeSample",
};

void CheckMissingPersist(const std::string& file, const FunctionFlow& flow,
                         std::vector<LintFinding>& out) {
  for (const VarInfo& var : flow.vars()) {
    if (var.is_param || var.init.empty()) continue;
    const bool rdd_type = ContainsWord(var.type, "auto") ||
                          var.type.find("Rdd") != std::string::npos;
    const bool makes_rdd =
        rdd_type && std::any_of(std::begin(kRddMakers), std::end(kRddMakers),
                                [&](const char* m) {
                                  return var.init.find(m) !=
                                         std::string::npos;
                                });
    if (!makes_rdd) continue;
    if (flow.HasMethodCall(var.name, {"Persist", "Cache"})) continue;

    // Reuse class 1: touched inside a loop it was declared outside of.
    int first_loop_use = 0;
    for (const FunctionFlow::UseSite& use : flow.UsesOf(var.name)) {
      if (use.loop_depth > var.decl_loop_depth) {
        first_loop_use = use.line;
        break;
      }
    }
    // Reuse class 2: two or more actions each force a computation.
    int action_count = 0;
    int second_action_line = 0;
    for (const FlowEvent& e : flow.events()) {
      if (e.call == nullptr || e.call->receiver != var.name) continue;
      if (std::any_of(std::begin(kRddActions), std::end(kRddActions),
                      [&](const char* a) { return e.call->method == a; })) {
        ++action_count;
        if (action_count == 2) second_action_line = e.call->line;
      }
    }

    if (first_loop_use != 0) {
      out.push_back(MakeFinding(
          "spark-missing-persist", file, first_loop_use,
          "RDD '" + var.name + "' (defined at line " +
              std::to_string(var.decl_line) +
              ") is reused inside a loop without Persist()/Cache(); "
              "every iteration recomputes its whole lineage"));
    } else if (action_count >= 2) {
      out.push_back(MakeFinding(
          "spark-missing-persist", file, second_action_line,
          "RDD '" + var.name + "' (defined at line " +
              std::to_string(var.decl_line) + ") is computed by " +
              std::to_string(action_count) +
              " actions without Persist()/Cache(); each action recomputes "
              "the whole lineage"));
    }
  }
}

// ===========================================================================
// SARIF helpers
// ===========================================================================

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "warning";
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> rules(std::begin(kRules),
                                           std::end(kRules));
  return rules;
}

namespace {

std::vector<std::string> SourceLines(const std::string& source) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : source) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(std::move(cur));
  return lines;
}

}  // namespace

std::string SourceLineHash(const std::string& line_text) {
  std::size_t b = 0;
  std::size_t e = line_text.size();
  while (b < e &&
         std::isspace(static_cast<unsigned char>(line_text[b])) != 0) {
    ++b;
  }
  while (e > b &&
         std::isspace(static_cast<unsigned char>(line_text[e - 1])) != 0) {
    --e;
  }
  std::uint32_t h = 2166136261u;  // FNV-1a, 32-bit
  for (std::size_t i = b; i < e; ++i) {
    h ^= static_cast<unsigned char>(line_text[i]);
    h *= 16777619u;
  }
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", h);
  return buf;
}

std::vector<LintFinding> LintProgram(std::vector<ProgramSource> sources) {
  // Keep the line text for the findings' drift-tolerant line hash
  // (Analyze consumes the source strings).
  std::map<std::string, std::vector<std::string>> lines_of;
  for (const ProgramSource& s : sources) {
    lines_of[s.file] = SourceLines(s.source);
  }
  const Program prog = Program::Analyze(std::move(sources));
  std::vector<LintFinding> out;
  for (const Program::FnEntry& entry : prog.fns()) {
    const FunctionFlow& flow = entry.flow;
    // An exchange the per-rank simulation proves to drain is the staggered
    // order the deadlock rules recommend; the textual symmetric-send check
    // would flag it all the same.
    if (!CheckRendezvousDeadlock(prog, entry, out)) {
      CheckBlockingSymmetricSend(entry.file, flow, out);
    }
    CheckSymmetricSendWrapper(prog, entry, out);
    // Uniformity gate: a function whose every path provably executes the
    // same collective sequence is uniform regardless of which rank takes
    // which path — the syntactic divergence rules (branch arms, early
    // returns) run only when the gate fails.
    if (!prog.CollectiveSeqOf(entry.fn->body, /*gate=*/true).has_value()) {
      CheckCollectiveDivergence(prog, entry, out);
      CheckEarlyReturnDivergence(prog, entry, out);
    }
    CheckCkptOutsideCollective(entry.file, flow, out);
    CheckIntCountOverflow(prog, entry, out);
    CheckTagMismatch(entry.file, flow, out);
    CheckPutWithoutQuiet(entry.file, flow, out);
    CheckOmpRules(entry.file, entry.fn->body, flow, out);
    CheckMissingPersist(entry.file, flow, out);
  }
  // Stable: findings that tie keep the order the checks emitted them in.
  std::stable_sort(out.begin(), out.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const LintFinding& a, const LintFinding& b) {
                          return a.rule == b.rule && a.file == b.file &&
                                 a.line == b.line && a.message == b.message;
                        }),
            out.end());
  for (LintFinding& f : out) {
    const auto it = lines_of.find(f.file);
    if (it == lines_of.end()) continue;
    if (f.line >= 1 &&
        static_cast<std::size_t>(f.line) <= it->second.size()) {
      f.line_hash =
          SourceLineHash(it->second[static_cast<std::size_t>(f.line - 1)]);
    }
  }
  return out;
}

std::vector<LintFinding> LintSource(const std::string& file,
                                    const std::string& source) {
  return LintProgram({ProgramSource{file, source}});
}

namespace {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Result<std::vector<LintFinding>> LintFile(const std::string& path) {
  auto text = ReadWholeFile(path);
  if (!text.ok()) return text.status();
  return LintSource(path, text.value());
}

Result<std::vector<LintFinding>> LintTree(
    const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".cpp" || ext == ".h") {
          files.push_back(entry.path().string());
        }
      }
      if (ec) return Internal("cannot walk " + root + ": " + ec.message());
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      return NotFound("lint root not found: " + root);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // One Program across every file, so wrapper calls resolve across
  // translation-unit boundaries.
  std::vector<ProgramSource> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    auto text = ReadWholeFile(file);
    if (!text.ok()) return text.status();
    sources.push_back(ProgramSource{file, std::move(text.value())});
  }
  return LintProgram(std::move(sources));
}

Severity WorstSeverity(const std::vector<LintFinding>& findings) {
  Severity worst = Severity::kNote;
  for (const LintFinding& f : findings) {
    if (static_cast<int>(f.severity) > static_cast<int>(worst)) {
      worst = f.severity;
    }
  }
  return worst;
}

std::string RenderLintReport(const std::vector<LintFinding>& findings) {
  std::ostringstream oss;
  if (findings.empty()) {
    oss << "pstk-lint: clean (0 findings)\n";
    return oss.str();
  }
  oss << "pstk-lint: " << findings.size() << " finding(s)\n";
  std::map<std::string, int> by_rule;
  for (const LintFinding& f : findings) {
    oss << "  " << f.file << ":" << f.line << ": " << SeverityName(f.severity)
        << ": [" << f.rule << "] " << f.message << "\n";
    if (!f.fixit.empty()) oss << "      fix: " << f.fixit << "\n";
    for (const RelatedLocation& r : f.related) {
      oss << "      see: " << r.file << ":" << r.line << ": " << r.note
          << "\n";
    }
    ++by_rule[f.rule];
  }
  oss << "by rule:\n";
  for (const auto& [rule, count] : by_rule) {
    oss << "  " << rule << ": " << count << "\n";
  }
  return oss.str();
}

std::string RenderSarif(const std::vector<LintFinding>& findings) {
  std::ostringstream oss;
  oss << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"pstk-lint\",\n"
      << "          \"informationUri\": "
         "\"https://github.com/pstk/parastack\",\n"
      << "          \"version\": \"0.4.0\",\n"
      << "          \"rules\": [\n";
  const std::vector<RuleInfo>& rules = Rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleInfo& r = rules[i];
    oss << "            {\"id\": \"" << r.slug
        << "\", \"shortDescription\": {\"text\": \"" << EscapeJson(r.summary)
        << "\"}, \"help\": {\"text\": \"" << EscapeJson(r.fix)
        << "\"}, \"defaultConfiguration\": {\"level\": \""
        << SeverityName(r.severity) << "\"}}"
        << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  oss << "          ]\n        }\n      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    std::size_t rule_index = rules.size();
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (f.rule == rules[r].slug) rule_index = r;
    }
    oss << "        {\"ruleId\": \"" << EscapeJson(f.rule) << "\"";
    if (rule_index < rules.size()) {
      oss << ", \"ruleIndex\": " << rule_index;
    }
    oss << ", \"level\": \"" << SeverityName(f.severity)
        << "\", \"message\": {\"text\": \"" << EscapeJson(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << EscapeJson(f.file) << "\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}]";
    if (!f.related.empty()) {
      oss << ", \"relatedLocations\": [";
      for (std::size_t r = 0; r < f.related.size(); ++r) {
        const RelatedLocation& rel = f.related[r];
        oss << (r > 0 ? ", " : "")
            << "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
            << EscapeJson(rel.file) << "\"}, \"region\": {\"startLine\": "
            << (rel.line > 0 ? rel.line : 1)
            << "}}, \"message\": {\"text\": \"" << EscapeJson(rel.note)
            << "\"}}";
      }
      oss << "]";
    }
    oss << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  oss << "      ]\n    }\n  ]\n}\n";
  return oss.str();
}

std::vector<BaselineEntry> ParseBaseline(const std::string& text) {
  std::vector<BaselineEntry> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto fields = SplitNonEmpty(line, ' ');
    if (fields.empty()) continue;
    BaselineEntry entry;
    entry.rule = fields[0];
    if (fields.size() > 1) entry.path = fields[1];
    if (fields.size() > 2) entry.hash = fields[2];
    out.push_back(std::move(entry));
  }
  return out;
}

Result<std::vector<BaselineEntry>> LoadBaseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open baseline " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseBaseline(buffer.str());
}

std::string FormatBaseline(const std::vector<LintFinding>& findings,
                           const std::string& header) {
  std::set<std::string> lines;
  for (const LintFinding& f : findings) {
    // The hash column is emitted only when the finding carries one, so a
    // hash-less round trip (findings built by hand, old goldens) renders
    // the legacy two-field form byte-for-byte.
    lines.insert(f.rule + " " + f.file +
                 (f.line_hash.empty() ? "" : " " + f.line_hash));
  }
  std::string out =
      header.empty()
          ? std::string(
                "# pstk-lint baseline: `rule path` per line suppresses "
                "matching\n"
                "# findings (path matched by suffix). '#' starts a "
                "comment.\n")
          : header;
  if (!out.empty() && out.back() != '\n') out += '\n';
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

namespace {

bool PathMatches(const std::string& file, const std::string& pattern) {
  if (pattern.empty()) return true;  // rule-wide suppression
  if (file == pattern) return true;
  if (!EndsWith(file, pattern)) return false;
  // Suffix must start at a path component ("fig4.cc" must not match
  // "notfig4.cc").
  const char before = file[file.size() - pattern.size() - 1];
  return before == '/' || pattern.front() == '/';
}

}  // namespace

std::vector<LintFinding> ApplyBaseline(
    std::vector<LintFinding> findings,
    const std::vector<BaselineEntry>& baseline, int* suppressed) {
  int dropped = 0;
  std::vector<LintFinding> kept;
  kept.reserve(findings.size());
  for (LintFinding& f : findings) {
    const bool matched = std::any_of(
        baseline.begin(), baseline.end(), [&](const BaselineEntry& e) {
          // A hash on both sides must agree; either side hash-less falls
          // back to the rule+path match (drift-tolerant by construction:
          // the hash covers line *text*, never the line number).
          return e.rule == f.rule && PathMatches(f.file, e.path) &&
                 (e.hash.empty() || f.line_hash.empty() ||
                  e.hash == f.line_hash);
        });
    if (matched) {
      ++dropped;
    } else {
      kept.push_back(std::move(f));
    }
  }
  if (suppressed != nullptr) *suppressed = dropped;
  return kept;
}

}  // namespace pstk::analysis
