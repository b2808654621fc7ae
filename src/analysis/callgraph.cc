#include "analysis/callgraph.h"

#include <algorithm>
#include <set>
#include <string>

#include "analysis/token.h"

namespace pstk::analysis {

namespace {

const char* const kCollectives[] = {
    "Reduce",     "Allreduce",      "AllReduce", "Allgather", "AllGather",
    "Gather",     "Scatter",        "Alltoall",  "AllToAll",  "Barrier",
    "BarrierAll", "Broadcast",      "BroadcastAll", "Bcast",  "OpenAll",
    "ReadAtAll",  "ReadLinesAtAll", "WriteAtAll", "Scan",     "ReduceAll",
};

const char* const kBlocking[] = {
    "Wait", "WaitFor", "WaitAll", "wait", "wait_for", "BlockOn",
    "Join", "join",    "sleep_for", "sleep_until", "Recv",
};

struct TransferSpec {
  const char* method;
  int count_arg;
};

// `Send(buf, count, peer, tag)` style transfers and the MPI-IO at-offset
// family (`ReadAt(file, offset, count)`): where the int count sits.
const TransferSpec kTransfers[] = {
    {"Send", 1},      {"Isend", 1},      {"Recv", 1},
    {"Irecv", 1},     {"ReadAt", 2},     {"WriteAt", 2},
    {"ReadAtAll", 2}, {"WriteAtAll", 2}, {"ReadLinesAtAll", 2},
};

const char* const kNarrowCasts[] = {
    "static_cast<int>(",           "static_cast<std::int32_t>(",
    "static_cast<int32_t>(",       "static_cast<std::uint32_t>(",
    "static_cast<uint32_t>(",      "static_cast<unsigned>(",
    "static_cast<unsigned int>(",
};

/// Eligible for taint-knowledge / call-edge matching by name: lambdas
/// (`outer::lambda#k`) can never be named in call text, and `main` is
/// never a wrapper.
bool Nameable(const Function& fn) {
  return !fn.is_lambda && fn.name != "main";
}

}  // namespace

bool IsCollectiveMethod(const std::string& method) {
  return std::any_of(std::begin(kCollectives), std::end(kCollectives),
                     [&](const char* n) { return method == n; });
}

bool IsBlockingMethod(const std::string& method) {
  return std::any_of(std::begin(kBlocking), std::end(kBlocking),
                     [&](const char* n) { return method == n; });
}

int TransferCountArg(const std::string& method) {
  for (const TransferSpec& t : kTransfers) {
    if (method == t.method) return t.count_arg;
  }
  return -1;
}

std::string NarrowCastOperand(const std::string& arg) {
  for (const char* cast : kNarrowCasts) {
    const std::size_t at = arg.find(cast);
    if (at == std::string::npos) continue;
    const std::size_t open = at + std::char_traits<char>::length(cast) - 1;
    int depth = 0;
    for (std::size_t j = open; j < arg.size(); ++j) {
      if (arg[j] == '(') ++depth;
      if (arg[j] == ')' && --depth == 0) {
        return arg.substr(open + 1, j - open - 1);
      }
    }
  }
  return "";
}

std::vector<int> Program::Resolve(const CallExpr& call) const {
  std::vector<int> by_name;
  std::vector<int> by_arity;
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    const FnEntry& e = fns_[i];
    if (!Nameable(*e.fn) || e.fn->name != call.method) continue;
    by_name.push_back(static_cast<int>(i));
    if (e.fn->params.size() == call.args.size()) {
      by_arity.push_back(static_cast<int>(i));
    }
  }
  return by_arity.empty() ? by_name : by_arity;
}

int Program::Find(const std::string& name, int arity) const {
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    if (fns_[i].fn->name != name) continue;
    if (arity >= 0 &&
        fns_[i].fn->params.size() != static_cast<std::size_t>(arity)) {
      continue;
    }
    return static_cast<int>(i);
  }
  return -1;
}

namespace {

using Seq = std::optional<std::vector<std::string>>;

/// Path-exact collective-sequence walker, memoized per function. `Walk`
/// returns the sequence that every path from the start of a statement
/// list to the function's exit executes, or nullopt when two paths
/// disagree or a step is unprovable. It runs backwards over each list, so
/// every statement sees the sequence of what follows it:
///   * `return` ends its path; what follows it is unreachable from there;
///   * a branch is provable when both arms, each followed by the rest of
///     the list, agree (a switch is a branch with an empty else);
///   * a loop runs zero or one time, and the two must agree: its header
///     (the loop test) runs once, or before and after the body; a step
///     inside the body that contributes a collective is unprovable,
///     since the trip count is not known.
/// Gate mode adds one rule: a step reaching Checkpoint() is unprovable.
class SeqSolver {
 public:
  /// kSolve computes every summary; kRead and kGate only read the final
  /// summaries and never mutate anything.
  enum class Mode : char { kSolve, kRead, kGate };
  enum class FnState : char { kUnvisited, kInProgress, kDone };

  SeqSolver(const std::vector<Program::FnEntry>& fns, const Program& prog,
            Mode mode)
      : fns_(fns),
        prog_(prog),
        gate_(mode == Mode::kGate),
        state_(fns.size(), mode == Mode::kSolve ? FnState::kUnvisited
                                                : FnState::kDone) {}

  /// Sequence of function `idx`; nullptr when unknown (including any
  /// recursion through `idx`).
  const std::vector<std::string>* FnSeq(int idx) {
    // Mutation only happens in solve mode, where the caller (Analyze)
    // owns the entries non-const; read modes never reach the writes.
    auto& entry = const_cast<Program::FnEntry&>(
        fns_[static_cast<std::size_t>(idx)]);
    FnState& st = state_[static_cast<std::size_t>(idx)];
    if (st == FnState::kInProgress) return nullptr;  // cycle -> unknown
    if (st == FnState::kUnvisited) {
      st = FnState::kInProgress;
      Seq seq = Walk(entry.fn->body, std::vector<std::string>{}, false);
      st = FnState::kDone;
      entry.summary.sequence_known = seq.has_value();
      entry.summary.collective_seq = std::move(seq).value_or(
          std::vector<std::string>{});
    }
    return entry.summary.sequence_known ? &entry.summary.collective_seq
                                        : nullptr;
  }

  void SolveAll() {
    for (std::size_t i = 0; i < fns_.size(); ++i) {
      FnSeq(static_cast<int>(i));
    }
  }

  /// Sequence of `stmts` followed by `after`, what runs once control
  /// falls off the end of the list.
  Seq Walk(const std::vector<Stmt>& stmts, Seq after, bool in_loop) {
    for (auto it = stmts.rbegin(); it != stmts.rend(); ++it) {
      after = Step(*it, std::move(after), in_loop);
    }
    return after;
  }

 private:
  Seq Step(const Stmt& s, Seq after, bool in_loop) {
    switch (s.kind) {
      case StmtKind::kReturn:
        after = std::vector<std::string>{};
        break;
      case StmtKind::kBlock:
        after = Walk(s.children, std::move(after), in_loop);
        break;
      case StmtKind::kBranch: {
        const Seq then_seq = Walk(s.children, after, in_loop);
        after = Walk(s.else_children, std::move(after), in_loop);
        if (then_seq != after) return std::nullopt;
        break;
      }
      case StmtKind::kLoop: {
        // Zero iterations: header, then `after`. One: header, body,
        // header, then `after` — unless the body returns first.
        const Seq skip = CallsThen(s, std::move(after), in_loop);
        if (CallsThen(s, Walk(s.children, skip, /*in_loop=*/true),
                      in_loop) != skip) {
          return std::nullopt;
        }
        return skip;
      }
      case StmtKind::kPlain:
      case StmtKind::kPragma:
        break;
    }
    // A branch header runs before either arm.
    return CallsThen(s, std::move(after), in_loop);
  }

  /// The collectives of `s`'s own calls, in order, followed by `after`.
  Seq CallsThen(const Stmt& s, Seq after, bool in_loop) {
    std::vector<std::string> seq;
    for (const CallExpr& c : s.calls) {
      if (!AppendCall(c, in_loop, &seq)) return std::nullopt;
    }
    if (!after.has_value() || seq.empty()) return after;
    seq.insert(seq.end(), after->begin(), after->end());
    return seq;
  }

  /// Append a single call's collective contribution. A collective method
  /// name contributes itself (never expanded further — `comm.Barrier()`
  /// is a Barrier even when a local definition of Barrier is in scope);
  /// a call resolving to collective-reaching definitions contributes
  /// their common sequence, and fails when they disagree.
  bool AppendCall(const CallExpr& c, bool in_loop,
                  std::vector<std::string>* seq) {
    // Checkpoint() epochs are first-arrival-decides, not collectives; the
    // ckpt rule owns them, so the gate never calls such a path uniform.
    if (gate_ && c.method == "Checkpoint") return false;
    if (IsCollectiveMethod(c.method)) {
      if (in_loop) return false;
      seq->push_back(c.method);
      return true;
    }
    const std::vector<std::string>* agreed = nullptr;
    for (int idx : prog_.Resolve(c)) {
      const FunctionSummary& callee =
          fns_[static_cast<std::size_t>(idx)].summary;
      if (gate_ && callee.calls_checkpoint) return false;
      if (!callee.calls_collective) continue;
      const std::vector<std::string>* sub = FnSeq(idx);
      if (sub == nullptr || (agreed != nullptr && *agreed != *sub)) {
        return false;
      }
      agreed = sub;
    }
    if (agreed == nullptr) return true;
    if (in_loop && !agreed->empty()) return false;
    seq->insert(seq->end(), agreed->begin(), agreed->end());
    return true;
  }

  const std::vector<Program::FnEntry>& fns_;
  const Program& prog_;
  const bool gate_;
  std::vector<FnState> state_;
};

}  // namespace

std::optional<std::vector<std::string>> Program::CollectiveSeqOf(
    const std::vector<Stmt>& stmts, bool gate) const {
  SeqSolver reader(fns_, *this,
                   gate ? SeqSolver::Mode::kGate : SeqSolver::Mode::kRead);
  return reader.Walk(stmts, std::vector<std::string>{}, false);
}

std::optional<Program::CollectiveSite> Program::FirstCollectiveSite(
    const std::vector<Stmt>& stmts) const {
  std::optional<CollectiveSite> found;
  ForEachStmt(stmts, [&](const Stmt& s) {
    if (found.has_value()) return;
    for (const CallExpr& c : s.calls) {
      if (IsCollectiveMethod(c.method)) {
        found = CollectiveSite{c.line, c.method};
        return;
      }
      for (int idx : Resolve(c)) {
        const FnEntry& callee = fns_[static_cast<std::size_t>(idx)];
        if (callee.summary.calls_collective) {
          const std::string& name = callee.summary.collective_name;
          found = CollectiveSite{c.line, name.empty() ? c.method : name};
          return;
        }
      }
    }
  });
  return found;
}

Program Program::Analyze(std::vector<ProgramSource> sources) {
  Program p;
  p.know_ = std::make_unique<TaintKnowledge>();
  p.units_.reserve(sources.size());
  for (ProgramSource& source : sources) {
    p.units_.push_back(FileUnit{std::move(source.file),
                                ParseUnit(Tokenize(source.source))});
  }

  // --- phase 2: taint-knowledge fixpoint ---------------------------------
  // Rebuild every flow with the current rank/wide function-name sets until
  // they stabilize. Chains like `Partner() { return Left(rank); }` need
  // one extra round per wrapper level; 8 rounds cover any sane depth.
  std::set<std::string> rank_fns;
  std::set<std::string> wide_fns;
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (const FileUnit& fu : p.units_) {
      for (const Function& fn : fu.unit.functions) {
        if (!Nameable(fn)) continue;
        const FunctionFlow flow(fn, p.know_.get());
        bool returns_rank = false;
        bool returns_wide = false;
        for (const FlowEvent& e : flow.events()) {
          if (e.call != nullptr || e.stmt->kind != StmtKind::kReturn) {
            continue;
          }
          if (flow.IsRankDerived(e.stmt->text)) returns_rank = true;
          if (flow.Is64BitSized(e.stmt->text)) returns_wide = true;
        }
        if (returns_rank && rank_fns.insert(fn.name).second) changed = true;
        if (returns_wide && wide_fns.insert(fn.name).second) changed = true;
      }
    }
    p.know_->rank_fns.assign(rank_fns.begin(), rank_fns.end());
    p.know_->wide_fns.assign(wide_fns.begin(), wide_fns.end());
    if (!changed) break;
  }

  // --- final flows + direct summary facts --------------------------------
  for (const FileUnit& fu : p.units_) {
    for (const Function& fn : fu.unit.functions) {
      FnEntry e{fu.file, &fn, FunctionFlow(fn, p.know_.get()),
                FunctionSummary{}, {}};
      for (const FlowEvent& ev : e.flow.events()) {
        if (ev.call == nullptr) continue;
        if (IsCollectiveMethod(ev.call->method) &&
            !e.summary.calls_collective) {
          e.summary.calls_collective = true;
          e.summary.collective_line = ev.call->line;
          e.summary.collective_name = ev.call->method;
        }
        if (IsBlockingMethod(ev.call->method)) e.summary.calls_blocking = true;
        if (ev.call->method == "Checkpoint" && !e.summary.calls_checkpoint) {
          e.summary.calls_checkpoint = true;
          e.summary.checkpoint_line = ev.call->line;
        }
      }
      p.fns_.push_back(std::move(e));
    }
  }

  // --- phase 3: call edges -----------------------------------------------
  for (std::size_t i = 0; i < p.fns_.size(); ++i) {
    FnEntry& e = p.fns_[i];
    std::set<int> edges;
    for (const FlowEvent& ev : e.flow.events()) {
      if (ev.call == nullptr) continue;
      for (int idx : p.Resolve(*ev.call)) edges.insert(idx);
    }
    // Containment: a lambda lifted out of this function is treated as
    // called by it (deferred bodies count — conservative by design).
    const std::string prefix = e.fn->name + "::lambda#";
    for (std::size_t j = 0; j < p.fns_.size(); ++j) {
      if (p.fns_[j].file == e.file && p.fns_[j].fn->is_lambda &&
          p.fns_[j].fn->name.compare(0, prefix.size(), prefix) == 0) {
        edges.insert(static_cast<int>(j));
      }
    }
    e.callees.assign(edges.begin(), edges.end());
  }

  // --- phase 4a: transitive bool facts -----------------------------------
  bool changed = true;
  while (changed) {
    changed = false;
    for (FnEntry& e : p.fns_) {
      for (int c : e.callees) {
        const FunctionSummary& cs =
            p.fns_[static_cast<std::size_t>(c)].summary;
        if (cs.calls_collective && !e.summary.calls_collective) {
          e.summary.calls_collective = true;
          changed = true;
        }
        if (cs.calls_blocking && !e.summary.calls_blocking) {
          e.summary.calls_blocking = true;
          changed = true;
        }
        if (cs.calls_checkpoint && !e.summary.calls_checkpoint) {
          e.summary.calls_checkpoint = true;
          changed = true;
        }
      }
    }
  }
  // Fill in the first site that establishes each transitive fact.
  for (FnEntry& e : p.fns_) {
    for (const FlowEvent& ev : e.flow.events()) {
      if (ev.call == nullptr) continue;
      const bool need_coll =
          e.summary.calls_collective && e.summary.collective_line == 0;
      const bool need_ckpt =
          e.summary.calls_checkpoint && e.summary.checkpoint_line == 0;
      if (!need_coll && !need_ckpt) break;
      for (int idx : p.Resolve(*ev.call)) {
        const FunctionSummary& cs =
            p.fns_[static_cast<std::size_t>(idx)].summary;
        if (need_coll && cs.calls_collective &&
            e.summary.collective_line == 0) {
          e.summary.collective_line = ev.call->line;
          e.summary.collective_name = cs.collective_name.empty()
                                          ? ev.call->method
                                          : cs.collective_name;
        }
        if (need_ckpt && cs.calls_checkpoint &&
            e.summary.checkpoint_line == 0) {
          e.summary.checkpoint_line = ev.call->line;
        }
      }
    }
    // A fact carried only by a contained lambda has no resolvable call
    // event. The lambda body was lifted out of this very function, so
    // its first site is a genuine line of this function's file.
    const std::string lambda_prefix = e.fn->name + "::lambda#";
    for (int c : e.callees) {
      const FnEntry& ce = p.fns_[static_cast<std::size_t>(c)];
      if (ce.fn->name.compare(0, lambda_prefix.size(), lambda_prefix) != 0) {
        continue;
      }
      const FunctionSummary& cs = ce.summary;
      if (e.summary.calls_collective && e.summary.collective_line == 0 &&
          cs.collective_line != 0) {
        e.summary.collective_line = cs.collective_line;
        e.summary.collective_name = cs.collective_name;
      }
      if (e.summary.calls_checkpoint && e.summary.checkpoint_line == 0 &&
          cs.checkpoint_line != 0) {
        e.summary.checkpoint_line = cs.checkpoint_line;
      }
    }
  }

  // --- phase 4b: parameter facts (count + peer params) -------------------
  changed = true;
  while (changed) {
    changed = false;
    for (FnEntry& e : p.fns_) {
      if (e.flow.HasIntMaxGuard()) continue;  // guard blesses the wrapper
      for (const FlowEvent& ev : e.flow.events()) {
        if (ev.call == nullptr) continue;
        // Candidate count positions: the transfer table, plus callee
        // count params one level down.
        std::set<int> positions;
        const int direct = TransferCountArg(ev.call->method);
        if (direct >= 0) positions.insert(direct);
        std::set<int> peer_positions;
        for (int idx : p.Resolve(*ev.call)) {
          const FunctionSummary& cs =
              p.fns_[static_cast<std::size_t>(idx)].summary;
          for (int cp : cs.count_params) positions.insert(cp);
          for (int pp : cs.peer_params) peer_positions.insert(pp);
        }
        for (int pos : positions) {
          if (pos < 0 ||
              static_cast<std::size_t>(pos) >= ev.call->args.size()) {
            continue;
          }
          const std::string& arg = ev.call->args[static_cast<std::size_t>(
              pos)];
          std::string expr = NarrowCastOperand(arg);
          if (direct == pos && expr.empty()) continue;  // no cast, no hazard
          if (expr.empty()) expr = arg;
          for (std::size_t pi = 0; pi < e.fn->params.size(); ++pi) {
            const std::string& pname = e.fn->params[pi].name;
            if (pname.empty() || !e.flow.DependsOn(expr, pname)) continue;
            // Only a 64-bit-sized parameter makes this the wrapper shape
            // (the caller supplies the overflowing count); a Comm& the
            // count merely mentions is not a count source.
            if (!e.flow.Is64BitSized(pname)) continue;
            const int pidx = static_cast<int>(pi);
            if (std::find(e.summary.count_params.begin(),
                          e.summary.count_params.end(),
                          pidx) == e.summary.count_params.end()) {
              e.summary.count_params.push_back(pidx);
              if (e.summary.narrow_line == 0) {
                e.summary.narrow_line = ev.call->line;
              }
              changed = true;
            }
          }
        }
        // Peer flow: a blocking Send with a Recv at-or-after it, or a
        // forwarded call into a function with peer params.
        const bool direct_send =
            ev.call->method == "Send" &&
            std::any_of(e.flow.events().begin(), e.flow.events().end(),
                        [&](const FlowEvent& r) {
                          return r.call != nullptr &&
                                 r.call->method == "Recv" &&
                                 r.order >= ev.order;
                        });
        if (direct_send) {
          for (std::size_t ai = 1; ai < ev.call->args.size(); ++ai) {
            peer_positions.insert(static_cast<int>(ai));
          }
        }
        for (int pos : peer_positions) {
          if (pos < 0 ||
              static_cast<std::size_t>(pos) >= ev.call->args.size()) {
            continue;
          }
          // The transfer count position is never the peer.
          if (direct_send && pos == TransferCountArg("Send")) continue;
          const std::string& arg = ev.call->args[static_cast<std::size_t>(
              pos)];
          for (std::size_t pi = 0; pi < e.fn->params.size(); ++pi) {
            const std::string& pname = e.fn->params[pi].name;
            if (pname.empty() || !e.flow.DependsOn(arg, pname)) continue;
            // A rank-derived peer is the *intra* rule's business; the
            // summary records pure parameter flow.
            const int pidx = static_cast<int>(pi);
            if (std::find(e.summary.peer_params.begin(),
                          e.summary.peer_params.end(),
                          pidx) == e.summary.peer_params.end()) {
              e.summary.peer_params.push_back(pidx);
              if (e.summary.exchange_line == 0) {
                e.summary.exchange_line = ev.call->line;
              }
              changed = true;
            }
          }
        }
      }
    }
  }
  for (FnEntry& e : p.fns_) {
    std::sort(e.summary.count_params.begin(), e.summary.count_params.end());
    std::sort(e.summary.peer_params.begin(), e.summary.peer_params.end());
  }

  // --- phase 4c: collective sequences ------------------------------------
  SeqSolver(p.fns_, p, SeqSolver::Mode::kSolve).SolveAll();

  return p;
}

}  // namespace pstk::analysis
