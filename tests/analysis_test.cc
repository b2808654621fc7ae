#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>

#include "analysis/dataflow.h"
#include "analysis/deadlock.h"
#include "analysis/lint.h"
#include "analysis/loc.h"
#include "analysis/parse.h"
#include "analysis/token.h"
#include "common/rng.h"

namespace pstk::analysis {
namespace {

TEST(LocTest, CountsCodeLinesOnly) {
  const std::string source = R"(#include <vector>

// a comment line
int main() {
  /* block
     comment */
  int x = 1;  // trailing comment
  return x;
}
)";
  const auto report = AnalyzeSource("demo", source, {});
  // #include, int main() {, int x = 1;, return x;, }
  EXPECT_EQ(report.code_lines, 5);
  EXPECT_EQ(report.boilerplate_lines, 0);
}

TEST(LocTest, BlockCommentSpanningCodeLine) {
  const std::string source = "int a; /* hi\nstill comment */ int b;\n";
  const auto report = AnalyzeSource("demo", source, {});
  EXPECT_EQ(report.code_lines, 2);  // both lines carry code
}

TEST(LocTest, MarkersFlagBoilerplate) {
  const std::string source = R"(#include "mpi/mpi.h"
World world(cluster, 8, 8);
auto t = world.RunSpmd(body);
compute();
)";
  const auto report =
      AnalyzeSource("mpi", source, {"#include", "World", "RunSpmd"});
  EXPECT_EQ(report.code_lines, 4);
  EXPECT_EQ(report.boilerplate_lines, 3);
  EXPECT_NEAR(report.BoilerplateShare(), 0.75, 1e-9);
}

TEST(LocTest, MarkerCountedOncePerLine) {
  const auto report = AnalyzeSource(
      "x", "World world = World(World::Make());\n", {"World", "Make"});
  EXPECT_EQ(report.boilerplate_lines, 1);
}

TEST(LocTest, ExtractBenchmarkRegion) {
  const std::string source = R"(scaffolding();
// BENCHMARK-BEGIN
real code 1;
real code 2;
// BENCHMARK-END
more scaffolding();
)";
  const std::string region = ExtractBenchmarkRegion(source);
  EXPECT_NE(region.find("real code 1"), std::string::npos);
  EXPECT_EQ(region.find("scaffolding"), std::string::npos);
  // Absent markers: whole source returned.
  EXPECT_EQ(ExtractBenchmarkRegion("abc"), "abc");
}

TEST(LocTest, AnalyzeMissingFileFails) {
  const auto report = AnalyzeFile("x", "/no/such/file.cc", {});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

// ===========================================================================
// Stage 1: tokenizer
// ===========================================================================

TEST(TokenTest, CommentsAndStringContentsAreOpaque) {
  const std::string source = R"cc(
// comm.Send(buf, n, rank + 1, 0);
Log("calling Send(rank+1)"); /* Recv( */
)cc";
  const auto tokens = Tokenize(source);
  // Nothing from the comment or the literal leaks as an identifier.
  for (const Token& t : tokens) {
    EXPECT_FALSE(t.IsIdent("Send")) << t.text;
    EXPECT_FALSE(t.IsIdent("Recv")) << t.text;
    EXPECT_FALSE(t.IsIdent("rank")) << t.text;
  }
  // The literal survives as one opaque kString token with exact text.
  const auto str = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokKind::kString;
  });
  ASSERT_NE(str, tokens.end());
  EXPECT_EQ(str->text, "\"calling Send(rank+1)\"");
  EXPECT_EQ(str->line, 3);
}

TEST(TokenTest, RawStringsAndPragmasAreSingleTokens) {
  const std::string source =
      "auto s = R\"x(Send( " "\n" "more)x\";\n"
      "  #pragma omp parallel \\\n      for\n"
      "int after = 1;\n";
  const auto tokens = Tokenize(source);
  const auto raw = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokKind::kString;
  });
  ASSERT_NE(raw, tokens.end());
  EXPECT_NE(raw->text.find("Send("), std::string::npos);  // inside literal only
  const auto pragma =
      std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokKind::kPragma;
      });
  ASSERT_NE(pragma, tokens.end());
  // Backslash continuation folded into one directive token.
  EXPECT_NE(pragma->text.find("omp parallel"), std::string::npos);
  EXPECT_NE(pragma->text.find("for"), std::string::npos);
  // Line accounting stays exact across the raw string + continuation.
  const auto after = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.IsIdent("after");
  });
  ASSERT_NE(after, tokens.end());
  EXPECT_EQ(after->line, 5);
}

TEST(TokenTest, PrefixedRawStringsAreOpaque) {
  // u8R"/LR"/uR"/UR" literals used to lex as an identifier followed by an
  // unterminated plain string, leaking the literal contents as code.
  const std::string source =
      "auto a = u8R\"x(comm.Send(buf, n, rank + 1, 0))x\";\n"
      "auto b = LR\"(Recv( more)\";\n"
      "auto c = uR\"y(Barrier())y\";\n"
      "auto d = UR\"(wait())\";\n"
      "int after = 1;\n";
  const auto tokens = Tokenize(source);
  for (const Token& t : tokens) {
    EXPECT_FALSE(t.IsIdent("Send")) << t.text;
    EXPECT_FALSE(t.IsIdent("Recv")) << t.text;
    EXPECT_FALSE(t.IsIdent("Barrier")) << t.text;
    EXPECT_FALSE(t.IsIdent("rank")) << t.text;
  }
  // Each literal is one opaque kString token, prefix included.
  const auto strings = static_cast<std::size_t>(
      std::count_if(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokKind::kString;
      }));
  EXPECT_EQ(strings, 4u);
  const auto after = std::find_if(tokens.begin(), tokens.end(),
                                  [](const Token& t) {
                                    return t.IsIdent("after");
                                  });
  ASSERT_NE(after, tokens.end());
  EXPECT_EQ(after->line, 5);
}

TEST(TokenTest, OperatorsNumbersAndJoin) {
  const auto tokens = Tokenize("x <<= y->z; n += 2'000; p = 0x10;");
  auto has_punct = [&](const char* p) {
    return std::any_of(tokens.begin(), tokens.end(),
                       [&](const Token& t) { return t.IsPunct(p); });
  };
  EXPECT_TRUE(has_punct("<<="));
  EXPECT_TRUE(has_punct("->"));
  EXPECT_TRUE(has_punct("+="));
  long long hex = 0;
  long long sep = 0;
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kNumber) continue;
    const auto v = TokenIntValue(t);
    ASSERT_TRUE(v.has_value()) << t.text;
    if (t.text == "0x10") hex = *v;
    if (t.text == "2'000") sep = *v;
  }
  EXPECT_EQ(hex, 16);
  EXPECT_EQ(sep, 2000);
  EXPECT_FALSE(TokenIntValue(Token{TokKind::kNumber, "1.5e3", 1}).has_value());

  const auto cast = Tokenize("static_cast<std::int32_t>(len)");
  EXPECT_EQ(JoinTokens(cast, 0, cast.size()),
            "static_cast<std::int32_t>(len)");
}

// ===========================================================================
// Stage 2: structural parser
// ===========================================================================

TEST(ParseTest, FunctionsLoopsBranchesCalls) {
  const Unit unit = ParseSource(R"cc(
int Compute(int n) {
  int total = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      total += i;
    } else {
      total -= 1;
    }
  }
  helper.Run(total, n + 1);
  return total;
}
)cc");
  ASSERT_EQ(unit.functions.size(), 1u);
  const Function& fn = unit.functions[0];
  EXPECT_EQ(fn.name, "Compute");
  ASSERT_EQ(fn.params.size(), 1u);
  EXPECT_EQ(fn.params[0].name, "n");
  ASSERT_GE(fn.body.size(), 4u);
  EXPECT_EQ(fn.body[0].decl_name, "total");
  const Stmt& loop = fn.body[1];
  ASSERT_EQ(loop.kind, StmtKind::kLoop);
  EXPECT_EQ(loop.induction_var, "i");
  ASSERT_EQ(loop.children.size(), 1u);
  const Stmt& branch = loop.children[0];
  ASSERT_EQ(branch.kind, StmtKind::kBranch);
  ASSERT_EQ(branch.children.size(), 1u);
  ASSERT_EQ(branch.else_children.size(), 1u);
  ASSERT_EQ(branch.children[0].assigns.size(), 1u);
  EXPECT_EQ(branch.children[0].assigns[0].name, "total");
  EXPECT_EQ(branch.children[0].assigns[0].op, "+=");
  const Stmt& call_stmt = fn.body[2];
  ASSERT_EQ(call_stmt.calls.size(), 1u);
  EXPECT_EQ(call_stmt.calls[0].receiver, "helper");
  EXPECT_EQ(call_stmt.calls[0].method, "Run");
  ASSERT_EQ(call_stmt.calls[0].args.size(), 2u);
  EXPECT_EQ(call_stmt.calls[0].args[1], "n+1");
  EXPECT_EQ(fn.body[3].kind, StmtKind::kReturn);
}

TEST(ParseTest, LambdaBodyLiftedAsFunction) {
  const Unit unit = ParseSource(R"cc(
void Outer(mpi::World& world) {
  auto t = world.RunSpmd([&](mpi::Comm& comm) {
    comm.Barrier();
  });
}
)cc");
  ASSERT_EQ(unit.functions.size(), 2u);
  const auto lambda =
      std::find_if(unit.functions.begin(), unit.functions.end(),
                   [](const Function& f) { return f.is_lambda; });
  ASSERT_NE(lambda, unit.functions.end());
  ASSERT_EQ(lambda->params.size(), 1u);
  EXPECT_EQ(lambda->params[0].name, "comm");
  ASSERT_EQ(lambda->body.size(), 1u);
  ASSERT_EQ(lambda->body[0].calls.size(), 1u);
  EXPECT_EQ(lambda->body[0].calls[0].method, "Barrier");
}

// ===========================================================================
// Stage 3: dataflow
// ===========================================================================

const Function& OnlyFn(const Unit& unit) {
  EXPECT_EQ(unit.functions.size(), 1u);
  return unit.functions.front();
}

TEST(DataflowTest, RankTaintPropagatesThroughDerivedVars) {
  const Unit unit = ParseSource(R"cc(
void f(mpi::Comm& comm, int iters) {
  const int right = (comm.rank() + 1) % comm.size();
  const int partner = right ^ 1;
  int plain = iters * 2;
}
)cc");
  const FunctionFlow flow(OnlyFn(unit));
  EXPECT_TRUE(flow.IsRankDerived("right"));
  EXPECT_TRUE(flow.IsRankDerived("partner"));  // via right, one hop
  EXPECT_FALSE(flow.IsRankDerived("plain"));
  EXPECT_FALSE(flow.IsRankDerived("iters"));
}

TEST(DataflowTest, WideSizesAndIntMaxGuard) {
  const Unit unit = ParseSource(R"cc(
void g(mpi::File* file) {
  const Bytes chunk = file->size() / 4;
  auto len = chunk * 2;
  int small = 3;
}
)cc");
  const FunctionFlow flow(OnlyFn(unit));
  EXPECT_TRUE(flow.Is64BitSized("chunk"));
  EXPECT_TRUE(flow.Is64BitSized("len"));  // via chunk
  EXPECT_FALSE(flow.Is64BitSized("small"));
  EXPECT_FALSE(flow.HasIntMaxGuard());

  const Unit guarded = ParseSource(R"cc(
void g(Bytes len) {
  if (len > static_cast<Bytes>(INT32_MAX)) return;
}
)cc");
  EXPECT_TRUE(FunctionFlow(OnlyFn(guarded)).HasIntMaxGuard());
}

// ===========================================================================
// Rules: seeded violation + false-positive guard per rule
// ===========================================================================

std::vector<LintFinding> Findings(const std::string& source) {
  return LintSource("t.cc", source);
}

int CountRule(const std::vector<LintFinding>& findings, const char* rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const LintFinding& f) { return f.rule == rule; }));
}

TEST(LintRuleTest, StringsAndCommentsNeverTriggerRules) {
  // Both lines defeated the old substring scanner: "Send(...rank+1...)"
  // only ever appears inside a literal / a comment.
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  // comm.Send(buf, n, rank + 1, 0);
  Log("calling Send(rank+1)");
  comm.Recv(buf, n, src, 0);
}
)cc");
  EXPECT_EQ(findings.size(), 0u) << RenderLintReport(findings);
}

TEST(LintRuleTest, CollectiveInDivergentBranchFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  }
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintRuleTest, DivergentEarlyReturnBeforeCollectiveFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int me = comm.rank();
  if (me > 0) return;
  comm.Barrier();
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 1)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, UniformBranchAndStatusGuardAreClean) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm, mpi::File* file, int iters) {
  if (iters > 0) {
    comm.Barrier();
  }
  const Bytes offset = static_cast<Bytes>(comm.rank()) * 64;
  auto part = file->ReadAtAll(comm, offset, 64);
  if (!part.ok()) return;  // rank-tainted value, uniform error outcome
  comm.Barrier();
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, IntCountOverflowFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm, mpi::File* file) {
  const Bytes len = file->size() / comm.size();
  auto part = file->ReadLinesAtAll(comm, 0, static_cast<std::int32_t>(len));
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-int-count-overflow"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("len"), std::string::npos);
}

TEST(LintRuleTest, IntCountWithGuardOrNarrowSourceIsClean) {
  const auto guarded = Findings(R"cc(
void f(mpi::Comm& comm, mpi::File* file) {
  const Bytes len = file->size() / comm.size();
  if (len > static_cast<Bytes>(INT32_MAX)) return;
  auto part = file->ReadLinesAtAll(comm, 0, static_cast<std::int32_t>(len));
}
)cc");
  EXPECT_EQ(CountRule(guarded, "mpi-int-count-overflow"), 0)
      << RenderLintReport(guarded);
  // Narrowing an int-typed value is not the Fig. 4 failure.
  const auto narrow = Findings(R"cc(
void f(mpi::Comm& comm, int lines) {
  comm.Send(buf, static_cast<std::int32_t>(lines), 1, 0);
}
)cc");
  EXPECT_EQ(CountRule(narrow, "mpi-int-count-overflow"), 0)
      << RenderLintReport(narrow);
}

TEST(LintRuleTest, TagMismatchFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  comm.Send(out, 64, dest, 7);
  comm.Recv(in, 64, src, 9);
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-tag-mismatch"), 1)
      << RenderLintReport(findings);
  EXPECT_NE(findings[0].message.find("7"), std::string::npos);
  EXPECT_NE(findings[0].message.find("9"), std::string::npos);
}

TEST(LintRuleTest, MatchingOrVariableTagsAreClean) {
  const auto matching = Findings(R"cc(
void f(mpi::Comm& comm) {
  comm.Send(out, 64, dest, 7);
  comm.Recv(in, 64, src, 7);
}
)cc");
  EXPECT_EQ(CountRule(matching, "mpi-tag-mismatch"), 0);
  // One variable tag makes the sets unprovable: stay silent.
  const auto variable = Findings(R"cc(
void f(mpi::Comm& comm, int tag) {
  comm.Send(out, 64, dest, tag);
  comm.Recv(in, 64, src, 9);
}
)cc");
  EXPECT_EQ(CountRule(variable, "mpi-tag-mismatch"), 0);
}

TEST(LintRuleTest, OmpMissingPrivateFlagged) {
  const auto findings = Findings(R"cc(
void f(int n) {
  int tmp = 0;
  #pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    tmp = i * 2;
    Use(tmp);
  }
}
)cc");
  ASSERT_EQ(CountRule(findings, "omp-missing-private"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("tmp"), std::string::npos);
}

TEST(LintRuleTest, OmpPrivateClauseOrLocalDeclIsClean) {
  const auto clause = Findings(R"cc(
void f(int n) {
  int tmp = 0;
  #pragma omp parallel for private(tmp)
  for (int i = 0; i < n; ++i) {
    tmp = i * 2;
    Use(tmp);
  }
}
)cc");
  EXPECT_EQ(CountRule(clause, "omp-missing-private"), 0)
      << RenderLintReport(clause);
  const auto local = Findings(R"cc(
void f(int n) {
  #pragma omp parallel for
  for (int i = 0; i < n; ++i) {
    int tmp = i * 2;
    Use(tmp);
  }
}
)cc");
  EXPECT_EQ(CountRule(local, "omp-missing-private"), 0)
      << RenderLintReport(local);
}

TEST(LintRuleTest, ShmemPutWithoutQuietFlagged) {
  const auto findings = Findings(R"cc(
void f(shmem::Pe& pe) {
  pe.PutValue(slots.at(0), 1, 2);
  int v = pe.GetValue(slots.at(0), 2);
}
)cc");
  ASSERT_EQ(CountRule(findings, "shmem-put-without-quiet"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("slots"), std::string::npos);
}

TEST(LintRuleTest, ShmemQuietBetweenPutAndGetIsClean) {
  const auto quiet = Findings(R"cc(
void f(shmem::Pe& pe) {
  pe.PutValue(slots.at(0), 1, 2);
  pe.Quiet();
  int v = pe.GetValue(slots.at(0), 2);
}
)cc");
  EXPECT_EQ(CountRule(quiet, "shmem-put-without-quiet"), 0)
      << RenderLintReport(quiet);
  // Reading a different symmetric object needs no fence.
  const auto other = Findings(R"cc(
void f(shmem::Pe& pe) {
  pe.PutValue(slots.at(0), 1, 2);
  int v = pe.GetValue(flags.at(0), 2);
}
)cc");
  EXPECT_EQ(CountRule(other, "shmem-put-without-quiet"), 0)
      << RenderLintReport(other);
}

TEST(LintRuleTest, SymmetricSendViaDerivedPartnerFlagged) {
  // The deadlock pair where the rank arithmetic hides in an initializer.
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  comm.Send(out, 64, partner, 0);
  comm.Recv(in, 64, partner, 0);
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-blocking-symmetric-send"), 1)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, SparkMultipleActionsWithoutPersistFlagged) {
  const auto findings = Findings(R"cc(
void f(spark::SparkContext& sc) {
  auto doubled = sc.Parallelize(data, 4).Map([](int x) { return 2 * x; });
  auto first = doubled.Count();
  auto second = doubled.Count();
}
)cc");
  ASSERT_EQ(CountRule(findings, "spark-missing-persist"), 1)
      << RenderLintReport(findings);
  EXPECT_NE(findings[0].message.find("2 actions"), std::string::npos);
}

TEST(LintRuleTest, CkptUnderRankDerivedConditionFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm, ckpt::CheckpointCoordinator& coord) {
  const int rank = comm.rank();
  comm.Barrier();
  if (rank == 0) {
    coord.Checkpoint(comm.ctx(), rank, rank / 4, 3, state);
  }
}
)cc");
  ASSERT_EQ(CountRule(findings, "ckpt-outside-collective"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("never commit"), std::string::npos);
}

TEST(LintRuleTest, CkptAtUniformBoundaryIsClean) {
  // The correct pattern (every rank, right after the collective) and a
  // uniform condition (iteration count) must both stay silent.
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm, ckpt::CheckpointCoordinator& coord, int iters) {
  const int rank = comm.rank();
  for (int i = 0; i < iters; ++i) {
    comm.Allreduce<double>(contrib, ranks);
    coord.Checkpoint(comm.ctx(), rank, rank / 4, i, state);
  }
  if (iters > 0) {
    coord.Checkpoint(comm.ctx(), rank, rank / 4, iters, state);
  }
}
)cc");
  EXPECT_EQ(CountRule(findings, "ckpt-outside-collective"), 0)
      << RenderLintReport(findings);
}

// ===========================================================================
// Stage 4: call graph + function summaries
// ===========================================================================

TEST(CallGraphTest, SummariesCyclesLambdasAndOverloads) {
  Program prog = Program::Analyze({ProgramSource{"a.cc", R"cc(
void Ping(int depth) {
  if (depth > 0) {
    Pong(depth - 1);
  }
  g.Barrier();
}
void Pong(int depth) { Ping(depth); }
void Host(Pool& pool) {
  pool.Submit([&] { q.Allreduce(a, b); });
}
void Narrow(int n) {}
void Narrow(int n, int m) { g.Bcast(buf, n); }
void CallsTwoArg() { Narrow(1, 2); }
void CallsOneArg() { Narrow(1); }
)cc"}});
  // Cycle: both members transitively reach the collective; the sequence
  // is not provable through recursion.
  const int ping = prog.Find("Ping");
  const int pong = prog.Find("Pong");
  ASSERT_GE(ping, 0);
  ASSERT_GE(pong, 0);
  EXPECT_TRUE(prog.fns()[ping].summary.calls_collective);
  EXPECT_TRUE(prog.fns()[pong].summary.calls_collective);
  EXPECT_FALSE(prog.fns()[pong].summary.sequence_known);

  // Lambda containment: the deferred lambda's collective counts as the
  // host's (conservative — deferred means "may run").
  const int host = prog.Find("Host");
  ASSERT_GE(host, 0);
  EXPECT_TRUE(prog.fns()[host].summary.calls_collective);
  EXPECT_EQ(prog.fns()[host].summary.collective_name, "Allreduce");

  // Overload resolution prefers matching arity: only the 2-arg Narrow
  // hides a collective.
  const int two = prog.Find("CallsTwoArg");
  const int one = prog.Find("CallsOneArg");
  ASSERT_GE(two, 0);
  ASSERT_GE(one, 0);
  EXPECT_TRUE(prog.fns()[two].summary.calls_collective);
  EXPECT_FALSE(prog.fns()[one].summary.calls_collective);
}

// ===========================================================================
// Interprocedural rules: the PR-3 seeds, pushed through a wrapper
// ===========================================================================

TEST(LintRuleTest, WrapperHiddenCollectiveInDivergentBranchFlagged) {
  // Same seed as CollectiveInDivergentBranchFlagged, with the Barrier
  // hidden one call deep: identical rule and severity, plus a related
  // location pointing into the wrapper.
  const auto findings = Findings(R"cc(
void SyncAll(mpi::Comm& comm) {
  comm.Barrier();
}
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    SyncAll(comm);
  }
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 7);  // the call site, not the wrapper
  EXPECT_NE(findings[0].message.find("Barrier"), std::string::npos);
  ASSERT_EQ(findings[0].related.size(), 1u);
  EXPECT_EQ(findings[0].related[0].line, 3);  // the Barrier inside SyncAll
}

TEST(LintRuleTest, WrapperCalledUniformlyIsClean) {
  const auto findings = Findings(R"cc(
void SyncAll(mpi::Comm& comm) {
  comm.Barrier();
}
void f(mpi::Comm& comm, int iters) {
  if (iters > 0) {
    SyncAll(comm);
  }
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, WrapperHiddenIntCountOverflowFlaggedAcrossFiles) {
  // The Fig. 4 narrowing hides inside a helper in another file; the
  // caller passes a 64-bit size. One finding, at the caller.
  const auto findings = LintProgram({
      ProgramSource{"io_util.cc", R"cc(
void ReadChunk(mpi::Comm& comm, mpi::File* file, Bytes n) {
  auto part = file->ReadAtAll(comm, 0, static_cast<std::int32_t>(n));
}
)cc"},
      ProgramSource{"caller.cc", R"cc(
void f(mpi::Comm& comm, mpi::File* file) {
  const Bytes len = file->size() / comm.size();
  ReadChunk(comm, file, len);
}
)cc"},
  });
  ASSERT_EQ(CountRule(findings, "mpi-int-count-overflow"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].file, "caller.cc");
  EXPECT_EQ(findings[0].line, 4);
  ASSERT_EQ(findings[0].related.size(), 1u);
  EXPECT_EQ(findings[0].related[0].file, "io_util.cc");
  EXPECT_EQ(findings[0].related[0].line, 3);  // the cast site
}

TEST(LintRuleTest, WrapperCountWithCallerGuardIsClean) {
  const auto findings = Findings(R"cc(
void ReadChunk(mpi::Comm& comm, mpi::File* file, Bytes n) {
  auto part = file->ReadAtAll(comm, 0, static_cast<std::int32_t>(n));
}
void f(mpi::Comm& comm, mpi::File* file) {
  const Bytes len = file->size() / comm.size();
  if (len > static_cast<Bytes>(INT32_MAX)) return;
  ReadChunk(comm, file, len);
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-int-count-overflow"), 0)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, WrapperHiddenSymmetricSendFlagged) {
  // The deadlocking exchange from SymmetricSendViaDerivedPartnerFlagged,
  // with the Send/Recv pair hidden in a helper and the rank arithmetic
  // at the call site.
  const auto findings = Findings(R"cc(
void Exchange(mpi::Comm& comm, int peer) {
  comm.Send(out, 64, peer, 0);
  comm.Recv(in, 64, peer, 0);
}
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  Exchange(comm, partner);
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-blocking-symmetric-send"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 8);  // the Exchange() call site
  ASSERT_EQ(findings[0].related.size(), 1u);
  EXPECT_EQ(findings[0].related[0].line, 3);  // the Send inside Exchange
}

TEST(LintRuleTest, WrapperSendWithUniformPeerIsClean) {
  const auto findings = Findings(R"cc(
void Exchange(mpi::Comm& comm, int peer) {
  comm.Send(out, 64, peer, 0);
  comm.Recv(in, 64, peer, 0);
}
void f(mpi::Comm& comm, int root) {
  Exchange(comm, root);
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-blocking-symmetric-send"), 0)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, RankReturningHelperTaintsCallers) {
  // The taint-knowledge fixpoint: Partner() returns a rank-derived
  // value, so the branch in f is divergent even though the word "rank"
  // never appears there.
  const auto findings = Findings(R"cc(
int Partner(mpi::Comm& comm) {
  return comm.rank() ^ 1;
}
void f(mpi::Comm& comm) {
  if (Partner(comm) == 0) {
    comm.Barrier();
  }
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 1)
      << RenderLintReport(findings);
}

// ===========================================================================
// New rules: seeded violation + false-positive guard per rule
// ===========================================================================

TEST(LintRuleTest, CollectiveMismatchFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  } else {
    comm.Allreduce(a, b);
  }
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-collective-mismatch"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 3);  // the branch, not either collective
  EXPECT_NE(findings[0].message.find("Barrier"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Allreduce"), std::string::npos);
  // The sequence mismatch subsumes the per-site divergence reports.
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, EquallySequencedArmsAreClean) {
  // PR-3 flagged both arms here; provably equal sequences are symmetric
  // and must stay silent now.
  const auto findings = Findings(R"cc(
void DoSync(mpi::Comm& comm) {
  comm.Barrier();
}
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  } else {
    DoSync(comm);
  }
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-collective-mismatch"), 0)
      << RenderLintReport(findings);
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, CollectiveInLoopWithDivergentBoundFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  for (int i = 0; i < comm.rank(); ++i) {
    comm.Barrier();
  }
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-collective-in-loop-divergent-bound"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].line, 3);  // the loop header
}

TEST(LintRuleTest, CollectiveInUniformLoopIsClean) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm, int iters) {
  for (int i = 0; i < iters; ++i) {
    comm.Allreduce(a, b);
  }
}
)cc");
  EXPECT_EQ(CountRule(findings, "mpi-collective-in-loop-divergent-bound"), 0)
      << RenderLintReport(findings);
}

// ===========================================================================
// Output formats + baseline
// ===========================================================================

LintFinding SampleFinding() {
  LintFinding f;
  f.rule = "mpi-tag-mismatch";
  f.file = "examples/a.cc";
  f.line = 12;
  f.message = "tags 1 vs 2";
  f.severity = Severity::kError;
  return f;
}

TEST(LintOutputTest, SeverityNamesAndWorst) {
  EXPECT_STREQ(SeverityName(Severity::kNote), "note");
  EXPECT_STREQ(SeverityName(Severity::kWarning), "warning");
  EXPECT_STREQ(SeverityName(Severity::kError), "error");
  std::vector<LintFinding> fs{{"r", "f", 1, "m", Severity::kWarning, "", {},
                               ""}};
  EXPECT_EQ(WorstSeverity({}), Severity::kNote);
  EXPECT_EQ(WorstSeverity(fs), Severity::kWarning);
  fs.push_back(SampleFinding());
  EXPECT_EQ(WorstSeverity(fs), Severity::kError);
}

TEST(LintOutputTest, SarifGolden) {
  const std::string sarif = RenderSarif({SampleFinding()});
  // Required SARIF 2.1.0 envelope.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"pstk-lint\""), std::string::npos);
  // Every registered rule is described in tool.driver.rules.
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + std::string(r.slug) + "\""),
              std::string::npos)
        << r.slug;
  }
  // The result object, golden: mpi-tag-mismatch is rule index 7 (the
  // registry is sorted by slug).
  EXPECT_NE(
      sarif.find(
          "{\"ruleId\": \"mpi-tag-mismatch\", \"ruleIndex\": 7, "
          "\"level\": \"error\", \"message\": {\"text\": \"tags 1 vs 2\"}, "
          "\"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
          "{\"uri\": \"examples/a.cc\"}, \"region\": {\"startLine\": 12}}}]}"),
      std::string::npos)
      << sarif;
}

TEST(LintOutputTest, RelatedLocationsRendered) {
  LintFinding f = SampleFinding();
  f.rule = "mpi-collective-in-divergent-branch";
  f.related.push_back({"src/wrap.cc", 9, "collective Barrier() reached "
                                        "through SyncAll()"});

  // Text report: an indented `see:` evidence line under the finding.
  const std::string text = RenderLintReport({f});
  EXPECT_NE(text.find("see: src/wrap.cc:9: collective Barrier() reached "
                      "through SyncAll()"),
            std::string::npos)
      << text;

  // SARIF 2.1.0: relatedLocations with physicalLocation + message.
  const std::string sarif = RenderSarif({f});
  EXPECT_NE(sarif.find("\"relatedLocations\": [{\"physicalLocation\": "
                       "{\"artifactLocation\": {\"uri\": \"src/wrap.cc\"}, "
                       "\"region\": {\"startLine\": 9}}, \"message\": "
                       "{\"text\": \"collective Barrier() reached through "
                       "SyncAll()\"}}]"),
            std::string::npos)
      << sarif;
  EXPECT_EQ(RenderSarif({SampleFinding()}).find("relatedLocations"),
            std::string::npos);
}

TEST(LintBaselineTest, FormatSortsEntriesAndKeepsCustomHeader) {
  LintFinding b = SampleFinding();
  b.file = "examples/b.cc";
  LintFinding a = SampleFinding();
  a.file = "examples/a.cc";
  // Entries come out sorted (and deduplicated) regardless of input order.
  const std::string def = FormatBaseline({b, a, a});
  const std::size_t first = def.find("mpi-tag-mismatch examples/a.cc\n");
  const std::size_t second = def.find("mpi-tag-mismatch examples/b.cc\n");
  ASSERT_NE(first, std::string::npos) << def;
  ASSERT_NE(second, std::string::npos) << def;
  EXPECT_LT(first, second);
  // The duplicated finding collapses to one entry.
  std::size_t occurrences = 0;
  for (std::size_t at = def.find("examples/a.cc"); at != std::string::npos;
       at = def.find("examples/a.cc", at + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);

  // A custom header (the previous baseline's comment block) replaces the
  // default one, so regeneration diffs cleanly.
  const std::string custom =
      FormatBaseline({a}, "# triaged 2026-08: intentional demo bug\n");
  EXPECT_EQ(custom,
            "# triaged 2026-08: intentional demo bug\n"
            "mpi-tag-mismatch examples/a.cc\n");
}

TEST(LintBaselineTest, RoundTripSuppressesExactlyTheFindings) {
  std::vector<LintFinding> findings{SampleFinding()};
  LintFinding other;
  other.rule = "spark-missing-persist";
  other.file = "bench/b.cc";
  other.line = 4;
  other.message = "m";
  findings.push_back(other);

  const std::string text = FormatBaseline(findings);
  const auto entries = ParseBaseline(text);
  ASSERT_EQ(entries.size(), 2u);
  int suppressed = 0;
  const auto kept = ApplyBaseline(findings, entries, &suppressed);
  EXPECT_EQ(kept.size(), 0u);
  EXPECT_EQ(suppressed, 2);
}

TEST(LintBaselineTest, SuffixMatchRespectsPathComponents) {
  const auto entries = ParseBaseline(
      "# comment line\n"
      "mpi-tag-mismatch fig4.cc  # trailing comment\n");
  ASSERT_EQ(entries.size(), 1u);

  LintFinding in_dir = SampleFinding();
  in_dir.file = "/root/repo/bench/fig4.cc";
  LintFinding lookalike = SampleFinding();
  lookalike.file = "/root/repo/bench/notfig4.cc";
  int suppressed = 0;
  const auto kept = ApplyBaseline({in_dir, lookalike}, entries, &suppressed);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].file, "/root/repo/bench/notfig4.cc");
  EXPECT_EQ(suppressed, 1);
}

TEST(LintBaselineTest, WrongRuleOrPathDoesNotSuppress) {
  const auto entries =
      ParseBaseline("spark-missing-persist examples/a.cc\n");
  const auto kept = ApplyBaseline({SampleFinding()}, entries, nullptr);
  EXPECT_EQ(kept.size(), 1u);  // rule differs, finding survives
}

// ===========================================================================
// Tokenizer regressions: custom raw delimiters + digit separators
// ===========================================================================

TEST(TokenTest, CustomRawDelimiterScansToItsOwnTerminator) {
  // A custom delimiter means `)"` inside the literal does NOT end it —
  // only `)xyz"` does. The contents must stay opaque either way.
  const auto tokens = Tokenize(
      "auto a = R\"xyz(comm.Send(buf)\" still inside)xyz\";\n"
      "int after = 1;\n");
  for (const Token& t : tokens) {
    EXPECT_FALSE(t.IsIdent("Send")) << t.text;
    EXPECT_FALSE(t.IsIdent("inside")) << t.text;
  }
  const auto after = std::find_if(
      tokens.begin(), tokens.end(),
      [](const Token& t) { return t.IsIdent("after"); });
  ASSERT_NE(after, tokens.end());
  EXPECT_EQ(after->line, 2);
}

TEST(TokenTest, MalformedRawPrefixFallsBackToOrdinaryString) {
  // `R"<27 chars>(` is not a valid raw literal (delimiter too long); the
  // R must lex as an identifier and the quote as an ordinary string, not
  // scan unbounded for a matching terminator that never comes.
  const auto tokens = Tokenize(
      "auto a = R\"aaaaaaaaaaaaaaaaaaaaaaaaaaa ok\";\n"
      "int after = 1;\n");
  const auto after = std::find_if(
      tokens.begin(), tokens.end(),
      [](const Token& t) { return t.IsIdent("after"); });
  ASSERT_NE(after, tokens.end());
  EXPECT_EQ(after->line, 2);
}

TEST(TokenTest, DigitSeparatorsDoNotSpliceTokens) {
  // `1'000'000` is one number; `2'` (a quote not followed by a digit)
  // must not swallow the following character literal apostrophe.
  const auto big = Tokenize("n = 1'000'000;");
  const auto num = std::find_if(
      big.begin(), big.end(),
      [](const Token& t) { return t.kind == TokKind::kNumber; });
  ASSERT_NE(num, big.end());
  EXPECT_EQ(num->text, "1'000'000");
  EXPECT_EQ(TokenIntValue(*num), std::optional<long long>(1000000));

  const auto edge = Tokenize("f(1, 'x'); int after = 1;");
  const auto after = std::find_if(
      edge.begin(), edge.end(),
      [](const Token& t) { return t.IsIdent("after"); });
  EXPECT_NE(after, edge.end());
}

// ===========================================================================
// Deadlock machinery: expression evaluator + rendezvous scheduler
// ===========================================================================

TEST(DeadlockSimTest, EvalIntExprGrammar) {
  const auto resolve = [](const std::string& name)
      -> std::optional<long long> {
    if (name == "r") return 3;
    if (name == "N") return 4;
    return std::nullopt;
  };
  const auto eval = [&](const std::string& e) { return EvalIntExpr(e, resolve); };
  EXPECT_EQ(eval("(r+1)%N"), std::optional<long long>(0));
  EXPECT_EQ(eval("r^1"), std::optional<long long>(2));
  EXPECT_EQ(eval("r==0?10:20"), std::optional<long long>(20));
  EXPECT_EQ(eval("static_cast<std::int64_t>(r)*2"),
            std::optional<long long>(6));
  EXPECT_EQ(eval("2'000+1"), std::optional<long long>(2001));
  EXPECT_EQ(eval("!(r<N)||r/2==1"), std::optional<long long>(1));
  // Unknowns stay unknown: unresolved identifier, call syntax, div by 0.
  EXPECT_EQ(eval("x+1"), std::nullopt);
  EXPECT_EQ(eval("f(r)"), std::nullopt);
  EXPECT_EQ(eval("r/(r-3)"), std::nullopt);
}

CommOp Op(CommOp::Kind kind, int peer, int tag = 0) {
  CommOp op;
  op.kind = kind;
  op.peer = peer;
  op.tag = tag;
  return op;
}

TEST(DeadlockSimTest, HeadToHeadSendsDeadlock) {
  using K = CommOp::Kind;
  const auto rep = SimulateRendezvous({
      {Op(K::kSend, 1), Op(K::kRecv, 1)},
      {Op(K::kSend, 0), Op(K::kRecv, 0)},
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_TRUE(rep.proper_cycle);
  EXPECT_TRUE(rep.all_sends);
  EXPECT_FALSE(rep.involves_collective);
  ASSERT_EQ(rep.ranks.size(), 2u);
  EXPECT_EQ(rep.ops[0].kind, K::kSend);
}

TEST(DeadlockSimTest, RingSendsDeadlockAtThreeRanks) {
  using K = CommOp::Kind;
  std::vector<std::vector<CommOp>> seqs;
  for (int r = 0; r < 3; ++r) {
    seqs.push_back({Op(K::kSend, (r + 1) % 3), Op(K::kRecv, (r + 2) % 3)});
  }
  const auto rep = SimulateRendezvous(seqs);
  EXPECT_TRUE(rep.deadlock);
  EXPECT_TRUE(rep.all_sends);
  EXPECT_EQ(rep.ranks.size(), 3u);
}

TEST(DeadlockSimTest, RecvBeforeSendIsAWaitCycleNotAllSends) {
  using K = CommOp::Kind;
  const auto rep = SimulateRendezvous({
      {Op(K::kRecv, 1), Op(K::kSend, 1)},
      {Op(K::kRecv, 0), Op(K::kSend, 0)},
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_TRUE(rep.proper_cycle);
  EXPECT_FALSE(rep.all_sends);
  EXPECT_EQ(rep.ops[0].kind, K::kRecv);
}

TEST(DeadlockSimTest, SafeOrderingsDrain) {
  using K = CommOp::Kind;
  // Sendrecv exchange.
  CommOp xchg = Op(K::kSendrecv, 1);
  xchg.peer2 = 1;
  CommOp xchg2 = Op(K::kSendrecv, 0);
  xchg2.peer2 = 0;
  EXPECT_FALSE(SimulateRendezvous({{xchg}, {xchg2}}).deadlock);
  // Staggered order: one side sends first.
  EXPECT_FALSE(SimulateRendezvous({
      {Op(K::kSend, 1), Op(K::kRecv, 1)},
      {Op(K::kRecv, 0), Op(K::kSend, 0)},
  }).deadlock);
  // Isend posts without blocking; Wait drains after the Recv matched.
  EXPECT_FALSE(SimulateRendezvous({
      {Op(K::kIsend, 1), Op(K::kRecv, 1), Op(K::kWait, -1)},
      {Op(K::kIsend, 0), Op(K::kRecv, 0), Op(K::kWait, -1)},
  }).deadlock);
}

TEST(DeadlockSimTest, RecvAgainstExitedPeerIsChainNotCycle) {
  using K = CommOp::Kind;
  const auto rep = SimulateRendezvous({{Op(K::kRecv, 1)}, {}});
  EXPECT_TRUE(rep.deadlock);
  EXPECT_FALSE(rep.proper_cycle);
  ASSERT_EQ(rep.ranks.size(), 1u);
  EXPECT_EQ(rep.ranks[0], 0);
}

TEST(DeadlockSimTest, CollectivesRunLockstepOrSuppress) {
  using K = CommOp::Kind;
  CommOp barrier = Op(K::kCollective, -1);
  barrier.label = "Barrier";
  // All ranks at the same collective: it completes.
  EXPECT_FALSE(SimulateRendezvous({{barrier}, {barrier}}).deadlock);
  // One rank at a collective, the other in a Recv: stuck, but the
  // divergence rules own collective shapes — the report says so.
  const auto rep = SimulateRendezvous({{barrier}, {Op(K::kRecv, 0)}});
  EXPECT_TRUE(rep.deadlock);
  EXPECT_TRUE(rep.involves_collective);
}

// ===========================================================================
// Rules: static deadlock detection (rendezvous + wait cycles)
// ===========================================================================

TEST(LintRuleTest, RendezvousExchangeDeadlockFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  comm.Send(out, 131072, partner, 3);
  comm.Recv(in, 131072, partner, 3);
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-rendezvous-deadlock"), 1)
      << RenderLintReport(findings);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const LintFinding& f) { return f.rule == "mpi-rendezvous-deadlock"; });
  EXPECT_EQ(it->severity, Severity::kError);
  EXPECT_EQ(it->line, 4);
  // The message names the world size and walks the cycle; both endpoints
  // appear as related locations (static mirror of the runtime explainer).
  EXPECT_NE(it->message.find("with 2 ranks"), std::string::npos)
      << it->message;
  EXPECT_NE(it->message.find("rank 0 blocks in Send()"), std::string::npos);
  EXPECT_EQ(it->related.size(), 2u);
}

TEST(LintRuleTest, RingSendDeadlockFlagged) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  comm.Send(out, 131072, next, 0);
  comm.Recv(in, 131072, prev, 0);
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-rendezvous-deadlock"), 1)
      << RenderLintReport(findings);
}

TEST(LintRuleTest, RecvBeforeSendFlaggedAsWaitCycle) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  comm.Recv(in, 64, partner, 0);
  comm.Send(out, 64, partner, 0);
}
)cc");
  ASSERT_EQ(CountRule(findings, "mpi-wait-cycle"), 1)
      << RenderLintReport(findings);
  EXPECT_EQ(CountRule(findings, "mpi-rendezvous-deadlock"), 0);
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const LintFinding& f) { return f.rule == "mpi-wait-cycle"; });
  EXPECT_NE(it->message.find("blocks in Recv()"), std::string::npos)
      << it->message;
}

TEST(LintRuleTest, SafeExchangeOrdersProduceNoDeadlockFindings) {
  // Sendrecv fusion.
  const auto fused = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  comm.Sendrecv(out, 131072, partner, in, 131072, partner, 3);
}
)cc");
  EXPECT_EQ(CountRule(fused, "mpi-rendezvous-deadlock"), 0)
      << RenderLintReport(fused);
  EXPECT_EQ(CountRule(fused, "mpi-wait-cycle"), 0);
  // Isend keeps one side nonblocking.
  const auto isend = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  auto req = comm.Isend(out, 131072, partner, 0);
  comm.Recv(in, 131072, partner, 0);
  comm.Wait(req);
}
)cc");
  EXPECT_EQ(CountRule(isend, "mpi-rendezvous-deadlock"), 0)
      << RenderLintReport(isend);
  EXPECT_EQ(CountRule(isend, "mpi-wait-cycle"), 0);
}

TEST(LintRuleTest, DeadlockDetectionBailsOnUnknowns) {
  // Unevaluable peer: stay quiet rather than guess.
  const auto unknown = Findings(R"cc(
void f(mpi::Comm& comm, int peer) {
  comm.Send(out, 131072, peer, 0);
  comm.Recv(in, 131072, peer, 0);
}
)cc");
  EXPECT_EQ(CountRule(unknown, "mpi-rendezvous-deadlock"), 0)
      << RenderLintReport(unknown);
  EXPECT_EQ(CountRule(unknown, "mpi-wait-cycle"), 0);
  // Point-to-point under a loop: the order is not statically known.
  const auto looped = Findings(R"cc(
void f(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  for (int i = 0; i < 4; ++i) {
    comm.Send(out, 131072, partner, 0);
    comm.Recv(in, 131072, partner, 0);
  }
}
)cc");
  EXPECT_EQ(CountRule(looped, "mpi-rendezvous-deadlock"), 0)
      << RenderLintReport(looped);
  EXPECT_EQ(CountRule(looped, "mpi-wait-cycle"), 0);
}

TEST(LintRuleTest, ParityStaggeredExchangeIsClean) {
  // The order mpi-rendezvous-deadlock's fix hint recommends: even ranks
  // send first. The per-rank simulation drains it at 2 and 4 ranks, so
  // the textual symmetric-send check stays quiet as well.
  const auto findings = Findings(R"cc(
void parity(mpi::Comm& comm) {
  const int partner = comm.rank() ^ 1;
  if (comm.rank() % 2 == 0) {
    comm.Send(out, 131072, partner, 0);
    comm.Recv(in, 131072, partner, 0);
  } else {
    comm.Recv(in, 131072, partner, 0);
    comm.Send(out, 131072, partner, 0);
  }
}
)cc");
  EXPECT_TRUE(findings.empty()) << RenderLintReport(findings);
}

// ===========================================================================
// Path-exact uniformity gate
// ===========================================================================

TEST(LintRuleTest, UniformPathsThroughDivergentBranchesAreClean) {
  // Every rank executes [Barrier] on every path, so the rank-divergent
  // branches are harmless — the syntactic heuristic used to flag all
  // three of these shapes.
  const auto both_arms = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  } else {
    comm.Barrier();
  }
}
)cc");
  EXPECT_EQ(CountRule(both_arms, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(both_arms);
  EXPECT_EQ(CountRule(both_arms, "mpi-collective-mismatch"), 0);

  const auto early_return = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Bcast(buf, 64, 0);
    return;
  }
  comm.Bcast(buf, 64, 0);
}
)cc");
  EXPECT_EQ(CountRule(early_return, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(early_return);

  const auto elseif_chain = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
    return;
  } else if (comm.rank() == 1) {
    comm.Barrier();
    return;
  }
  comm.Barrier();
}
)cc");
  EXPECT_EQ(CountRule(elseif_chain, "mpi-collective-in-divergent-branch"), 0)
      << RenderLintReport(elseif_chain);
}

TEST(LintRuleTest, NonUniformPathsStillFlagged) {
  // One path has the Barrier, the other does not: genuinely divergent.
  const auto skipped = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  }
  compute();
}
)cc");
  EXPECT_EQ(CountRule(skipped, "mpi-collective-in-divergent-branch"), 1)
      << RenderLintReport(skipped);
}

TEST(LintRuleTest, ReturnInsideLoopMakesCalleeSequenceUnknown) {
  // Rank i returns inside the loop before Drop's Barrier, so Drop's paths
  // run [] or [Barrier]: the Drop call is not provably the else-arm's
  // Barrier, and Caller's branch is divergent.
  const std::string source = R"cc(
void Drop(mpi::Comm& comm, int n) {
  for (int i = 0; i < n; ++i) {
    if (comm.rank() == i) return;
  }
  comm.Barrier();
}
void Caller(mpi::Comm& comm, int n) {
  if (comm.rank() == 0) {
    Drop(comm, n);
  } else {
    comm.Barrier();
  }
}
)cc";
  const Program prog = Program::Analyze({ProgramSource{"t.cc", source}});
  EXPECT_FALSE(prog.fns()[static_cast<std::size_t>(prog.Find("Drop"))]
                   .summary.sequence_known);
  const auto findings = Findings(source);
  const auto at = [&](int line) {
    return std::count_if(findings.begin(), findings.end(),
                         [&](const LintFinding& f) {
                           return f.line == line &&
                                  f.rule ==
                                      "mpi-collective-in-divergent-branch";
                         });
  };
  EXPECT_EQ(at(4), 1) << RenderLintReport(findings);  // Drop's return
  EXPECT_EQ(at(10), 1) << RenderLintReport(findings);  // the Drop call
  EXPECT_EQ(at(12), 1) << RenderLintReport(findings);  // the else Barrier
}

TEST(LintRuleTest, UniformGateHasNoPathBudget) {
  // Ten sequential branches make 1,024 paths, and every one of them runs
  // [Barrier]: the walk proves it without enumerating them.
  std::string source = "void f(mpi::Comm& comm, int n) {\n";
  for (int i = 0; i < 9; ++i) {
    source += "  if (n > " + std::to_string(i) + ") compute(" +
              std::to_string(i) + ");\n";
  }
  source +=
      "  if (comm.rank() == 0) { comm.Barrier(); return; }\n"
      "  comm.Barrier();\n"
      "}\n";
  const auto findings = Findings(source);
  EXPECT_TRUE(findings.empty()) << RenderLintReport(findings);
}

// ===========================================================================
// Collective-sequence walker vs a brute-force path enumeration
// ===========================================================================
//
// The reference enumerates every path through a function body — loops run
// zero or one time, with the loop test before and after the body; a
// `return` ends its path — and applies the step rules to each path alone:
// a collective, or a callee with a nonempty sequence, inside a loop body
// is unprovable; so is a collective-reaching callee whose sequence is
// unknown or whose candidates disagree; in gate mode so is a step reaching
// Checkpoint(). A body's sequence is known when every path's is and they
// all agree.

/// One call on a path; `in_loop` when it runs in a loop body.
struct RefStep {
  const CallExpr* call;
  bool in_loop;
};
using RefPath = std::vector<RefStep>;
using RefSeq = std::optional<std::vector<std::string>>;

/// A statement list still to run on the current path. `loop` is set for
/// a loop body: the loop test (the header's calls) runs again after it.
struct RefFrame {
  const std::vector<Stmt>* stmts;
  std::size_t next;
  bool in_loop;
  const Stmt* loop;
};

void AddCalls(const Stmt& s, bool in_loop, RefPath* path) {
  for (const CallExpr& c : s.calls) path->push_back({&c, in_loop});
}

/// Appends to `out` every path that continues `path` through `work`
/// (innermost list last).
void CollectPaths(std::vector<RefFrame> work, RefPath path,
                    std::vector<RefPath>* out) {
  while (!work.empty()) {
    RefFrame& frame = work.back();
    if (frame.next == frame.stmts->size()) {
      const Stmt* loop = frame.loop;
      work.pop_back();
      if (loop != nullptr) AddCalls(*loop, work.back().in_loop, &path);
      continue;
    }
    const Stmt& s = (*frame.stmts)[frame.next++];
    const bool in_loop = frame.in_loop;
    AddCalls(s, in_loop, &path);
    if (s.kind == StmtKind::kReturn) break;
    if (s.kind == StmtKind::kBranch) {
      std::vector<RefFrame> other = work;
      other.push_back({&s.else_children, 0, in_loop, nullptr});
      CollectPaths(std::move(other), path, out);
      work.push_back({&s.children, 0, in_loop, nullptr});
    } else if (s.kind == StmtKind::kLoop) {
      CollectPaths(work, path, out);  // zero iterations
      work.push_back({&s.children, 0, true, &s});  // one iteration
    } else if (s.kind == StmtKind::kBlock) {
      work.push_back({&s.children, 0, in_loop, nullptr});
    }
  }
  out->push_back(std::move(path));
}

/// The sequence one path executes; `known` holds the reference's own
/// summaries of every function defined so far.
RefSeq RefPathSeq(const Program& prog, const std::map<int, RefSeq>& known,
                  const RefPath& path, bool gate) {
  std::vector<std::string> seq;
  for (const RefStep& step : path) {
    const CallExpr& c = *step.call;
    if (gate && c.method == "Checkpoint") return std::nullopt;
    if (IsCollectiveMethod(c.method)) {
      if (step.in_loop) return std::nullopt;
      seq.push_back(c.method);
      continue;
    }
    RefSeq callee_seq;
    for (int idx : prog.Resolve(c)) {
      const FunctionSummary& callee =
          prog.fns()[static_cast<std::size_t>(idx)].summary;
      if (gate && callee.calls_checkpoint) return std::nullopt;
      if (!callee.calls_collective) continue;
      const RefSeq& sub = known.at(idx);
      if (!sub.has_value() || (callee_seq.has_value() && callee_seq != sub)) {
        return std::nullopt;
      }
      callee_seq = sub;
    }
    if (!callee_seq.has_value()) continue;
    if (step.in_loop && !callee_seq->empty()) return std::nullopt;
    seq.insert(seq.end(), callee_seq->begin(), callee_seq->end());
  }
  return seq;
}

RefSeq RefBodySeq(const Program& prog, const std::map<int, RefSeq>& known,
                  const std::vector<RefPath>& paths, bool gate) {
  RefSeq common;
  for (const RefPath& path : paths) {
    RefSeq seq = RefPathSeq(prog, known, path, gate);
    if (!seq.has_value() || (common.has_value() && common != seq)) {
      return std::nullopt;
    }
    common = std::move(seq);
  }
  return common;
}

/// Seeded random SPMD functions over every construct the walker tells
/// apart. Function k calls only functions 0..k-1, so the reference can
/// take callee summaries in definition order.
class SpmdProgramGen {
 public:
  explicit SpmdProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string Generate(int fns) {
    std::string src;
    for (fn_ = 0; fn_ < fns; ++fn_) {
      budget_ = 10;
      src += "void F" + std::to_string(fn_) + "(mpi::Comm& comm, int n) {\n";
      Body(1, &src);
      src += "}\n";
    }
    return src;
  }

 private:
  template <std::size_t N>
  const char* Pick(const char* const (&options)[N]) {
    return options[rng_.Below(N)];
  }

  void Body(int depth, std::string* out) {
    for (auto k = rng_.Range(1, 3); k > 0 && budget_ > 0; --k) {
      Statement(depth, out);
    }
  }

  void Nested(int depth, const std::string& head, std::string* out) {
    const std::string pad(static_cast<std::size_t>(2 * depth), ' ');
    *out += pad + head + " {\n";
    Body(depth + 1, out);
    *out += pad + "}\n";
  }

  void Statement(int depth, std::string* out) {
    static const char* const kConds[] = {"comm.rank() == 0",
                                         "comm.rank() % 2 == 1", "n > 2",
                                         "n == 0"};
    static const char* const kLoops[] = {
        "for (int i = 0; i < n; ++i)", "while (n > 0)",
        "for (int i = 0; i < comm.rank(); ++i)",
        "while (comm.Allreduce(a, b) > 0)"};
    --budget_;
    const std::string pad(static_cast<std::size_t>(2 * depth), ' ');
    const std::string call =
        fn_ > 0 ? "F" + std::to_string(rng_.Below(
                            static_cast<std::uint64_t>(fn_))) +
                      "(comm, n);\n"
                : "comm.Bcast(buf, 64, 0);\n";
    switch (rng_.Below(depth < 4 ? 14 : 8)) {
      case 0: *out += pad + "comm.Barrier();\n"; break;
      case 1: *out += pad + "comm.Allreduce(a, b);\n"; break;
      case 2: *out += pad + "compute(n);\n"; break;
      case 3:
      case 4: *out += pad + call; break;
      case 5: *out += pad + "return;\n"; break;
      case 6: *out += pad + "coord.Checkpoint(ctx);\n"; break;
      case 7:
        *out += pad + "pool.Submit([&] { " +
                (rng_.Bernoulli(0.5) ? "comm.Barrier();"
                                     : "coord.Checkpoint(ctx);") +
                " });\n";
        break;
      case 8:
      case 9:
        Nested(depth, std::string("if (") + Pick(kConds) + ")", out);
        Nested(depth, "else", out);
        break;
      case 10:
        Nested(depth, std::string("if (") + Pick(kConds) + ")", out);
        break;
      case 11: Nested(depth, Pick(kLoops), out); break;
      case 12:
        *out += pad + "switch (n) {\n" + pad + "  case 0:\n";
        Body(depth + 2, out);
        *out += pad + "    break;\n" + pad + "  default:\n";
        Body(depth + 2, out);
        *out += pad + "}\n";
        break;
      default: Nested(depth, "", out); break;
    }
  }

  Rng rng_;
  int fn_ = 0;
  int budget_ = 0;
};

TEST(SeqWalkerTest, AgreesWithBruteForcePathEnumeration) {
  int known_nonempty = 0;
  int unknown = 0;
  int gate_only_unprovable = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const std::string source = SpmdProgramGen(seed).Generate(4);
    const Program prog = Program::Analyze({ProgramSource{"gen.cc", source}});
    std::map<int, RefSeq> known;
    for (std::size_t i = 0; i < prog.fns().size(); ++i) {
      const Program::FnEntry& e = prog.fns()[i];
      std::vector<RefPath> paths;
      CollectPaths({{&e.fn->body, 0, false, nullptr}}, {}, &paths);
      const RefSeq want = RefBodySeq(prog, known, paths, false);
      const RefSeq want_gate = RefBodySeq(prog, known, paths, true);
      known[static_cast<int>(i)] = want;
      const RefSeq got = e.summary.sequence_known
                             ? RefSeq(e.summary.collective_seq)
                             : std::nullopt;
      ASSERT_EQ(got, want) << e.fn->name << " (seed " << seed << ")\n"
                           << source;
      ASSERT_EQ(prog.CollectiveSeqOf(e.fn->body), want);
      ASSERT_EQ(prog.CollectiveSeqOf(e.fn->body, /*gate=*/true), want_gate)
          << e.fn->name << " (seed " << seed << ")\n"
          << source;
      known_nonempty += want.has_value() && !want->empty() ? 1 : 0;
      unknown += want.has_value() ? 0 : 1;
      gate_only_unprovable += want.has_value() && !want_gate.has_value();
    }
  }
  // Every outcome the comparison distinguishes occurs.
  EXPECT_GT(known_nonempty, 0);
  EXPECT_GT(unknown, 0);
  EXPECT_GT(gate_only_unprovable, 0);
}

// ===========================================================================
// Front end under seeded mutation
// ===========================================================================

TEST(LintFrontEndTest, SurvivesMutatedRepoSources) {
  // Truncations, deleted spans, and inserted quotes, raw-string and
  // comment openers, braces, pragmas and raw bytes: the tokenizer, the
  // parser and every rule must return on whatever text they get.
  const char* const kFiles[] = {
      "examples/answerscount_mpi.cc", "examples/fault_tolerance_demo.cc",
      "bench/pagerank_common.cc", "src/analysis/token.cc"};
  const char* const kInserts[] = {"\"", "'", "R\"x(", "/*", "{", "}",
                                  "\n#pragma omp parallel for\n"};
  Rng rng(17);
  for (const char* file : kFiles) {
    std::ifstream in(std::string(PSTK_REPO_ROOT) + "/" + file);
    ASSERT_TRUE(in) << file;
    std::ostringstream text;
    text << in.rdbuf();
    for (int m = 0; m < 50; ++m) {
      std::string mutant = text.str();
      for (auto k = rng.Range(1, 3); k > 0; --k) {
        const std::size_t at = rng.Below(mutant.size() + 1);
        switch (rng.Below(4)) {
          case 0: mutant.resize(at); break;
          case 1: mutant.erase(at, rng.Below(64) + 1); break;
          case 2: mutant.insert(at, kInserts[rng.Below(std::size(kInserts))]);
            break;
          default:
            for (auto b = rng.Range(1, 8); b > 0; --b) {
              mutant.insert(at, 1, static_cast<char>(rng.Below(256)));
            }
        }
      }
      for (const LintFinding& f : LintProgram({ProgramSource{file, mutant}})) {
        EXPECT_EQ(f.file, file);
        EXPECT_GE(f.line, 1) << f.rule;
      }
      const LocReport loc = AnalyzeSource(file, mutant, {"return;"});
      EXPECT_LE(loc.boilerplate_lines, loc.code_lines);
      EXPECT_NE(mutant.find(ExtractBenchmarkRegion(mutant)), std::string::npos);
    }
  }
}

// ===========================================================================
// Baseline line hashes (drift tolerance) + parallel determinism
// ===========================================================================

TEST(LintBaselineTest, HashPinsFlaggedLineNotLineNumber) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  }
}
)cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line_hash, SourceLineHash("comm.Barrier();"));

  // A hashed entry suppresses regardless of the line number...
  const BaselineEntry good{"mpi-collective-in-divergent-branch", "t.cc",
                           SourceLineHash("comm.Barrier();")};
  EXPECT_EQ(ApplyBaseline(findings, {good}, nullptr).size(), 0u);
  // ...a stale hash (the flagged code changed) does not...
  const BaselineEntry stale{"mpi-collective-in-divergent-branch", "t.cc",
                            SourceLineHash("comm.Allreduce(a, b);")};
  EXPECT_EQ(ApplyBaseline(findings, {stale}, nullptr).size(), 1u);
  // ...and a legacy two-field entry still matches everything in the file.
  const BaselineEntry legacy{"mpi-collective-in-divergent-branch", "t.cc",
                             ""};
  EXPECT_EQ(ApplyBaseline(findings, {legacy}, nullptr).size(), 0u);
}

TEST(LintBaselineTest, HashRoundTripsThroughFormatAndParse) {
  const auto findings = Findings(R"cc(
void f(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.Barrier();
  }
}
)cc");
  ASSERT_EQ(findings.size(), 1u);
  const std::string text = FormatBaseline(findings);
  EXPECT_NE(text.find("mpi-collective-in-divergent-branch t.cc " +
                      findings[0].line_hash),
            std::string::npos)
      << text;
  const auto entries = ParseBaseline(text);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].hash, findings[0].line_hash);
  EXPECT_EQ(ApplyBaseline(findings, entries, nullptr).size(), 0u);
}

}  // namespace
}  // namespace pstk::analysis
