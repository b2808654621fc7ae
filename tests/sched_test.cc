#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "mpi/mpi.h"
#include "sched/adapters.h"
#include "sched/arrivals.h"
#include "sched/sched.h"
#include "serde/serde.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace pstk::sched {
namespace {

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(JobQueueTest, FairShareRanksByUsagePerWeight) {
  JobQueue q;
  q.SetWeight("hpc", 1.0);
  q.SetWeight("bigdata", 2.0);
  q.Submit(1, "hpc");
  q.Submit(2, "bigdata");
  // Equal usage: "bigdata" < "hpc" alphabetically breaks the tie.
  ASSERT_TRUE(q.FairShareHead().has_value());
  EXPECT_EQ(*q.FairShareHead(), 2);
  // bigdata accrues 100 core-seconds at weight 2 (share 50), hpc 60 at
  // weight 1 (share 60): bigdata is still the least-served queue.
  q.AddUsage("bigdata", 100);
  q.AddUsage("hpc", 60);
  EXPECT_DOUBLE_EQ(q.Share("bigdata"), 50);
  EXPECT_DOUBLE_EQ(q.Share("hpc"), 60);
  EXPECT_EQ(*q.FairShareHead(), 2);
  // More bigdata usage flips the ranking.
  q.AddUsage("bigdata", 40);
  EXPECT_EQ(*q.FairShareHead(), 1);
  // Scan order ranks whole queues, FIFO inside each.
  q.Submit(3, "hpc");
  EXPECT_EQ(q.InScanOrder(), (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(q.Pending(), 3u);
}

TEST(JobQueueTest, PreemptedJobsRequeueAtFront) {
  JobQueue q;
  q.Submit(1, "default");
  q.Submit(2, "default");
  q.Remove(1, "default");  // job 1 started...
  q.Submit(1, "default", /*front=*/true);  // ...and was preempted
  EXPECT_EQ(*q.FairShareHead(), 1);  // it does not wait behind job 2 again
}

// ---------------------------------------------------------------------------
// Arrivals
// ---------------------------------------------------------------------------

TEST(ArrivalSpecTest, PoissonIsDeterministicPerSeed) {
  ArrivalSpec spec;
  spec.rate = 2.0;
  spec.count = 32;
  spec.seed = 7;
  const std::vector<SimTime> a = spec.Times();
  const std::vector<SimTime> b = spec.Times();
  EXPECT_EQ(a, b);  // bitwise: no host entropy anywhere
  ASSERT_EQ(a.size(), 32u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  spec.seed = 8;
  EXPECT_NE(a, spec.Times());
}

TEST(ArrivalSpecTest, ParsePoissonSpellingsAndErrors) {
  auto ok = ArrivalSpec::Parse("poisson:rate=0.5,n=10,seed=42");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(ok->rate, 0.5);
  EXPECT_EQ(ok->count, 10);
  EXPECT_EQ(ok->seed, 42u);
  EXPECT_FALSE(ArrivalSpec::Parse("poisson:rate=0,n=3").ok());
  EXPECT_FALSE(ArrivalSpec::Parse("poisson:rate=1,n=3,burst=2").ok());
  EXPECT_FALSE(ArrivalSpec::Parse("uniform:rate=1").ok());
  EXPECT_FALSE(ArrivalSpec::Parse("no-colon").ok());
}

TEST(ArrivalSpecTest, TraceFileReplay) {
  const std::string path = testing::TempDir() + "/sched_arrivals.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n" << "5.0\n" << "  1.5\n" << "\n" << "3.0\n";
  }
  auto spec = ArrivalSpec::Parse("trace:" + path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->Times(), (std::vector<SimTime>{1.5, 3.0, 5.0}));  // sorted
  EXPECT_FALSE(ArrivalSpec::Parse("trace:/no/such/file").ok());
}

// ---------------------------------------------------------------------------
// Parsers of outside input: --faults= and --arrivals= specs
// ---------------------------------------------------------------------------

std::string WriteTrace(const std::string& name,
                       const std::vector<std::string>& lines) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  return path;
}

// A parse that succeeded must hold only finite, in-range values.
void ExpectSaneFaultPlan(const std::string& spec) {
  const auto plan = sim::FaultPlan::Parse(spec);
  if (!plan.ok()) return;
  EXPECT_LE(plan->events.size(), 2'000'000u) << spec;
  for (const sim::FaultEvent& event : plan->events) {
    EXPECT_GE(event.node, 0) << spec;
    EXPECT_TRUE(std::isfinite(event.time) && event.time >= 0) << spec;
    EXPECT_TRUE(std::isfinite(event.down_for) &&
                (event.down_for >= 0 || event.down_for == -1))
        << spec;
    if (event.transient()) {
      EXPECT_TRUE(std::isfinite(event.time + event.down_for)) << spec;
    }
  }
}

void ExpectSaneArrivalSpec(const std::string& text) {
  const auto spec = ArrivalSpec::Parse(text);
  if (!spec.ok()) return;
  if (spec->kind == ArrivalSpec::Kind::kPoisson) {
    EXPECT_TRUE(std::isfinite(spec->rate) && spec->rate > 0) << text;
    EXPECT_TRUE(spec->count >= 1 && spec->count <= 1'000'000) << text;
    for (const SimTime t : spec->Times()) {
      EXPECT_TRUE(std::isfinite(t)) << text;
    }
    return;
  }
  EXPECT_TRUE(std::is_sorted(spec->trace.begin(), spec->trace.end()))
      << text;
  for (const SimTime t : spec->trace) {
    EXPECT_TRUE(std::isfinite(t) && t >= 0) << text;
  }
}

TEST(SpecParseTest, NonFiniteAndOutOfRangeNumbersAreRefused) {
  for (const char* spec : {
           "exp:mtbf=1,horizon=inf,nodes=2",   // never stopped appending
           "exp:mtbf=nan,horizon=1,nodes=2",   // aborted in Exponential
           "exp:mtbf=1e-9,horizon=1,nodes=2",  // 1e9 expected failures
           "exp:mtbf=1,horizon=10,nodes=1e10",
           "exp:mtbf=1,horizon=10,nodes=4,first=1e10",
           "exp:mtbf=1,horizon=10,nodes=2,seed=-1",
           "exp:mtbf=1,horizon=10,nodes=2,seed=1.5",
           "exp:mtbf=1,horizon=10,nodes=2,down=nan",
           "node:0@nan",
           "node:0@1+nan",  // made the fault permanent
           "node:0@1e308+1e308",  // restored at t=inf
           "exp:mtbf=1e303,horizon=1e308,nodes=2,down=1e308",
           "node:0@inf",
           "node:1e10@1",  // read back as INT_MIN
           "node:-1@1",
           "node:1.5@1",
           "node:@1",
       }) {
    EXPECT_FALSE(sim::FaultPlan::Parse(spec).ok()) << spec;
  }
  for (const char* spec : {
           "poisson:rate=nan,n=3",
           "poisson:rate=inf,n=3",
           "poisson:rate=1e-320,n=3",  // arrival times overflowed to inf
           "poisson:rate=1,n=1e10",
           "poisson:rate=1,n=1.5",
           "poisson:rate=1,n=2000000",
           "poisson:rate=1,n=3,seed=-1",
           "poisson:rate=1,n=3,seed=18446744073709551616",
           "poisson:rate=1x,n=3",
       }) {
    EXPECT_FALSE(ArrivalSpec::Parse(spec).ok()) << spec;
  }
  for (const char* line : {"nan", "inf", "-inf", "1e400", "5.0 junk"}) {
    const std::string path = WriteTrace("bad_trace.txt", {"1.0", line});
    EXPECT_FALSE(ArrivalSpec::Parse("trace:" + path).ok()) << line;
  }

  // The whole range stays open.
  const auto max_seed = sim::FaultPlan::Parse(
      "exp:mtbf=1,horizon=10,nodes=2,seed=18446744073709551615");
  ASSERT_TRUE(max_seed.ok()) << max_seed.status().ToString();
  const auto last_node = sim::FaultPlan::Parse("node:2147483647@0+0");
  ASSERT_TRUE(last_node.ok()) << last_node.status().ToString();
  EXPECT_EQ(last_node->events[0].node, 2147483647);
  const auto seeded =
      ArrivalSpec::Parse("poisson:rate=1,n=1000000,seed=18446744073709551615");
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  EXPECT_EQ(seeded->seed, 18446744073709551615u);
  const std::string crlf = WriteTrace("crlf_trace.txt", {"2.5\r", " 1 "});
  const auto trimmed = ArrivalSpec::Parse("trace:" + crlf);
  ASSERT_TRUE(trimmed.ok()) << trimmed.status().ToString();
  EXPECT_EQ(trimmed->trace, (std::vector<SimTime>{1.0, 2.5}));
}

// Replaces a value, inserts a token or truncates, one to three times. The
// tokens are what a careless or hostile spec carries.
std::string Mutate(std::string text, Rng& rng) {
  static const char* const kTokens[] = {
      "nan", "inf", "-inf", "1e10", "-1", "1.5", "", "x?!", "1e400",
      "1e308", "1e-320", "18446744073709551616", "0"};
  const int ops = 1 + static_cast<int>(rng.Below(3));
  for (int op = 0; op < ops; ++op) {
    const std::string token = kTokens[rng.Below(std::size(kTokens))];
    switch (rng.Below(3)) {
      case 0: {  // one value: a run between separators
        std::vector<std::pair<std::size_t, std::size_t>> values;
        std::size_t begin = 0;
        for (std::size_t i = 0; i <= text.size(); ++i) {
          if (i == text.size() || std::string_view(":,@+=").find(text[i]) !=
                                      std::string_view::npos) {
            values.emplace_back(begin, i);
            begin = i + 1;
          }
        }
        const auto [b, e] = values[rng.Below(values.size())];
        text.replace(b, e - b, token);
        break;
      }
      case 1:
        text.insert(rng.Below(text.size() + 1), token);
        break;
      default:
        text.resize(rng.Below(text.size() + 1));
        break;
    }
  }
  return text;
}

TEST(SpecParseTest, SeededMutationsReturnStatusOrSaneValues) {
  // Every mutant either fails to parse or holds finite, in-range values;
  // none may abort, hang or allocate without bound.
  Rng rng(19);
  const std::vector<std::string> fault_seeds = {
      "node:0@1", "node:3@2.5+10,node:1@0.5",
      "exp:mtbf=10,horizon=100,nodes=4",
      "exp:mtbf=5,horizon=50,nodes=8,first=2,down=3,seed=7"};
  const std::vector<std::string> arrival_seeds = {
      "poisson:rate=0.5,n=10,seed=42", "poisson:rate=2,n=3"};
  const std::vector<std::string> trace_lines = {"# arrivals", "5.0", "  1.5",
                                                "", "3.0"};
  for (int i = 0; i < 3000; ++i) {
    ExpectSaneFaultPlan(
        Mutate(fault_seeds[rng.Below(fault_seeds.size())], rng));
    ExpectSaneArrivalSpec(
        Mutate(arrival_seeds[rng.Below(arrival_seeds.size())], rng));
    if (i % 10 == 0) {
      std::vector<std::string> lines = trace_lines;
      std::string& line = lines[rng.Below(lines.size())];
      line = Mutate(line, rng);
      ExpectSaneArrivalSpec("trace:" + WriteTrace("mutated_trace.txt", lines));
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler placement and bookkeeping (stub launchers: no processes, every
// Submit runs its scheduling pass synchronously, so placement is testable
// without running the engine)
// ---------------------------------------------------------------------------

struct StubLog {
  std::vector<Launch> launches;
  std::vector<int> nodes;  // elastic: nodes held, grant order (for shrink)
};

Launcher StubGang(std::shared_ptr<StubLog> log) {
  return [log](const Launch& launch) {
    log->launches.push_back(launch);
    JobHooks hooks;
    hooks.kill = [] {};
    return hooks;
  };
}

Launcher StubElastic(std::shared_ptr<StubLog> log) {
  return [log](const Launch& launch) {
    log->launches.push_back(launch);
    log->nodes = launch.placement;
    JobHooks hooks;
    hooks.grow = [log](int node) {
      log->nodes.push_back(node);
      return true;
    };
    hooks.shrink = [log]() -> int {
      if (log->nodes.empty()) return -1;
      const int node = log->nodes.back();
      log->nodes.pop_back();
      return node;
    };
    return hooks;
  };
}

JobSpec Gang(std::shared_ptr<StubLog> log, int procs, int ppn) {
  JobSpec spec;
  spec.paradigm = Paradigm::kMpi;
  spec.procs = procs;
  spec.procs_per_node = ppn;
  spec.launch = StubGang(std::move(log));
  return spec;
}

JobSpec Elastic(std::shared_ptr<StubLog> log, int procs, int min_procs,
                int ppn) {
  JobSpec spec;
  spec.paradigm = Paradigm::kSpark;
  spec.procs = procs;
  spec.min_procs = min_procs;
  spec.procs_per_node = ppn;
  spec.launch = StubElastic(std::move(log));
  return spec;
}

TEST(SchedulerTest, GangTakesWholeNodesExclusively) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  Scheduler sched(cluster);
  auto log = std::make_shared<StubLog>();

  // 8 ranks at 8 per node need one node — but they get ALL 24 of its
  // cores: gang placement is whole-node (the paper's HPC utilization tax).
  const int a = sched.Submit(Gang(log, 8, 8));
  ASSERT_EQ(log->launches.size(), 1u);
  EXPECT_EQ(log->launches[0].placement, std::vector<int>(8, 0));
  EXPECT_EQ(sched.job(a).state, JobState::kRunning);
  EXPECT_EQ(cluster.CoresHeldBy(a, 0), 24);
  EXPECT_EQ(cluster.UsedCores(), 24);

  const int b = sched.Submit(Gang(log, 8, 8));
  EXPECT_EQ(log->launches[1].placement, std::vector<int>(8, 1));
  EXPECT_EQ(cluster.UsedCores(), 48);

  // No whole node free: all-or-nothing means pending, not partial.
  const int c = sched.Submit(Gang(log, 8, 8));
  EXPECT_EQ(sched.job(c).state, JobState::kPending);
  EXPECT_EQ(log->launches.size(), 2u);
  EXPECT_EQ(sched.jobs_running(), 2);
  (void)b;
}

TEST(SchedulerTest, ElasticStartsPartialAndGrowsOnRelease) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  Scheduler sched(cluster);
  auto gang_log = std::make_shared<StubLog>();
  auto log = std::make_shared<StubLog>();

  // A gang job owns node 0; the elastic job wants 30 executors but starts
  // immediately with the 24 cores node 1 can give (min_procs=1).
  const int a = sched.Submit(Gang(gang_log, 1, 1));
  const int b = sched.Submit(Elastic(log, 30, 1, 24));
  EXPECT_EQ(sched.job(b).state, JobState::kRunning);
  EXPECT_EQ(sched.job(b).procs_running, 24);
  EXPECT_EQ(cluster.CoresHeldBy(b, 1), 24);

  // Node 0 frees: the next pass grows the elastic job to its target.
  sched.OnJobDone(a);
  const auto run = engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(sched.job(b).procs_running, 30);
  EXPECT_EQ(cluster.CoresHeldBy(b, 0), 6);
  EXPECT_EQ(engine.obs().CounterByName("sched.grown"), 6u);
  EXPECT_EQ(cluster.UsedCores(), 30);
}

TEST(SchedulerTest, EasyBackfillRespectsShadowTime) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  Scheduler sched(cluster);
  auto log = std::make_shared<StubLog>();

  // A runs on node 0 with a 100 s estimate. B (head, needs both nodes)
  // blocks until A ends — its shadow time is t=100.
  JobSpec a = Gang(log, 8, 8);
  a.est_runtime = Seconds(100);
  sched.Submit(std::move(a));
  JobSpec b = Gang(log, 16, 8);
  b.est_runtime = Seconds(10);
  const int b_id = sched.Submit(std::move(b));
  EXPECT_EQ(sched.job(b_id).state, JobState::kPending);

  // C fits on node 1 and its 50 s estimate ends before the shadow time:
  // EASY lets it jump the blocked head.
  JobSpec c = Gang(log, 8, 8);
  c.est_runtime = Seconds(50);
  const int c_id = sched.Submit(std::move(c));
  EXPECT_EQ(sched.job(c_id).state, JobState::kRunning);
  EXPECT_TRUE(sched.job(c_id).backfilled);
  EXPECT_EQ(sched.backfills(), 1);

  // D would also fit but its 200 s estimate overruns the shadow time —
  // starting it would delay the head, which EASY forbids.
  JobSpec d = Gang(log, 8, 8);
  d.est_runtime = Seconds(200);
  const int d_id = sched.Submit(std::move(d));
  EXPECT_EQ(sched.job(d_id).state, JobState::kPending);
  EXPECT_EQ(sched.backfills(), 1);
}

TEST(SchedulerTest, ElasticShrinksToFloorUnderPreemption) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(1));
  Scheduler sched(cluster);
  auto victim_log = std::make_shared<StubLog>();
  auto log = std::make_shared<StubLog>();

  const int a = sched.Submit(Elastic(victim_log, 24, 8, 24));
  EXPECT_EQ(sched.job(a).procs_running, 24);

  // A high-priority elastic job needing 16 cores shrinks A to its floor
  // (min_procs=8) instead of killing it — lineage absorbs the loss.
  JobSpec b = Elastic(log, 16, 16, 24);
  b.priority = 1;
  const int b_id = sched.Submit(std::move(b));
  EXPECT_EQ(sched.job(b_id).state, JobState::kRunning);
  EXPECT_EQ(sched.job(b_id).procs_running, 16);
  EXPECT_EQ(sched.job(a).procs_running, 8);
  EXPECT_EQ(engine.obs().CounterByName("sched.shrunk"), 16u);
  EXPECT_EQ(cluster.UsedCores(), 24);
  // Shrink-to-floor is not a gang preemption: nothing was killed.
  EXPECT_EQ(sched.preemptions(), 0);
  EXPECT_EQ(sched.job(a).attempt, 0);

  // When the high-priority job leaves, A regrows to its target.
  sched.OnJobDone(b_id);
  const auto run = engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(sched.job(a).procs_running, 24);
  EXPECT_EQ(cluster.UsedCores(), 24);
}

// ---------------------------------------------------------------------------
// Preemption end-to-end: checkpoint-preempt-requeue with the real MPI
// runtime — the preempted gang job's second attempt must resume from the
// latest committed snapshot epoch, not from scratch.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, PreemptedGangResumesFromLatestEpoch) {
  constexpr int kSteps = 8;
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  Scheduler sched(cluster);

  auto epochs = std::make_shared<std::vector<int>>();
  auto executed = std::make_shared<int>(0);
  MpiCkptBody background = [epochs, executed](
                               mpi::Comm& comm,
                               ckpt::CheckpointCoordinator& coord) {
    const int rank = comm.rank();
    const int node = comm.ctx().node();
    comm.Barrier();
    int start = 0;
    const serde::Buffer* frag = coord.Restore(comm.ctx(), rank, node);
    if (frag != nullptr) {
      serde::Reader r(*frag);
      start = static_cast<int>(r.ReadRaw<std::int32_t>().value()) + 1;
    }
    if (rank == 0) epochs->push_back(coord.restore_epoch().value_or(-1));
    std::vector<double> one(1, 1.0);
    std::vector<double> sum(1, 0.0);
    for (int iter = start; iter < kSteps; ++iter) {
      comm.ctx().Compute(1.0);
      comm.Allreduce<double>(one, sum);
      if (rank == 0) ++*executed;
      serde::Writer w;
      w.WriteRaw<std::int32_t>(iter);
      coord.Checkpoint(comm.ctx(), rank, node, iter, w.TakeBuffer());
    }
  };
  ckpt::CkptPolicy policy;
  policy.interval = 0.5;  // the first Checkpoint call only anchors the clock

  JobSpec bg;
  bg.name = "background";
  bg.paradigm = Paradigm::kMpi;
  bg.procs = 2;
  bg.procs_per_node = 1;  // one rank per node: owns the whole cluster
  bg.priority = 0;
  bg.launch = MakeMpiLauncher(sched, background, {}, policy);
  const int bg_id = sched.Submit(std::move(bg));

  // A high-priority query lands mid-run and evicts the gang. t=4.5 gives
  // the ~1 s steps time to commit an epoch or two first (iter 0's
  // Checkpoint only anchors the interval clock, and commits also pay the
  // snapshot's disk-write latency).
  ArrivalSpec arrival;
  arrival.kind = ArrivalSpec::Kind::kTrace;
  arrival.trace = {4.5};
  int query_id = -1;
  ScheduleArrivals(engine, arrival, [&](int, SimTime) {
    JobSpec query;
    query.name = "query";
    query.paradigm = Paradigm::kMpi;
    query.procs = 2;
    query.procs_per_node = 2;
    query.priority = 1;
    query.launch = MakeMpiLauncher(
        sched, [](mpi::Comm& comm, ckpt::CheckpointCoordinator&) {
          comm.ctx().Compute(0.5);
          comm.Barrier();
        });
    query_id = sched.Submit(std::move(query));
  });

  const auto run = engine.Run();
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  EXPECT_EQ(sched.preemptions(), 1);
  EXPECT_EQ(sched.job(query_id).state, JobState::kDone);
  const JobInfo& info = sched.job(bg_id);
  EXPECT_EQ(info.state, JobState::kDone);
  EXPECT_EQ(info.attempt, 1);
  EXPECT_EQ(info.preemptions, 1);
  // Attempt 0 started fresh; attempt 1 restored a committed epoch.
  ASSERT_EQ(epochs->size(), 2u);
  EXPECT_EQ((*epochs)[0], -1);
  EXPECT_GE((*epochs)[1], 0);
  // Resumed, not rerun: strictly fewer than 2x the steps, none lost.
  EXPECT_GE(*executed, kSteps);
  EXPECT_LT(*executed, 2 * kSteps);
  EXPECT_EQ(cluster.UsedCores(), 0);
}

// ---------------------------------------------------------------------------
// Determinism: a service run is a pure function of its seed.
// ---------------------------------------------------------------------------

std::vector<SimTime> RunService() {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::ClusterSpec::Comet(2));
  Scheduler sched(cluster);
  ArrivalSpec spec;
  spec.rate = 0.5;
  spec.count = 4;
  spec.seed = 7;
  std::vector<int> ids(4, -1);
  ScheduleArrivals(engine, spec, [&](int index, SimTime) {
    JobSpec job;
    job.name = "q" + std::to_string(index);
    job.paradigm = Paradigm::kMpi;
    job.procs = 2;
    job.procs_per_node = 1;
    job.est_runtime = Seconds(5);
    job.launch = MakeMpiLauncher(
        sched, [index](mpi::Comm& comm, ckpt::CheckpointCoordinator&) {
          comm.ctx().Compute(0.25 * (index + 1));
          comm.Barrier();
        });
    ids[static_cast<std::size_t>(index)] = sched.Submit(std::move(job));
  });
  const auto run = engine.Run();
  PSTK_CHECK(run.status.ok());
  std::vector<SimTime> ends;
  for (int id : ids) {
    PSTK_CHECK(sched.job(id).state == JobState::kDone);
    ends.push_back(sched.job(id).end_time);
  }
  return ends;
}

TEST(SchedulerTest, ServiceRunIsDeterministicAcrossRepeats) {
  const std::vector<SimTime> first = RunService();
  const std::vector<SimTime> second = RunService();
  EXPECT_EQ(first, second);  // bitwise-equal virtual times
  ASSERT_EQ(first.size(), 4u);
  for (SimTime t : first) EXPECT_GT(t, 0.0);
}

}  // namespace
}  // namespace pstk::sched
