// AnswersCount-as-a-service: the StackExchange AnswersCount query run as a
// *service* instead of a batch job. Query jobs arrive as a seeded Poisson
// process (or a trace file via --arrivals=), each a complete 8-process
// AnswersCount over the staged dataset, submitted to pstk::sched and
// executed by the paradigm's runtime:
//
//  * MPI / SHMEM — gang-scheduled: a query waits for a whole free node,
//    owns it exclusively, and is charged all of its cores;
//  * Spark / MapReduce — elastic: a query starts on as few as min_procs
//    cores anywhere and the scheduler grows it toward 8.
//
// Sweeping the offered load λ past saturation exposes each paradigm's knee:
// p50/p99 sojourn time (arrival -> completion), completed jobs/hour, and
// reserved-core utilization per cell. Everything is virtual-time, so the
// numbers are deterministic — byte-identical across runs, backends, and
// host machines for a fixed seed.
//
// The preemption panel runs a low-priority checkpointing MPI job across the
// whole cluster with high-priority queries arriving over it: each query
// preempts the background gang job (checkpoint-preempt-requeue), whose next
// attempt restores from the latest committed snapshot epoch rather than
// restarting from scratch.
//
//   ./build/bench/svc_answerscount [scale=...] [gb=4] [jobs=40]
//       [rates=0.05,0.1,0.2,0.4,0.8,1.6,3.2]
//
// Flags:
//   --smoke            tiny sweep + panel, for ctest / CI
//   --out=<file>       write machine-readable results (BENCH_sched.json)
//   --baseline=<file>  gate against bench/BENCH_sched.baseline.json:
//                      throughput floors, latency ceilings, and the
//                      preemption panel's resume-from-snapshot invariants
//   --arrivals=<spec>  override the Poisson sweep with one arrival process
//                      (see bench_opts.h)
// plus the shared bench flags (--trace= etc., see bench_opts.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_opts.h"
#include "buf/bytes.h"
#include "ckpt/ckpt.h"
#include "cluster/cluster.h"
#include "common/config.h"
#include "common/table.h"
#include "dfs/dfs.h"
#include "mpi/mpi.h"
#include "mr/mr.h"
#include "sched/adapters.h"
#include "sched/arrivals.h"
#include "sched/sched.h"
#include "serde/serde.h"
#include "shmem/shmem.h"
#include "sim/engine.h"
#include "spark/spark.h"
#include "workloads/stackexchange.h"

using namespace pstk;

namespace {

constexpr SimTime kNativeCpuPerByte = 1.0 / 1.2e9;
constexpr int kNodes = 8;
constexpr int kQueryProcs = 8;  // one node's worth at the paper's 8 ppn

struct Env {
  sim::Engine engine;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<dfs::MiniDfs> dfs;
};

std::unique_ptr<Env> MakeEnv(double scale, const std::string& data,
                             bool with_dfs, bool with_local) {
  auto env = std::make_unique<Env>();
  env->cluster = std::make_unique<cluster::Cluster>(
      env->engine, cluster::ClusterSpec::Comet(kNodes), scale);
  if (with_dfs) {
    env->dfs = std::make_unique<dfs::MiniDfs>(*env->cluster);
    PSTK_CHECK(env->dfs->Install("/in/posts.txt", data).ok());
  }
  if (with_local) {
    // Every node stages the same bytes: one shared copy, not one per node.
    const buf::Bytes staged = buf::Bytes::Copy(data);
    for (int n = 0; n < kNodes; ++n) {
      env->cluster->scratch(n).Install("/scratch/posts.txt", staged);
    }
  }
  bench::Observability::Instance().Attach(env->engine);
  return env;
}

// --- per-paradigm query bodies ---------------------------------------------

sched::MpiCkptBody MpiQueryBody() {
  return [](mpi::Comm& comm, ckpt::CheckpointCoordinator&) {
    auto file = mpi::File::OpenAll(comm, "/scratch/posts.txt");
    if (!file.ok()) return;
    const Bytes chunk = file->size() / comm.size();
    const Bytes offset = chunk * comm.rank();
    const Bytes len =
        comm.rank() == comm.size() - 1 ? file->size() - offset : chunk;
    auto part =
        file->ReadLinesAtAll(comm, offset, static_cast<std::int64_t>(len));
    if (!part.ok()) return;
    const auto counts = workloads::CountPosts(part.value());
    comm.ctx().Compute(static_cast<double>(len) * kNativeCpuPerByte);
    const std::vector<std::uint64_t> mine{counts.questions, counts.answers};
    std::vector<std::uint64_t> total(2);
    comm.Reduce<std::uint64_t>(mine, total, 0);
  };
}

sched::ShmemCkptBody ShmemQueryBody(cluster::Cluster* cluster) {
  return [cluster](shmem::Pe& pe, ckpt::CheckpointCoordinator&) {
    sim::Context& ctx = pe.ctx();
    auto& fs = cluster->scratch(ctx.node());
    auto total = fs.Size("/scratch/posts.txt");
    if (!total.ok()) return;
    const Bytes chunk = *total / static_cast<Bytes>(pe.n_pes());
    const Bytes offset = chunk * static_cast<Bytes>(pe.my_pe());
    const Bytes len =
        pe.my_pe() == pe.n_pes() - 1 ? *total - offset : chunk;
    auto part = fs.Read(ctx, "/scratch/posts.txt", offset, len);
    if (!part.ok()) return;
    (void)workloads::CountPosts(part.value());
    ctx.Compute(static_cast<double>(cluster->Modeled(len)) *
                kNativeCpuPerByte);
    pe.BarrierAll();
  };
}

spark::MiniSpark::DriverBody SparkQueryBody() {
  return [](spark::SparkContext& sc) {
    using Counts = std::pair<std::uint64_t, std::uint64_t>;
    auto lines = sc.TextFile("/in/posts.txt");
    if (!lines.ok()) return;
    (void)lines
        ->Map<Counts>([](const std::string& line) {
          switch (workloads::ClassifyPost(line)) {
            case workloads::PostKind::kQuestion: return Counts{1, 0};
            case workloads::PostKind::kAnswer: return Counts{0, 1};
            default: return Counts{0, 0};
          }
        })
        .Reduce([](const Counts& a, const Counts& b) {
          return Counts{a.first + b.first, a.second + b.second};
        });
  };
}

sched::MrJob MrQueryJob(int query) {
  sched::MrJob job;
  job.conf.name = "ac-query";
  job.conf.input_path = "/in/posts.txt";
  job.conf.output_path = "/out/q" + std::to_string(query);
  job.conf.num_reducers = 1;
  job.conf.write_output = false;
  job.map = [](const std::string& line, mr::Emitter& out) {
    switch (workloads::ClassifyPost(line)) {
      case workloads::PostKind::kQuestion: out.Emit("Q", "1"); break;
      case workloads::PostKind::kAnswer: out.Emit("A", "1"); break;
      default: break;
    }
  };
  job.reduce = [](const std::string& key,
                  const std::vector<std::string>& values, mr::Emitter& out) {
    std::int64_t sum = 0;
    for (const auto& v : values) sum += std::strtoll(v.c_str(), nullptr, 10);
    out.Emit(key, std::to_string(sum));
  };
  job.combine = job.reduce;
  return job;
}

// --- load sweep ------------------------------------------------------------

struct CellResult {
  std::string paradigm;
  std::string arrivals;  // "poisson rate" rendered, or "trace"
  double rate = 0;       // 0 for trace arrivals
  int jobs = 0;
  int done = 0;
  double p50_s = 0;
  double p99_s = 0;
  double jobs_per_hour = 0;
  double utilization = 0;
  int backfills = 0;
  int preemptions = 0;
  std::uint64_t grown = 0;
  std::uint64_t shrunk = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto idx = static_cast<std::size_t>(
      std::min(n - 1, std::max(0.0, std::ceil(p * n) - 1)));
  return values[idx];
}

CellResult RunCell(sched::Paradigm paradigm, const sched::ArrivalSpec& spec,
                   double scale, const std::string& data) {
  const bool gang = sched::IsGang(paradigm);
  auto env = MakeEnv(scale, data, /*with_dfs=*/!gang, /*with_local=*/gang);
  sched::Scheduler scheduler(*env->cluster);
  std::unique_ptr<mr::MrEngine> mr_engine;
  if (paradigm == sched::Paradigm::kMr) {
    mr::MrOptions options;
    mr_engine = std::make_unique<mr::MrEngine>(*env->cluster, *env->dfs,
                                               options);
  }

  const int count = spec.kind == sched::ArrivalSpec::Kind::kPoisson
                        ? spec.count
                        : static_cast<int>(spec.trace.size());
  std::vector<int> ids(static_cast<std::size_t>(count), -1);
  sched::ScheduleArrivals(
      env->engine, spec, [&, paradigm](int index, SimTime) {
        sched::JobSpec job;
        job.name = "ac-q" + std::to_string(index);
        job.paradigm = paradigm;
        job.procs = kQueryProcs;
        job.min_procs = gang ? 1 : 2;
        job.procs_per_node = kQueryProcs;
        job.est_runtime = Seconds(30);
        switch (paradigm) {
          case sched::Paradigm::kMpi:
            job.launch = sched::MakeMpiLauncher(scheduler, MpiQueryBody());
            break;
          case sched::Paradigm::kShmem:
            job.launch = sched::MakeShmemLauncher(
                scheduler, ShmemQueryBody(env->cluster.get()));
            break;
          case sched::Paradigm::kSpark:
            job.launch = sched::MakeSparkLauncher(
                scheduler, env->dfs.get(), SparkQueryBody());
            break;
          case sched::Paradigm::kMr:
            job.launch = sched::MakeMrLauncher(scheduler, *mr_engine,
                                               MrQueryJob(index));
            break;
        }
        ids[static_cast<std::size_t>(index)] = scheduler.Submit(std::move(job));
      });
  const auto run = env->engine.Run();
  PSTK_CHECK_MSG(run.status.ok(), "svc cell failed: "
                                      << run.status.ToString());

  CellResult cell;
  cell.paradigm = sched::ParadigmName(paradigm);
  cell.rate = spec.kind == sched::ArrivalSpec::Kind::kPoisson ? spec.rate : 0;
  cell.arrivals = spec.kind == sched::ArrivalSpec::Kind::kPoisson
                      ? "poisson " + std::to_string(spec.rate)
                      : "trace";
  cell.jobs = count;
  std::vector<double> sojourns;
  SimTime horizon = 0;
  for (int id : ids) {
    if (id < 0) continue;
    const sched::JobInfo& info = scheduler.job(id);
    if (info.state != sched::JobState::kDone) continue;
    ++cell.done;
    sojourns.push_back(info.end_time - info.submit_time);
    horizon = std::max(horizon, info.end_time);
  }
  cell.p50_s = Percentile(sojourns, 0.50);
  cell.p99_s = Percentile(sojourns, 0.99);
  if (horizon > 0) {
    cell.jobs_per_hour = static_cast<double>(cell.done) / horizon * 3600.0;
    cell.utilization =
        scheduler.busy_core_seconds() /
        (static_cast<double>(env->cluster->TotalCores()) * horizon);
  }
  cell.backfills = scheduler.backfills();
  cell.preemptions = scheduler.preemptions();
  cell.grown = env->engine.obs().CounterByName("sched.grown");
  cell.shrunk = env->engine.obs().CounterByName("sched.shrunk");
  bench::Observability::Instance().Collect(
      env->engine, cell.paradigm + " " + cell.arrivals);
  return cell;
}

// --- preemption panel ------------------------------------------------------

struct PreemptResult {
  int attempts = 0;     // background launches = 1 + preemptions
  int preemptions = 0;  // scheduler preemption count
  std::vector<int> restore_epochs;  // per attempt; -1 = fresh start
  int steps_executed = 0;           // across attempts; kSteps if never hit
  int steps_total = 0;              // kSteps (the work a scratch rerun pays)
  double background_s = 0;          // background sojourn
  int queries_done = 0;
};

PreemptResult RunPreemptionPanel(double scale, const std::string& data,
                                 int steps, int queries, double rate) {
  auto env = MakeEnv(scale, data, /*with_dfs=*/false, /*with_local=*/true);
  sched::SchedOptions options;
  options.queue_weights = {{"batch", 1.0}, {"default", 4.0}};
  sched::Scheduler scheduler(*env->cluster, options);

  auto epochs = std::make_shared<std::vector<int>>();
  auto executed = std::make_shared<int>(0);
  sched::MpiCkptBody background = [epochs, executed, steps](
                                      mpi::Comm& comm,
                                      ckpt::CheckpointCoordinator& coord) {
    const int rank = comm.rank();
    const int node = comm.ctx().node();
    comm.Barrier();  // collective boundary: channels quiesced
    int start = 0;
    const serde::Buffer* frag = coord.Restore(comm.ctx(), rank, node);
    if (frag != nullptr) {
      serde::Reader r(*frag);
      start = static_cast<int>(r.ReadRaw<std::int32_t>().value()) + 1;
    }
    if (rank == 0) epochs->push_back(coord.restore_epoch().value_or(-1));
    std::vector<double> one(1, 1.0);
    std::vector<double> sum(1, 0.0);
    for (int iter = start; iter < steps; ++iter) {
      comm.ctx().Compute(1.0);
      comm.Allreduce<double>(one, sum);
      if (rank == 0) ++*executed;
      serde::Writer w;
      w.WriteRaw<std::int32_t>(iter);
      coord.Checkpoint(comm.ctx(), rank, node, iter, w.TakeBuffer());
    }
  };
  // Commit an epoch at (almost) every step: the first Checkpoint call only
  // anchors the interval clock, so a short interval keeps the window in
  // which a preemption forces a scratch rerun down to one step.
  ckpt::CkptPolicy policy;
  policy.interval = 0.5;

  sched::JobSpec bg;
  bg.name = "background";
  bg.queue = "batch";
  bg.paradigm = sched::Paradigm::kMpi;
  bg.procs = kNodes * kQueryProcs;  // the whole cluster
  bg.procs_per_node = kQueryProcs;
  bg.est_runtime = Seconds(static_cast<double>(2 * steps));
  bg.priority = 0;
  bg.launch = sched::MakeMpiLauncher(scheduler, background, {}, policy);
  const int bg_id = scheduler.Submit(std::move(bg));

  sched::ArrivalSpec spec;
  spec.kind = sched::ArrivalSpec::Kind::kPoisson;
  spec.rate = rate;
  spec.count = queries;
  spec.seed = 11;
  std::vector<int> ids(static_cast<std::size_t>(queries), -1);
  sched::ScheduleArrivals(env->engine, spec, [&](int index, SimTime) {
    sched::JobSpec job;
    job.name = "ac-hi" + std::to_string(index);
    job.paradigm = sched::Paradigm::kMpi;
    job.procs = kQueryProcs;
    job.procs_per_node = kQueryProcs;
    job.est_runtime = Seconds(30);
    job.priority = 1;  // evicts the background gang
    job.launch = sched::MakeMpiLauncher(scheduler, MpiQueryBody());
    ids[static_cast<std::size_t>(index)] = scheduler.Submit(std::move(job));
  });
  const auto run = env->engine.Run();
  PSTK_CHECK_MSG(run.status.ok(), "preemption panel failed: "
                                      << run.status.ToString());

  PreemptResult result;
  const sched::JobInfo& bg_info = scheduler.job(bg_id);
  result.attempts = bg_info.attempt + 1;
  result.preemptions = scheduler.preemptions();
  result.restore_epochs = *epochs;
  result.steps_executed = *executed;
  result.steps_total = steps;
  result.background_s =
      bg_info.state == sched::JobState::kDone
          ? bg_info.end_time - bg_info.submit_time
          : -1;
  for (int id : ids) {
    if (id >= 0 && scheduler.job(id).state == sched::JobState::kDone) {
      ++result.queries_done;
    }
  }
  bench::Observability::Instance().Collect(env->engine, "preemption panel");
  return result;
}

// --- reporting + CI gate ---------------------------------------------------

void AppendCellJson(std::string* json, const CellResult& c) {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"paradigm\": \"%s\", \"rate\": %g, \"jobs\": %d, \"done\": %d, "
      "\"p50_s\": %.3f, \"p99_s\": %.3f, \"jobs_per_hour\": %.1f, "
      "\"utilization\": %.4f, \"backfills\": %d, \"preemptions\": %d, "
      "\"grown\": %llu, \"shrunk\": %llu}",
      c.paradigm.c_str(), c.rate, c.jobs, c.done, c.p50_s, c.p99_s,
      c.jobs_per_hour, c.utilization, c.backfills, c.preemptions,
      static_cast<unsigned long long>(c.grown),
      static_cast<unsigned long long>(c.shrunk));
  if (!json->empty()) *json += ",\n";
  *json += buf;
}

// Minimal `"key": <number>` extraction — enough for the flat baseline file
// this bench writes, without a JSON dependency (same as micro_engine).
double JsonNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return 0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Observability::Instance().ParseFlags(&argc, argv);
  bool smoke = false;
  std::string out_path;
  std::string baseline_path;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(std::strlen("--baseline="));
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  auto config = Config::FromArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }

  // Dataset: small staged bytes standing in for `gb` logical GiB (the
  // Modeled() scale-up, exactly like fig4). Smoke shrinks both.
  const double scale = config->GetDouble("scale", smoke ? 1e-4 : 2.5e-5);
  const Bytes logical =
      static_cast<Bytes>(config->GetInt("gb", smoke ? 1 : 4)) * kGiB;
  const int jobs = static_cast<int>(config->GetInt("jobs", smoke ? 6 : 40));
  std::vector<double> rates;
  {
    std::stringstream ss(config->GetString(
        "rates", smoke ? "0.1,0.8" : "0.05,0.1,0.2,0.4,0.8,1.6,3.2"));
    std::string field;
    while (std::getline(ss, field, ',')) rates.push_back(std::stod(field));
  }

  workloads::StackExchangeParams params;
  params.target_bytes =
      static_cast<Bytes>(static_cast<double>(logical) * scale);
  const std::string data = workloads::GenerateStackExchange(params, nullptr);

  // Arrival processes for the sweep: either the --arrivals= override (one
  // cell per paradigm) or the seeded Poisson rate ladder.
  std::vector<sched::ArrivalSpec> specs;
  if (!bench::Observability::Instance().arrivals().empty()) {
    auto spec = sched::ArrivalSpec::Parse(
        bench::Observability::Instance().arrivals());
    if (!spec.ok()) {
      std::fprintf(stderr, "bad --arrivals: %s\n",
                   spec.status().ToString().c_str());
      return 2;
    }
    specs.push_back(std::move(spec).value());
  } else {
    for (double rate : rates) {
      sched::ArrivalSpec spec;
      spec.kind = sched::ArrivalSpec::Kind::kPoisson;
      spec.rate = rate;
      spec.count = jobs;
      spec.seed = 7;
      specs.push_back(spec);
    }
  }

  std::printf("AnswersCount-as-a-service — %s logical dataset, %d-node "
              "cluster, %d-proc queries (scale=%g)\n\n",
              FormatBytes(logical).c_str(), kNodes, kQueryProcs, scale);

  const sched::Paradigm paradigms[] = {
      sched::Paradigm::kMpi, sched::Paradigm::kShmem, sched::Paradigm::kSpark,
      sched::Paradigm::kMr};
  Table table;
  table.SetHeader({"paradigm", "arrivals", "done", "p50", "p99", "jobs/h",
                   "util", "backfill", "grown"});
  std::string cells_json;
  std::vector<CellResult> cells;
  for (const sched::Paradigm paradigm : paradigms) {
    for (const sched::ArrivalSpec& spec : specs) {
      const CellResult cell = RunCell(paradigm, spec, scale, data);
      table.Row()
          .Cell(cell.paradigm)
          .Cell(cell.arrivals)
          .Cell(std::int64_t{cell.done})
          .Cell(FormatDuration(cell.p50_s))
          .Cell(FormatDuration(cell.p99_s))
          .Cell(std::to_string(static_cast<int>(cell.jobs_per_hour)))
          .Cell(std::to_string(static_cast<int>(cell.utilization * 100)) +
                "%")
          .Cell(std::int64_t{cell.backfills})
          .Cell(static_cast<std::int64_t>(cell.grown));
      AppendCellJson(&cells_json, cell);
      cells.push_back(cell);
    }
  }
  table.Print();

  const PreemptResult panel = RunPreemptionPanel(
      scale, data, /*steps=*/smoke ? 12 : 20, /*queries=*/smoke ? 3 : 4,
      /*rate=*/0.08);
  std::string epochs_json;
  for (int e : panel.restore_epochs) {
    if (!epochs_json.empty()) epochs_json += ", ";
    epochs_json += std::to_string(e);
  }
  std::printf(
      "\npreemption panel: background gang job preempted %d time(s), "
      "%d attempt(s), restore epochs [%s], %d/%d steps executed "
      "(scratch reruns would pay %d), background sojourn %s, "
      "%d/%d queries done\n",
      panel.preemptions, panel.attempts, epochs_json.c_str(),
      panel.steps_executed, panel.steps_total,
      panel.attempts * panel.steps_total, FormatDuration(panel.background_s).c_str(),
      panel.queries_done, smoke ? 3 : 4);

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n  \"bench\": \"svc_answerscount\",\n  \"mode\": \"%s\",\n"
        "  \"cells\": [\n%s\n  ],\n"
        "  \"preemption\": {\"attempts\": %d, \"preemptions\": %d, "
        "\"restore_epochs\": [%s], \"steps_executed\": %d, "
        "\"steps_total\": %d, \"background_s\": %.3f, \"queries_done\": "
        "%d}\n}\n",
        smoke ? "smoke" : "full", cells_json.c_str(), panel.attempts,
        panel.preemptions, epochs_json.c_str(), panel.steps_executed,
        panel.steps_total, panel.background_s, panel.queries_done);
    std::fclose(f);
  }

  // CI gate. The load-sweep numbers are deterministic virtual time, so the
  // baseline holds conservative floors/ceilings (not exact values — model
  // parameters legitimately drift): every paradigm must complete all smoke
  // jobs, clear a jobs/hour floor, and stay under a p99 ceiling at the
  // light rate; the preemption panel must show checkpoint-resume working.
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string baseline = ss.str();
    bool ok = true;
    for (const sched::Paradigm paradigm : paradigms) {
      const std::string name = sched::ParadigmName(paradigm);
      // The lightest-load cell for this paradigm.
      const CellResult* light = nullptr;
      for (const CellResult& cell : cells) {
        if (cell.paradigm == name && (light == nullptr || cell.rate < light->rate)) {
          light = &cell;
        }
      }
      if (light == nullptr) continue;
      const double jph_floor = JsonNumber(baseline, name + "_jobs_per_hour_floor");
      const double p99_ceiling = JsonNumber(baseline, name + "_p99_ceiling_s");
      if (light->done < light->jobs) {
        std::fprintf(stderr, "FAIL: %s completed %d/%d smoke jobs\n",
                     name.c_str(), light->done, light->jobs);
        ok = false;
      }
      if (jph_floor > 0 && light->jobs_per_hour < jph_floor) {
        std::fprintf(stderr, "FAIL: %s jobs/hour %.1f below floor %.1f\n",
                     name.c_str(), light->jobs_per_hour, jph_floor);
        ok = false;
      }
      if (p99_ceiling > 0 && light->p99_s > p99_ceiling) {
        std::fprintf(stderr, "FAIL: %s p99 %.1fs above ceiling %.1fs\n",
                     name.c_str(), light->p99_s, p99_ceiling);
        ok = false;
      }
      std::printf("baseline %s: jobs/h %.1f (floor %.1f), p99 %.1fs "
                  "(ceiling %.1fs)\n",
                  name.c_str(), light->jobs_per_hour, jph_floor, light->p99_s,
                  p99_ceiling);
    }
    // The headline acceptance invariant: a preempted gang job resumes from
    // the latest committed epoch instead of restarting from scratch.
    if (panel.preemptions < 1 || panel.attempts < 2) {
      std::fprintf(stderr,
                   "FAIL: preemption panel never preempted (attempts=%d)\n",
                   panel.attempts);
      ok = false;
    }
    bool resumed = false;
    for (int e : panel.restore_epochs) resumed = resumed || e >= 0;
    if (!resumed) {
      std::fprintf(stderr,
                   "FAIL: no relaunch restored from a snapshot epoch\n");
      ok = false;
    }
    if (panel.steps_executed >= panel.attempts * panel.steps_total) {
      std::fprintf(stderr,
                   "FAIL: preempted job re-ran from scratch (%d steps over "
                   "%d attempts)\n",
                   panel.steps_executed, panel.attempts);
      ok = false;
    }
    if (panel.steps_executed < panel.steps_total) {
      std::fprintf(stderr, "FAIL: background job lost work (%d/%d steps)\n",
                   panel.steps_executed, panel.steps_total);
      ok = false;
    }
    if (!ok) return 1;
  }
  return bench::Observability::Instance().Finish() ? 0 : 1;
}
