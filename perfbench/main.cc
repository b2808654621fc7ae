// Host-time benchmark of the simulator on three paper-shaped workloads.
//
//   perfbench --workload <pagerank-tuned|pagerank-shuffle|answerscount-wide>
//             [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//             [--perturb-reference]
//
// A run generates its inputs from the seed (the set-up phase, repeated
// between rounds and reported as a median), then runs the workload's jobs
// back to back, one round after another, until `--seconds` is used up: a
// closed loop of one client on one host thread. Every job's answer is
// checked against the serial reference. End-to-end timings restate each
// job's host time at a reference host pace (see AtReferencePace()) and take
// the median over the untraced rounds; `--trace 1` alternates untraced and
// traced rounds and reports the per-layer metrics of the traced ones
// instead. The last line of stdout is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
//
// `--tiny` shrinks every workload for tests; `--perturb-reference` corrupts
// the reference answers so every check must fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "buf/bytes.h"
#include "jobs.h"
#include "probe.h"
#include "workloads/pagerank.h"

namespace perfbench {
namespace {

using pstk::workloads::VertexId;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
};

/// What PaceBetween() and WidePace() read on the host the reference numbers
/// in README.md were taken on, when it is quiet. Host times are reported at
/// this pace.
constexpr double kReferenceTickS = 1.5e-5;
constexpr double kReferenceWideS = 0.0055;
/// Set-ups after each round; setup_s is the median of all of them.
constexpr int kSetupsPerRound = 3;

/// Host times of the set-up phase (one repeat).
struct SetupTimes {
  double total_s = 0;
  double gen_s = 0;        // workloads::Generate*
  double reference_s = 0;  // the serial reference solution
  double start = 0;        // WallNow() when this set-up began
  double end = 0;          // and ended
  double wide = 0;         // WidePace() before its batch of set-ups
};

using Job = std::function<JobReport(bool trace)>;

struct Workload {
  /// (Re)builds the inputs the jobs read, from the seed alone.
  std::function<SetupTimes()> setup;
  std::vector<Job> jobs;
};

// --- set-up -----------------------------------------------------------------

SetupTimes MakePageRankInputs(std::uint64_t seed, VertexId vertices,
                              int iterations, PageRankInputs& in) {
  SetupTimes t;
  const double start = WallNow();
  pstk::workloads::GraphParams params;
  params.vertices = vertices;
  params.seed = seed;
  in.iterations = iterations;
  in.graph = pstk::workloads::GenerateGraph(params);
  t.gen_s = WallNow() - start;
  double mark = WallNow();
  in.reference = pstk::workloads::PageRankReference(in.graph, iterations);
  t.reference_s = WallNow() - mark;

  const auto& g = in.graph;
  in.links.clear();
  in.links.reserve(g.vertices);
  in.text.clear();
  for (VertexId v = 0; v < g.vertices; ++v) {
    std::vector<std::int64_t> targets(g.targets.begin() + g.offsets[v],
                                      g.targets.begin() + g.offsets[v + 1]);
    in.text += std::to_string(v);
    in.text += "\t1";
    for (std::int64_t target : targets) {
      in.text += ' ';
      in.text += std::to_string(target);
    }
    in.text += '\n';
    in.links.emplace_back(v, std::move(targets));
  }
  t.total_s = WallNow() - start;
  return t;
}

SetupTimes MakePostInputs(std::uint64_t seed, double logical_gib, double scale,
                          PostInputs& in) {
  SetupTimes t;
  const double start = WallNow();
  pstk::workloads::StackExchangeParams params;
  params.seed = seed;
  params.target_bytes =
      static_cast<pstk::Bytes>(logical_gib * scale * pstk::kGiB);
  in.scale = scale;
  in.data = pstk::workloads::GenerateStackExchange(params, &in.truth);
  t.gen_s = WallNow() - start;
  const double mark = WallNow();
  const auto counted = pstk::workloads::CountPosts(in.data);
  t.reference_s = WallNow() - mark;
  in.lines = static_cast<std::uint64_t>(
      std::count(in.data.begin(), in.data.end(), '\n'));
  if (counted.questions != in.truth.questions ||
      counted.answers != in.truth.answers) {
    std::fprintf(stderr, "serial AnswersCount disagrees with the generator\n");
    std::exit(1);
  }
  t.total_s = WallNow() - start;
  return t;
}

/// Builds the named workload: how to set up its inputs, and the job list
/// of one round. Returns false for an unknown name.
bool BuildWorkload(const Options& opt, PageRankInputs& pr, PostInputs& posts,
                   Workload& w) {
  const bool tiny = opt.tiny;
  if (opt.workload == "pagerank-tuned" || opt.workload == "pagerank-shuffle") {
    const bool tuned = opt.workload == "pagerank-tuned";
    const VertexId vertices = tiny ? 2000 : 60000;
    const int iterations = tiny ? 2 : 3;
    w.setup = [&opt, &pr, vertices, iterations] {
      const SetupTimes t =
          MakePageRankInputs(opt.seed, vertices, iterations, pr);
      if (opt.perturb) pr.reference[0] += 1e-3;
      return t;
    };
    constexpr int kPpn = 16;  // the paper's 16 processes/node (Fig 6/7)
    if (tuned) {
      // Fig 6: MPI vs BigDataBench Spark (socket, RDMA) over node counts.
      const std::vector<int> node_counts =
          tiny ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
      for (int nodes : node_counts) {
        w.jobs.push_back([&pr, nodes](bool trace) {
          return RunMpiPageRank(pr, nodes, kPpn, trace);
        });
        for (bool rdma : {false, true}) {
          w.jobs.push_back([&pr, nodes, rdma](bool trace) {
            return RunSparkPageRank(pr, nodes, kPpn, rdma, /*tuned=*/true,
                                    trace);
          });
        }
      }
    } else {
      // Fig 7: HiBench Spark (socket, RDMA), plus chained MR PageRank.
      for (int nodes : tiny ? std::vector<int>{2} : std::vector<int>{2, 4}) {
        for (bool rdma : {false, true}) {
          w.jobs.push_back([&pr, nodes, rdma](bool trace) {
            return RunSparkPageRank(pr, nodes, kPpn, rdma, /*tuned=*/false,
                                    trace);
          });
        }
      }
      const int mr_nodes = tiny ? 2 : 4;
      w.jobs.push_back([&pr, mr_nodes](bool trace) {
        return RunMrPageRank(pr, mr_nodes, trace);
      });
    }
    return true;
  }
  if (opt.workload == "answerscount-wide") {
    // Fig 4 at 2048 ranks (8 per node) over the paper's 80 GiB, staged at a
    // small scale: many processes, a trivial kernel.
    const int procs = tiny ? 64 : 2048;
    constexpr int kPpn = 8;
    const double scale = tiny ? 1e-5 : 2e-5;
    w.setup = [&opt, &posts, scale] {
      const SetupTimes t = MakePostInputs(opt.seed, 80, scale, posts);
      if (opt.perturb) ++posts.truth.answers;
      return t;
    };
    const int nodes = procs / kPpn;
    w.jobs.push_back([&posts, procs](bool trace) {
      return RunMpiAnswers(posts, procs, kPpn, trace);
    });
    w.jobs.push_back([&posts, nodes](bool trace) {
      return RunMrAnswers(posts, nodes, kPpn, trace);
    });
    w.jobs.push_back([&posts, nodes](bool trace) {
      return RunSparkAnswers(posts, nodes, kPpn, trace);
    });
    return true;
  }
  return false;
}

// --- rounds -----------------------------------------------------------------

/// One pass over the workload's jobs.
struct Round {
  double wall_s = 0;
  double records = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  // of every job's simulated time
  std::vector<JobReport> jobs;
  /// WallNow() when each job began and ended.
  std::vector<std::pair<double, double>> spans;
  /// WidePace() before the first job and after each job.
  std::vector<double> wide;
  std::map<std::string, double> layer;  // summed over jobs
};

double JobWall(const JobReport& job) { return job.build_s + job.run_s; }
double JobCpu(const JobReport& job) { return job.cpu_s; }

std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Round RunRound(const Workload& w, bool trace) {
  Round round;
  kernels.on = trace;
  const pstk::buf::StatsSnapshot buf_before = pstk::buf::SnapshotStats();
  round.wide.push_back(WidePace());
  for (const Job& job : w.jobs) {
    const double start = WallNow();
    round.jobs.push_back(job(trace));
    round.spans.emplace_back(start, WallNow());
    round.wall_s += JobWall(round.jobs.back());
    round.wide.push_back(WidePace());
  }
  const pstk::buf::StatsSnapshot buf_after = pstk::buf::SnapshotStats();
  kernels.on = false;

  round.digest = 14695981039346656037ULL;
  auto& layer = round.layer;
  for (const JobReport& job : round.jobs) {
    round.records += job.records;
    if (!job.ok) ++round.failed;
    round.digest = Fnv1a(round.digest,
                         job.label + "=" + Exact(job.virtual_s) + ";");
    for (const auto& [name, value] : job.layer) layer[name] += value;
    const double dispatch = job.layer.at("sim.dispatch_host_s");
    // A framework's host time is what its dispatches cost beyond the
    // benchmark's own kernels; the scheduler's is the rest of the call.
    layer[job.paradigm + ".host_s"] +=
        dispatch - job.layer.at("kernel.host_s");
    layer[job.paradigm + ".virtual_s"] += job.virtual_s;
    layer["sim.sched_host_s"] += job.run_s - dispatch;
    const auto install = job.layer.find("dfs.install_s");
    layer["cluster.build_s"] +=
        job.build_s - (install == job.layer.end() ? 0.0 : install->second);
  }
  const double hits = layer["spark.cache_hits"];
  const double lookups = hits + layer["spark.cache_misses"];
  layer["spark.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  const double iterations = layer["spark.iterations"];
  layer["shuffle.bytes_per_spark_iter"] =
      iterations > 0 ? layer["shuffle.bytes_fetched"] / iterations : 0.0;
  layer["buf.copy_bytes"] =
      static_cast<double>(buf_after.copy_bytes - buf_before.copy_bytes);
  layer["buf.chunks_allocated"] = static_cast<double>(
      buf_after.chunks_allocated - buf_before.chunks_allocated);
  return round;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

template <typename T, typename Fn>
double MedianOf(const std::vector<T>& items, Fn&& field) {
  std::vector<double> values;
  values.reserve(items.size());
  for (const T& item : items) values.push_back(field(item));
  return Median(std::move(values));
}

/// A host time `seconds` taken between the WallNow() times `from` and `to`,
/// with WidePace() reading `wide` around it, restated at the reference
/// pace: what the same work takes on the same host running at its
/// reference speed. Other tenants of a shared host slow the program and the
/// probes alike, so the ratio cancels them. The ticks see the core slow
/// down, the wide pass the shared caches and memory; the program feels
/// both, so the pace is their geometric mean.
double AtReferencePace(double seconds, double from, double to, double wide) {
  const double tick = PaceBetween(from, to);
  if (tick <= 0) return seconds;
  return seconds /
         std::sqrt(tick / kReferenceTickS * wide / kReferenceWideS);
}

/// The median over `rounds` of each job's `field` at the reference pace,
/// summed over the jobs of a round.
template <typename Fn>
double PacedPerJob(const std::vector<Round>& rounds, Fn&& field) {
  double sum = 0;
  for (std::size_t j = 0; j < rounds.front().jobs.size(); ++j) {
    sum += MedianOf(rounds, [&](const Round& r) {
      return AtReferencePace(field(r.jobs[j]), r.spans[j].first,
                             r.spans[j].second,
                             0.5 * (r.wide[j] + r.wide[j + 1]));
    });
  }
  return sum;
}

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics reported by a traced run, in print order. Counts and
/// bytes are per round (one pass over the workload's jobs).
constexpr Metric kLayerMetrics[] = {
    {"sim.dispatches", "count"},
    {"sim.wakes", "count"},
    {"sim.spawns", "count"},
    {"sim.dispatch_host_s", "s"},
    {"sim.sched_host_s", "s"},
    {"mpi.host_s", "s"},
    {"mpi.allreduce_calls", "count"},
    {"mpi.allreduce_bytes", "bytes"},
    {"mpi.virtual_s", "sim_s"},
    {"spark.host_s", "s"},
    {"spark.tasks", "count"},
    {"shuffle.bytes_fetched", "bytes"},
    {"shuffle.bytes_per_spark_iter", "bytes"},
    {"spark.cache_hit_ratio", "ratio"},
    {"spark.virtual_s", "sim_s"},
    {"mr.host_s", "s"},
    {"mr.spilled_bytes", "bytes"},
    {"mr.shuffled_bytes", "bytes"},
    {"mr.map_output_records", "count"},
    {"mr.virtual_s", "sim_s"},
    {"net.sends.eager", "count"},
    {"net.sends.rendezvous", "count"},
    {"net.sends.async", "count"},
    {"buf.copy_bytes", "bytes"},
    {"buf.chunks_allocated", "count"},
    {"dfs.bytes_read", "bytes"},
    {"dfs.remote_reads", "count"},
    {"dfs.install_s", "s"},
    {"cluster.build_s", "s"},
    {"kernel.host_s", "s"},
    {"kernel.calls", "count"},
    {"workloads.gen_s", "s"},
    {"workloads.reference_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

void AppendMetric(std::string& json, const char* name, double value,
                  const char* unit) {
  if (json.back() != '{') json += ", ";
  json += '"';
  json += name;
  json += "\": {\"value\": ";
  json += Exact(value);
  json += ", \"unit\": \"";
  json += unit;
  json += "\"}";
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--perturb-reference") {
      opt.perturb = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt)) return 2;
  PageRankInputs pr;
  PostInputs posts;
  Workload w;
  if (!BuildWorkload(opt, pr, posts, w)) {
    std::fprintf(stderr,
                 "perfbench: --workload must be pagerank-tuned, "
                 "pagerank-shuffle or answerscount-wide\n");
    return 2;
  }

  // Set-up, one untimed warm-up round (checked like the others), then a
  // closed loop of one: rounds back to back until the time is used up,
  // always at least one (and, traced, one untraced plus one traced). The
  // set-up is re-run after every round so its samples spread over the run.
  StartPaceTicker();
  std::vector<SetupTimes> setups;
  const auto set_up = [&w, &setups](int times) {
    const double wide = WidePace();
    for (int i = 0; i < times; ++i) {
      const double start = WallNow();
      setups.push_back(w.setup());
      setups.back().start = start;
      setups.back().end = WallNow();
      setups.back().wide = wide;
    }
  };
  set_up(1);
  const Round warmup = RunRound(w, false);
  const double peak_rss_mib = PeakRssMib();
  std::vector<Round> plain;
  std::vector<Round> traced;
  const double deadline = WallNow() + opt.seconds;
  double last = 0;
  do {
    const double start = WallNow();
    plain.push_back(RunRound(w, false));
    if (opt.trace) traced.push_back(RunRound(w, true));
    set_up(kSetupsPerRound);
    last = WallNow() - start;
  } while (WallNow() + last <= deadline);

  // Human-readable report: every job of the first round, then the digest.
  std::uint64_t attempted = warmup.jobs.size();
  std::uint64_t failed = warmup.failed;
  bool deterministic = true;
  for (const auto* rounds : {&plain, &traced}) {
    for (const Round& r : *rounds) {
      attempted += r.jobs.size();
      failed += r.failed;
      deterministic = deterministic && r.digest == warmup.digest;
    }
  }
  std::printf("workload %s seed %llu: %zu job(s) per round, %zu untraced + "
              "%zu traced round(s)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              w.jobs.size(), plain.size(), traced.size());
  for (const JobReport& job : plain.front().jobs) {
    std::printf("  %-26s %-4s virtual %-22s host %.3f s (build %.3f s)  %s\n",
                job.label.c_str(), job.ok ? "ok" : "FAIL",
                Exact(job.virtual_s).c_str(), job.build_s + job.run_s,
                job.build_s, job.detail.c_str());
  }
  for (const auto* rounds : {&plain, &traced}) {
    if (rounds->empty()) continue;
    std::printf("%s round wall_s:", rounds == &plain ? "untraced" : "traced");
    for (const Round& r : *rounds) std::printf(" %.4f", r.wall_s);
    std::printf("\n");
  }
  std::vector<double> ticks;
  std::vector<double> wides;
  for (const Round& r : plain) {
    for (const auto& [from, to] : r.spans) {
      ticks.push_back(PaceBetween(from, to));
    }
    wides.insert(wides.end(), r.wide.begin(), r.wide.end());
  }
  std::printf("pace ticks %.4g s, wide %.4g s (medians over the jobs; "
              "reference %g s, %g s)\n",
              Median(ticks), Median(wides), kReferenceTickS, kReferenceWideS);
  std::printf("virtual-time digest %016llx%s",
              static_cast<unsigned long long>(warmup.digest),
              deterministic ? "" : " (DIFFERS BETWEEN ROUNDS)");
  for (const char* name :
       {"mpi.virtual_s", "spark.virtual_s", "mr.virtual_s"}) {
    const auto it = warmup.layer.find(name);
    std::printf("  %s %s", name,
                Exact(it == warmup.layer.end() ? 0.0 : it->second).c_str());
  }
  std::printf("\n");
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("fail_frac %.6g (%llu of %llu jobs)\n", fail_frac,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string metrics = "{";
  const double wall = PacedPerJob(plain, JobWall);
  if (!opt.trace) {
    AppendMetric(metrics, "wall_s", wall, "s");
    AppendMetric(metrics, "cpu_s", PacedPerJob(plain, JobCpu), "s");
    AppendMetric(metrics, "setup_s", MedianOf(setups, [](const SetupTimes& s) {
                   return AtReferencePace(s.total_s, s.start, s.end, s.wide);
                 }), "s");
    AppendMetric(metrics, "peak_rss_mib", peak_rss_mib, "MiB");
    AppendMetric(metrics, "records_per_s", plain.front().records / wall,
                 "1/s");
  } else {
    std::map<std::string, double> layer;
    for (const Metric& m : kLayerMetrics) {
      layer[m.name] = MedianOf(traced, [&](const Round& r) {
        const auto it = r.layer.find(m.name);
        return it == r.layer.end() ? 0.0 : it->second;
      });
    }
    layer["workloads.gen_s"] =
        MedianOf(setups, [](const SetupTimes& s) { return s.gen_s; });
    layer["workloads.reference_s"] =
        MedianOf(setups, [](const SetupTimes& s) { return s.reference_s; });
    layer["trace.overhead_frac"] = PacedPerJob(traced, JobWall) / wall - 1.0;
    for (const Metric& m : kLayerMetrics) {
      std::printf("  %-30s %-22s %s\n", m.name, Exact(layer[m.name]).c_str(),
                  m.unit);
      AppendMetric(metrics, m.name, layer[m.name], m.unit);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && deterministic ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
