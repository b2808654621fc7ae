// Engine dispatch-throughput microbenchmark (the tentpole measurement for
// the fiber scheduler): a spawn/yield/block storm at 10^3 / 10^4 / 10^5
// processes, run on both execution backends, reporting scheduler
// dispatches per wall-clock second.
//
// Each process runs `rounds` iterations alternating Yield() (ready-heap
// churn) with a Block() woken by a same-instant scheduled event
// (event-heap churn + wake decrease-key). Every iteration costs exactly
// one dispatch on either backend, so dispatch/s isolates the control
// transfer + scheduler-structure cost the backends differ in. The thread
// backend is capped at 10^4 processes — 10^5 OS threads is not a
// reasonable ask of the host — while the fiber backend runs the full
// sweep.
//
// Flags:
//   --smoke            small sizes (both backends), for ctest
//   --out=<file>       write machine-readable results (BENCH_engine.json)
//   --baseline=<file>  compare smoke throughput against a checked-in
//                      BENCH_engine.baseline.json and exit nonzero on a
//                      >30% regression (CI gate)
// plus the shared bench flags (--sim-backend= etc., see bench_opts.h).
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_opts.h"
#include "common/check.h"
#include "sim/engine.h"

namespace {

using pstk::sim::Backend;
using pstk::sim::Context;
using pstk::sim::Engine;
using pstk::sim::Pid;

struct StormResult {
  Backend backend;
  std::size_t procs = 0;
  std::size_t rounds = 0;
  std::uint64_t dispatches = 0;
  double wall_s = 0;
  [[nodiscard]] double DispatchPerSec() const {
    return wall_s > 0 ? static_cast<double>(dispatches) / wall_s : 0;
  }
};

// Every storm process runs this: `rounds` iterations alternating Yield()
// (ready-heap churn) with a Block() woken by a same-instant scheduled
// event (event-heap churn + wake decrease-key).
pstk::sim::ProcessBody StormBody(std::size_t rounds) {
  return [rounds](Context& ctx) {
    for (std::size_t r = 0; r < rounds; ++r) {
      if (r % 2 == 0) {
        ctx.Yield();
      } else {
        Engine& eng = ctx.engine();
        const Pid self = ctx.pid();
        eng.ScheduleEvent(ctx.now(),
                          [&eng, self, t = ctx.now()] { eng.Wake(self, t); });
        ctx.Block("storm");
      }
    }
  };
}

// One storm run: `procs` processes x `rounds` iterations of
// yield-then-blocked-wake. Deterministic: the trace is a pure function of
// (procs, rounds) on either backend.
StormResult RunStorm(Backend backend, std::size_t procs, std::size_t rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(/*seed=*/42, backend);
  for (std::size_t i = 0; i < procs; ++i) {
    engine.Spawn("storm." + std::to_string(i), StormBody(rounds));
  }
  const auto result = engine.Run();
  const auto t1 = std::chrono::steady_clock::now();
  PSTK_CHECK_MSG(result.status.ok(), "storm failed: "
                                         << result.status.ToString());
  PSTK_CHECK_MSG(result.completed == procs, "storm lost processes");
  StormResult out;
  out.backend = backend;
  out.procs = procs;
  out.rounds = rounds;
  out.dispatches = engine.obs().CounterByName("sim.dispatches");
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

void AppendJson(std::string* json, const StormResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    {\"backend\": \"%s\", \"procs\": %zu, "
                "\"rounds\": %zu, \"dispatches\": %" PRIu64
                ", \"wall_s\": %.6f, \"dispatch_per_s\": %.0f}",
                std::string(pstk::sim::BackendName(r.backend)).c_str(),
                r.procs, r.rounds, r.dispatches, r.wall_s, r.DispatchPerSec());
  if (!json->empty()) *json += ",\n";
  *json += buf;
}

// Minimal extraction of `"key": <number>` from a flat JSON file — enough
// for the baseline format this bench itself writes, without a JSON dep.
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
  pstk::bench::Observability::Instance().ParseFlags(&argc, argv);
  bool smoke = false;
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(std::strlen("--baseline="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // (procs, rounds) pairs sized so every cell runs ~10^6 iterations total,
  // keeping wall time per cell comparable across the sweep.
  struct Cell {
    std::size_t procs, rounds;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells = {{1000, 40}};
  } else {
    cells = {{1000, 1000}, {10000, 100}, {100000, 10}};
  }
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::string json;
  std::vector<StormResult> fiber_results;
  std::vector<StormResult> thread_results;
  std::printf("host cores: %u\n", host_cores);
  std::printf("%-8s %9s %7s %12s %9s %14s\n", "backend", "procs", "rounds",
              "dispatches", "wall_s", "dispatch/s");
  auto print_row = [](const StormResult& r) {
    std::printf("%-8s %9zu %7zu %12" PRIu64 " %9.3f %14.0f\n",
                std::string(pstk::sim::BackendName(r.backend)).c_str(),
                r.procs, r.rounds, r.dispatches, r.wall_s, r.DispatchPerSec());
  };
  for (const Cell& cell : cells) {
    for (const Backend backend : {Backend::kFibers, Backend::kThreads}) {
      // 10^5 OS threads would thrash (or exhaust) the host: fiber-only.
      if (backend == Backend::kThreads && cell.procs > 10000) continue;
      const StormResult r = RunStorm(backend, cell.procs, cell.rounds);
      print_row(r);
      AppendJson(&json, r);
      (backend == Backend::kFibers ? fiber_results : thread_results)
          .push_back(r);
    }
  }

  // Speedup summaries (the paper-facing numbers): fibers vs threads at
  // equal size.
  std::string speedups;
  for (const StormResult& f : fiber_results) {
    for (const StormResult& t : thread_results) {
      if (t.procs != f.procs) continue;
      const double speedup = t.DispatchPerSec() > 0
                                 ? f.DispatchPerSec() / t.DispatchPerSec()
                                 : 0;
      std::printf("fibers vs threads @ %zu procs: %.1fx\n", f.procs, speedup);
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "    {\"procs\": %zu, \"fibers_over_threads\": %.2f}",
                    f.procs, speedup);
      if (!speedups.empty()) speedups += ",\n";
      speedups += buf;
    }
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"micro_engine\",\n  \"mode\": \"%s\",\n"
                 "  \"host_cores\": %u,\n"
                 "  \"results\": [\n%s\n  ],\n  \"speedup\": [\n%s\n  ]\n}\n",
                 smoke ? "smoke" : "full", host_cores, json.c_str(),
                 speedups.c_str());
    std::fclose(f);
  }

  // CI regression gate: smoke throughput must stay within 30% of the
  // checked-in baseline (which is set conservatively below typical runner
  // numbers, so the gate catches real regressions, not runner noise).
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
    for (const char* key :
         {"fibers_dispatch_per_s", "threads_dispatch_per_s"}) {
      const double want = JsonNumber(baseline, key);
      if (want <= 0) continue;
      const auto& results =
          std::strstr(key, "fibers") != nullptr ? fiber_results
                                                : thread_results;
      if (results.empty()) continue;
      const double got = results.front().DispatchPerSec();
      const double floor = 0.7 * want;
      std::printf("baseline %s: got %.0f, floor %.0f (baseline %.0f)\n", key,
                  got, floor, want);
      if (got < floor) {
        std::fprintf(stderr,
                     "FAIL: %s regressed >30%% vs baseline (%.0f < %.0f)\n",
                     key, got, floor);
        ok = false;
      }
    }
    if (!ok) return 1;
  }
  return 0;
}
