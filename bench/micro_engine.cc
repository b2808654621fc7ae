// Engine dispatch-throughput microbenchmark: a spawn/yield/block storm at
// 10^3 / 10^4 / 10^5 processes, reporting scheduler dispatches per
// wall-clock second.
//
// Each process runs `rounds` iterations alternating Yield() (ready-heap
// churn) with a Block() woken by a same-instant scheduled event
// (event-heap churn + wake decrease-key). Every iteration costs exactly
// one dispatch, so dispatch/s isolates the fiber switch + scheduler-
// structure cost.
//
// Flags:
//   --smoke            small sizes, for ctest
//   --out=<file>       write machine-readable results (BENCH_engine.json)
//   --baseline=<file>  compare smoke throughput against a checked-in
//                      BENCH_engine.baseline.json and exit nonzero on a
//                      >30% regression (CI gate)
// plus the shared bench flags (--trace= etc., see bench_opts.h).
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

using pstk::sim::Context;
using pstk::sim::Engine;
using pstk::sim::Pid;

struct StormResult {
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
// (procs, rounds).
StormResult RunStorm(std::size_t procs, std::size_t rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(/*seed=*/42);
  for (std::size_t i = 0; i < procs; ++i) {
    engine.Spawn("storm." + std::to_string(i), StormBody(rounds));
  }
  const auto result = engine.Run();
  const auto t1 = std::chrono::steady_clock::now();
  PSTK_CHECK_MSG(result.status.ok(), "storm failed: "
                                         << result.status.ToString());
  PSTK_CHECK_MSG(result.completed == procs, "storm lost processes");
  StormResult out;
  out.procs = procs;
  out.rounds = rounds;
  out.dispatches = engine.obs().CounterByName("sim.dispatches");
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

void AppendJson(std::string* json, const StormResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"procs\": %zu, \"rounds\": %zu, \"dispatches\": %" PRIu64
                ", \"wall_s\": %.6f, \"dispatch_per_s\": %.0f}",
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
  std::vector<StormResult> results;
  std::printf("host cores: %u\n", host_cores);
  std::printf("%9s %7s %12s %9s %14s\n", "procs", "rounds", "dispatches",
              "wall_s", "dispatch/s");
  for (const Cell& cell : cells) {
    const StormResult r = RunStorm(cell.procs, cell.rounds);
    std::printf("%9zu %7zu %12" PRIu64 " %9.3f %14.0f\n", r.procs, r.rounds,
                r.dispatches, r.wall_s, r.DispatchPerSec());
    AppendJson(&json, r);
    results.push_back(r);
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
                 "  \"results\": [\n%s\n  ]\n}\n",
                 smoke ? "smoke" : "full", host_cores, json.c_str());
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
    const double want = JsonNumber(baseline, "fibers_dispatch_per_s");
    if (want > 0) {
      const double got = results.front().DispatchPerSec();
      const double floor = 0.7 * want;
      std::printf("baseline fibers_dispatch_per_s: got %.0f, floor %.0f "
                  "(baseline %.0f)\n",
                  got, floor, want);
      if (got < floor) {
        std::fprintf(stderr,
                     "FAIL: fibers_dispatch_per_s regressed >30%% vs "
                     "baseline (%.0f < %.0f)\n",
                     got, floor);
        return 1;
      }
    }
  }
  return 0;
}
