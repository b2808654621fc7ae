// Real-runtime microbenchmarks (google-benchmark, wall-clock): the
// components of ParaStack that execute genuinely rather than in virtual
// time — the MiniOMP thread pool, the serde codecs, the simulation
// engine's context-switch machinery, and the fabric cost model.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "bench_opts.h"
#include "net/fabric.h"
#include "omp/omp.h"
#include "serde/serde.h"
#include "sim/engine.h"

namespace {

using namespace pstk;

// ---------------------------------------------------------------------------
// MiniOMP
// ---------------------------------------------------------------------------

void BM_OmpParallelForSum(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::int64_t n = 1 << 20;
  omp::Runtime rt(threads);
  std::vector<double> data(static_cast<std::size_t>(n), 1.5);
  for (auto _ : state) {
    const double sum = rt.ParallelReduce<double>(
        0, n, 0.0,
        [&](std::int64_t lo, std::int64_t hi) {
          double s = 0;
          for (std::int64_t i = lo; i < hi; ++i) {
            s += data[static_cast<std::size_t>(i)];
          }
          return s;
        },
        [](double a, double b) { return a + b; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OmpParallelForSum)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_OmpDynamicSchedule(benchmark::State& state) {
  omp::Runtime rt(4);
  const std::int64_t n = 1 << 16;
  for (auto _ : state) {
    std::atomic<std::int64_t> sink{0};
    rt.ParallelForRanges(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) { sink.fetch_add(hi - lo); },
        omp::Schedule::kDynamic, 256);
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OmpDynamicSchedule);

void BM_OmpTaskSpawn(benchmark::State& state) {
  omp::Runtime rt(4);
  for (auto _ : state) {
    std::atomic<int> done{0};
    omp::TaskGroup group(rt);
    for (int i = 0; i < 256; ++i) {
      group.Run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_OmpTaskSpawn);

// ---------------------------------------------------------------------------
// serde
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::int64_t>> MakeKv(int n) {
  std::vector<std::pair<std::string, std::int64_t>> kv;
  kv.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    kv.emplace_back("key-" + std::to_string(i * 7919 % 1000), i);
  }
  return kv;
}

void BM_SerdeEncodeKv(benchmark::State& state) {
  const auto kv = MakeKv(static_cast<int>(state.range(0)));
  Bytes bytes = 0;
  for (auto _ : state) {
    auto buffer = serde::EncodeToBuffer(kv);
    bytes = buffer.size();
    benchmark::DoNotOptimize(buffer);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerdeEncodeKv)->Arg(100)->Arg(10000);

void BM_SerdeDecodeKv(benchmark::State& state) {
  const auto kv = MakeKv(static_cast<int>(state.range(0)));
  const auto buffer = serde::EncodeToBuffer(kv);
  for (auto _ : state) {
    auto back = serde::DecodeFromBuffer<
        std::vector<std::pair<std::string, std::int64_t>>>(buffer);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buffer.size()));
}
BENCHMARK(BM_SerdeDecodeKv)->Arg(100)->Arg(10000);

// ---------------------------------------------------------------------------
// Simulation engine
// ---------------------------------------------------------------------------

void BM_EngineSpawnRunProcesses(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < procs; ++i) {
      engine.Spawn(std::string("p").append(std::to_string(i)),
                   [](sim::Context& ctx) { ctx.Compute(1.0); });
    }
    auto result = engine.Run();
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_EngineSpawnRunProcesses)->Arg(8)->Arg(64);

void BM_EngineContextSwitches(benchmark::State& state) {
  // Two processes ping-ponging wakes: measures dispatch overhead.
  const int rounds = 1000;
  for (auto _ : state) {
    sim::Engine engine;
    sim::Pid a = engine.Spawn("a", [&](sim::Context& ctx) {
      for (int i = 0; i < rounds; ++i) ctx.BlockUntil(ctx.now() + 1.0, "pp");
    });
    (void)a;
    auto result = engine.Run();
    benchmark::DoNotOptimize(result.end_time);
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_EngineContextSwitches);

void BM_EnginePingPong(benchmark::State& state) {
  // Two processes alternating timed blocks; Arg(1) turns the obs bus on so
  // the dispatch-path tracing overhead is directly comparable to Arg(0).
  const bool traced = state.range(0) != 0;
  const int rounds = 1000;
  for (auto _ : state) {
    sim::Engine engine;
    engine.EnableTrace(traced);
    for (const char* name : {"ping", "pong"}) {
      engine.Spawn(name, [&](sim::Context& ctx) {
        for (int i = 0; i < rounds; ++i) {
          ctx.BlockUntil(ctx.now() + 1.0, "pp");
        }
      });
    }
    auto result = engine.Run();
    benchmark::DoNotOptimize(result.end_time);
    benchmark::DoNotOptimize(engine.obs().events().size());
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
  state.SetLabel(traced ? "tracing on" : "tracing off");
}
BENCHMARK(BM_EnginePingPong)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Fabric cost model
// ---------------------------------------------------------------------------

void BM_FabricTransfer(benchmark::State& state) {
  net::Fabric fabric(16, net::TransportParams::RdmaFdr());
  SimTime t = 0;
  int src = 0;
  for (auto _ : state) {
    const auto times = fabric.Transfer(src, (src + 7) % 16, 64 * 1024, t);
    t = times.arrival;
    src = (src + 1) % 16;
    benchmark::DoNotOptimize(times.arrival);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricTransfer);

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared bench flags before google-benchmark parses argv.
  bench::Observability::Instance().ParseFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // --trace/--metrics capture one traced ping-pong engine (the wall-clock
  // numbers above are never polluted by the exporter).
  if (bench::Observability::Instance().active() ||
      bench::Observability::Instance().metrics()) {
    sim::Engine engine;
    bench::Observability::Instance().Attach(engine);
    for (const char* name : {"ping", "pong"}) {
      engine.Spawn(name, [](sim::Context& ctx) {
        for (int i = 0; i < 100; ++i) ctx.BlockUntil(ctx.now() + 1.0, "pp");
      });
    }
    (void)engine.Run();
    bench::Observability::Instance().Collect(engine, "ping-pong demo");
  }
  return bench::Observability::Instance().Finish() ? 0 : 1;
}
