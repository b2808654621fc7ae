#include "bench_opts.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/log.h"
#include "obs/obs.h"

namespace pstk::bench {

Observability& Observability::Instance() {
  static Observability instance;
  return instance;
}

void Observability::ParseFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path_ = std::string(arg.substr(std::strlen("--trace=")));
    } else if (arg == "--metrics") {
      metrics_ = true;
    } else if (arg == "--verify") {
      verify_ = true;
    } else if (arg.rfind("--arrivals=", 0) == 0) {
      arrivals_ = std::string(arg.substr(std::strlen("--arrivals=")));
    } else if (arg.rfind("--faults=", 0) == 0) {
      auto plan = sim::FaultPlan::Parse(arg.substr(std::strlen("--faults=")));
      if (!plan.ok()) {
        std::fprintf(stderr, "bad --faults: %s\n",
                     plan.status().ToString().c_str());
        std::exit(2);
      }
      fault_plan_ = std::move(plan).value();
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;
}

bool TakeFlag(int* argc, char** argv, std::string_view flag) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (argv[i] == flag) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;
  return found;
}

void Observability::Attach(sim::Engine& engine) {
  if (active() || metrics_) engine.EnableTrace(true);
  if (verify_) engine.verify().Enable();
  buf_at_attach_ = buf::SnapshotStats();
}

void Observability::Collect(sim::Engine& engine, const std::string& label) {
  if (active() || metrics_) {
    // Attribute the data plane's buffer activity since Attach to this run.
    const buf::StatsSnapshot now = buf::SnapshotStats();
    obs::Registry& obs = engine.obs();
    obs.Add(obs.Intern("buf.chunks_allocated"),
            now.chunks_allocated - buf_at_attach_.chunks_allocated);
    obs.Add(obs.Intern("buf.chunks_aliased"),
            now.chunks_aliased - buf_at_attach_.chunks_aliased);
    std::array<std::uint64_t, obs::Histogram::kBuckets> hist{};
    double min = 0.0;
    double max = 0.0;
    for (std::size_t b = 0; b < hist.size(); ++b) {
      hist[b] = now.copy_hist[b] - buf_at_attach_.copy_hist[b];
      if (hist[b] == 0) continue;
      // Bucket b holds values with binary exponent b - 32.
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 32);
      if (min == 0.0) min = lo;
      max = lo * 2;
    }
    obs.MergeHistogram(
        obs.Intern("buf.copy_bytes"),
        obs::Histogram::FromRaw(
            now.copies - buf_at_attach_.copies,
            static_cast<double>(now.copy_bytes - buf_at_attach_.copy_bytes),
            min, max, hist));
  }
  if (active()) {
    // Give each run its own pid block so merged runs don't overlap.
    engine.obs().AppendChromeTraceEvents(&events_json_, runs_ * 1000,
                                         label + " / ");
  }
  ++runs_;
  if (metrics_) engine.obs().MetricsTable(label).Print();
  if (verify_) {
    std::printf("--- verify: %s ---\n%s", label.c_str(),
                engine.verify().RenderReport().c_str());
  }
}

bool Observability::Finish() {
  if (!active()) return true;
  std::FILE* f = std::fopen(trace_path_.c_str(), "w");
  if (f == nullptr) {
    PSTK_WARN("bench") << "cannot write trace file " << trace_path_;
    return false;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  std::fwrite(events_json_.data(), 1, events_json_.size(), f);
  std::fputs("\n]}\n", f);
  std::fclose(f);
  return true;
}

}  // namespace pstk::bench
