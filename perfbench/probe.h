// Host-side probes for the benchmark: wall and CPU clocks, peak RSS, and
// sampled timing of the benchmark's own kernels and closures (the code the
// frameworks call back into). Everything here is measured from outside the
// simulator and never enters its virtual-time event stream.
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Monotonic host seconds.
double WallNow();
/// User + system CPU seconds of this process so far (getrusage).
double CpuNow();
/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// Starts the pace ticker: every 10 ms of this process's CPU time
/// (ITIMER_PROF), a SIGPROF handler times one pass of a fixed piece of
/// work — 2000 hash-table updates over 64 KiB — and logs when it ended and
/// how long it took. The work calls no code of the repository and touches
/// only its own static memory, so no change to the program can move it; it
/// tracks how fast a shared host runs the process at each moment. It costs
/// the process about 0.2% of its time.
void StartPaceTicker();
/// The median time of the ticks that ended between the WallNow() times
/// `from` and `to`, the window widened evenly until it holds at least 16
/// ticks. 0 if no tick has been logged.
double PaceBetween(double from, double to);
/// The coarse pace probe: host seconds, the median of three passes, of a
/// larger fixed piece of work — 120k hash-table updates over 4 MiB, number
/// formatting and a sort, ~6 ms a pass. The ticks are too short to feel
/// other tenants' use of the shared caches and memory; this pass does. Like
/// the ticks, it calls no code of the repository and allocates nothing
/// after its first call.
double WidePace();

/// Running totals of the host time spent inside KernelScopes. `on` is set
/// only for traced rounds; untraced rounds pay one branch per scope.
struct KernelTotals {
  bool on = false;
  std::uint64_t calls = 0;
  double host_s = 0;
};
inline KernelTotals kernels;

/// One timed location in the benchmark's source. Each site samples on its
/// own call count, so closures that alternate cannot alias each other's
/// sampling.
struct KernelSite {
  std::uint64_t seen = 0;
};

/// Counts one kernel call and times it while tracing. With `every` > 1 only
/// every every-th call at `site` reads the clock, and that call's time is
/// scaled by `every`, so clock reads do not swamp per-record closures.
/// A scope must not span a simulated blocking call: the host time of the
/// other processes the engine runs meanwhile would land in it.
class KernelScope {
 public:
  explicit KernelScope(KernelSite& site, int every = 1) {
    if (kernels.on) Start(site, every);
  }
  ~KernelScope() {
    if (every_ != 0) Stop();
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  void Start(KernelSite& site, int every);
  void Stop();

  int every_ = 0;  // 0: this call is not timed
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace perfbench
