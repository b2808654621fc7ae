#include "probe.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <string>
#include <vector>

namespace perfbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

volatile std::uint64_t pace_sink = 0;

constexpr std::size_t kMaxTicks = std::size_t{1} << 16;

/// The ticks logged so far, in time order. Written only by the signal
/// handler; `count` is published after the entry it covers.
struct TickLog {
  double at[kMaxTicks];
  double took[kMaxTicks];
  std::atomic<std::size_t> count{0};
};
TickLog ticks;

/// The fixed work: 2000 open-addressing updates of a 64 KiB table, as a
/// hash map would do them. About 15 us on the host README.md describes.
void PacePass() {
  constexpr std::size_t kSlots = 4096;
  static std::uint64_t keys[kSlots];
  static std::uint64_t values[kSlots];
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = (x & 1023) + 1;
    std::size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 52;
    while (keys[slot] != 0 && keys[slot] != key) slot = (slot + 1) % kSlots;
    keys[slot] = key;
    values[slot] += x;
  }
  pace_sink = values[x % kSlots];
}

/// SIGPROF handler. It touches only static memory and the clock, both
/// safe in a handler.
void OnTick(int) {
  const int saved_errno = errno;
  const double start = WallNow();
  PacePass();
  const double end = WallNow();
  const std::size_t n = ticks.count.load(std::memory_order_relaxed);
  if (n < kMaxTicks) {
    ticks.at[n] = end;
    ticks.took[n] = end - start;
    ticks.count.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

}  // namespace

void StartPaceTicker() {
  // Fiber stacks are small: run the handler on a stack of its own.
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  sigaltstack(&ss, nullptr);
  struct sigaction action {};
  action.sa_handler = OnTick;
  action.sa_flags = SA_RESTART | SA_ONSTACK;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  itimerval every{};
  every.it_interval.tv_usec = 10000;
  every.it_value.tv_usec = 10000;
  setitimer(ITIMER_PROF, &every, nullptr);
}

double PaceBetween(double from, double to) {
  constexpr std::size_t kMinTicks = 16;
  const std::size_t n = ticks.count.load(std::memory_order_acquire);
  const double* at = ticks.at;
  std::size_t lo = std::lower_bound(at, at + n, from) - at;
  std::size_t hi = std::upper_bound(at, at + n, to) - at;
  while (hi - lo < kMinTicks && (lo > 0 || hi < n)) {
    if (lo > 0) --lo;
    if (hi < n && hi - lo < kMinTicks) ++hi;
  }
  if (hi == lo) return 0;
  std::vector<double> took(ticks.took + lo, ticks.took + hi);
  std::nth_element(took.begin(), took.begin() + took.size() / 2, took.end());
  return took[took.size() / 2];
}

namespace {

double WidePass() {
  constexpr std::size_t kSlots = std::size_t{1} << 18;  // 2 x 2 MiB
  constexpr int kSteps = 120000;
  static std::vector<std::uint64_t> keys(kSlots);
  static std::vector<std::uint64_t> values(kSlots);
  static std::vector<std::uint64_t> sorted(kSteps / 4);
  static std::string text(kSteps / 4 * 20, ' ');
  const double start = WallNow();
  std::fill(keys.begin(), keys.end(), 0);
  std::fill(values.begin(), values.end(), 0);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  char* out = text.data();
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = (x & 0xFFFF) + 1;
    std::size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 46;
    while (keys[slot] != 0 && keys[slot] != key) slot = (slot + 1) % kSlots;
    keys[slot] = key;
    values[slot] += x;
    if (i % 4 == 0) {
      sorted[i / 4] = x;
      out = std::to_chars(out, out + 20, x >> 4).ptr;
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t sum = sorted[sorted.size() / 2] + (out - text.data());
  for (std::size_t s = 0; s < kSlots; s += 64) sum += values[s];
  pace_sink = sum;
  return WallNow() - start;
}

}  // namespace

double WidePace() {
  double pass[3];
  for (double& p : pass) p = WidePass();
  std::sort(pass, pass + 3);
  return pass[1];
}

namespace {

/// Cost of the two clock reads around a timed call, measured once as the
/// fastest of many back-to-back pairs and subtracted from every sample, so
/// a closure that takes nanoseconds is not charged the clock's own cost.
double ClockPairSeconds() {
  static const double cost = [] {
    double best = 1.0;
    for (int i = 0; i < 1000; ++i) {
      const auto a = std::chrono::steady_clock::now();
      const auto b = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(b - a).count());
    }
    return best;
  }();
  return cost;
}

}  // namespace

void KernelScope::Start(KernelSite& site, int every) {
  ++kernels.calls;
  if (site.seen++ % static_cast<std::uint64_t>(every) != 0) return;
  every_ = every;
  start_ = std::chrono::steady_clock::now();
}

void KernelScope::Stop() {
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start_;
  kernels.host_s += std::max(0.0, took.count() - ClockPairSeconds()) * every_;
}

}  // namespace perfbench
