#include "sched/arrivals.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pstk::sched {

namespace {

// Times() materializes every arrival up front, so the count is capped.
constexpr std::uint64_t kMaxArrivals = 1'000'000;

// Above the largest exponential gap in rate units: Uniform() is a multiple
// of 2^-53 below 1, so -log(1-U) <= 53 ln 2 ~= 36.7.
constexpr double kMaxGapPerRate = 40.0;

Result<ArrivalSpec> ParsePoisson(const std::string& body) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::kPoisson;
  std::stringstream ss(body);
  std::string field;
  while (std::getline(ss, field, ',')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) {
      return InvalidArgument("bad arrival field '" + field +
                             "' (want key=value)");
    }
    const std::string key = field.substr(0, eq);
    const std::string_view text = std::string_view(field).substr(eq + 1);
    if (key == "rate") {
      auto rate = ParseFiniteNumber(text, "arrival rate");
      if (!rate.ok()) return rate.status();
      spec.rate = *rate;
    } else if (key == "n") {
      auto count = ParseWholeNumber(text, "arrival count", kMaxArrivals);
      if (!count.ok()) return count.status();
      spec.count = static_cast<int>(*count);
    } else if (key == "seed") {
      auto seed = ParseWholeNumber(text, "arrival seed",
                                   std::numeric_limits<std::uint64_t>::max());
      if (!seed.ok()) return seed.status();
      spec.seed = *seed;
    } else {
      return InvalidArgument("unknown arrival key '" + key + "'");
    }
  }
  if (spec.rate <= 0) return InvalidArgument("arrival rate must be > 0");
  if (spec.count <= 0) return InvalidArgument("arrival count must be > 0");
  // Each gap -log(1-U)/rate is at most about 36.7/rate, so this bounds the
  // last arrival time: a tiny rate must not push it to infinity.
  if (!std::isfinite(kMaxGapPerRate * spec.count / spec.rate)) {
    return InvalidArgument("arrival rate too small: times overflow");
  }
  return spec;
}

Result<ArrivalSpec> ParseTrace(const std::string& path) {
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::kTrace;
  std::ifstream in(path);
  if (!in) return NotFound("arrival trace file '" + path + "' not readable");
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view text = TrimWhitespace(line);
    if (text.empty() || text.front() == '#') continue;
    auto t = ParseFiniteNumber(text, "arrival time in " + path);
    if (!t.ok()) return t.status();
    if (*t < 0) return InvalidArgument("negative arrival time in " + path);
    spec.trace.push_back(*t);
  }
  if (spec.trace.empty()) {
    return InvalidArgument("arrival trace '" + path + "' has no events");
  }
  std::sort(spec.trace.begin(), spec.trace.end());
  return spec;
}

}  // namespace

Result<ArrivalSpec> ArrivalSpec::Parse(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) {
    return InvalidArgument("bad --arrivals= spec '" + text +
                           "' (want poisson:... or trace:<file>)");
  }
  const std::string kind = text.substr(0, colon);
  const std::string body = text.substr(colon + 1);
  if (kind == "poisson") return ParsePoisson(body);
  if (kind == "trace") return ParseTrace(body);
  return InvalidArgument("unknown arrival kind '" + kind + "'");
}

std::vector<SimTime> ArrivalSpec::Times() const {
  if (kind == Kind::kTrace) return trace;
  std::vector<SimTime> times;
  times.reserve(static_cast<std::size_t>(count));
  Rng rng(seed);
  SimTime t = 0;
  for (int i = 0; i < count; ++i) {
    // Exponential inter-arrival gap; 1-U keeps log() off exact zero.
    t += -std::log(1.0 - rng.Uniform()) / rate;
    times.push_back(t);
  }
  return times;
}

void ScheduleArrivals(sim::Engine& engine, const ArrivalSpec& spec,
                      std::function<void(int index, SimTime t)> on_arrival) {
  const std::vector<SimTime> times = spec.Times();
  auto shared = std::make_shared<std::function<void(int, SimTime)>>(
      std::move(on_arrival));
  for (int i = 0; i < static_cast<int>(times.size()); ++i) {
    const SimTime t = times[static_cast<std::size_t>(i)];
    engine.ScheduleEvent(t, [shared, i, t] { (*shared)(i, t); });
  }
}

}  // namespace pstk::sched
