#include "sim/fault.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pstk::sim {

namespace {

constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();

// Exponential materializes every event up front, so a spec that expects
// more than this many (horizon / mtbf) is refused rather than left to run
// the host out of memory.
constexpr double kMaxExpectedFaults = 1e6;

/// `mtbf=<s>,horizon=<s>,nodes=<n>[,first=<id>][,down=<s>][,seed=<u64>]`
/// — the CLI spelling of FaultPlan::Exponential.
Result<FaultPlan> ParseExponential(std::string_view body) {
  double mtbf = 0, horizon = 0, down = 0;
  std::uint64_t nodes = 0, first = 0, seed = 1;
  for (const std::string& field : SplitNonEmpty(body, ',')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) {
      return InvalidArgument("bad exp fault field '" + field +
                             "' (want key=value)");
    }
    const std::string key = field.substr(0, eq);
    const std::string_view text = std::string_view(field).substr(eq + 1);
    if (key == "mtbf" || key == "horizon" || key == "down") {
      auto value = ParseFiniteNumber(text, key);
      if (!value.ok()) return value.status();
      (key == "mtbf" ? mtbf : key == "horizon" ? horizon : down) = *value;
    } else if (key == "nodes" || key == "first" || key == "seed") {
      auto value = ParseWholeNumber(
          text, key,
          key == "seed" ? std::numeric_limits<std::uint64_t>::max()
                        : kMaxInt);
      if (!value.ok()) return value.status();
      (key == "nodes" ? nodes : key == "first" ? first : seed) = *value;
    } else {
      return InvalidArgument("unknown exp fault key '" + key + "'");
    }
  }
  if (mtbf <= 0) return InvalidArgument("exp fault needs mtbf > 0");
  if (horizon <= 0) return InvalidArgument("exp fault needs horizon > 0");
  if (horizon / mtbf > kMaxExpectedFaults) {
    return InvalidArgument(
        "exp fault expects more than 1e6 failures (horizon / mtbf)");
  }
  if (nodes == 0) return InvalidArgument("exp fault needs nodes > 0");
  if (first >= nodes) {
    return InvalidArgument("exp fault first node out of range");
  }
  if (down < 0) return InvalidArgument("exp fault down must be >= 0");
  // Every fault lands before the horizon, so this bounds each restore time.
  if (!std::isfinite(horizon + down)) {
    return InvalidArgument("exp fault horizon + down overflows");
  }
  return FaultPlan::Exponential(mtbf, horizon, static_cast<int>(nodes),
                                static_cast<int>(first), down, seed);
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  constexpr std::string_view kExp = "exp:";
  if (spec.rfind(kExp, 0) == 0) {
    return ParseExponential(spec.substr(kExp.size()));
  }
  FaultPlan plan;
  for (const std::string& entry : SplitNonEmpty(spec, ',')) {
    constexpr std::string_view kPrefix = "node:";
    if (entry.rfind(kPrefix, 0) != 0) {
      return InvalidArgument("fault entry '" + entry +
                             "' does not start with 'node:'");
    }
    const std::string_view rest =
        std::string_view(entry).substr(kPrefix.size());
    const auto at = rest.find('@');
    if (at == std::string_view::npos) {
      return InvalidArgument("fault entry '" + entry + "' is missing '@<t>'");
    }
    FaultEvent event;
    auto node = ParseWholeNumber(rest.substr(0, at), "node id", kMaxInt);
    if (!node.ok()) return node.status();
    event.node = static_cast<int>(*node);
    std::string_view when = rest.substr(at + 1);
    const auto plus = when.find('+');
    if (plus != std::string_view::npos) {
      auto down = ParseFiniteNumber(when.substr(plus + 1), "repair delay");
      if (!down.ok()) return down.status();
      if (*down < 0) return InvalidArgument("repair delay must be >= 0");
      event.down_for = *down;
      when = when.substr(0, plus);
    }
    auto time = ParseFiniteNumber(when, "fault time");
    if (!time.ok()) return time.status();
    if (*time < 0) return InvalidArgument("fault time must be >= 0");
    event.time = *time;
    if (event.transient() && !std::isfinite(event.time + event.down_for)) {
      return InvalidArgument("fault entry '" + entry +
                             "' restores the node at an infinite time");
    }
    plan.events.push_back(event);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return plan;
}

FaultPlan FaultPlan::Exponential(SimTime mtbf, SimTime horizon, int nodes,
                                 int first_node, SimTime down_for,
                                 std::uint64_t seed) {
  PSTK_CHECK_MSG(mtbf > 0, "MTBF must be positive");
  PSTK_CHECK_MSG(first_node >= 0 && first_node < nodes,
                 "bad first_node " << first_node << " for " << nodes
                                   << " nodes");
  FaultPlan plan;
  Rng rng(seed);
  int victim = first_node;
  SimTime t = 0;
  for (;;) {
    // Inverse-CDF exponential; 1 - Uniform() is in (0, 1] so log is finite.
    t += -mtbf * std::log(1.0 - rng.Uniform());
    if (t >= horizon) break;
    plan.events.push_back(FaultEvent{victim, t, down_for});
    ++victim;
    if (victim >= nodes) victim = first_node;
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) oss << ',';
    oss << "node:" << events[i].node << '@' << events[i].time;
    if (events[i].transient()) oss << '+' << events[i].down_for;
  }
  return oss.str();
}

}  // namespace pstk::sim
