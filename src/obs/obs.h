// Typed, deterministic instrumentation bus.
//
// Every layer of the stack (sim, net, storage, dfs, mr, spark) publishes
// into one Registry per simulation engine instead of keeping ad-hoc
// counters. Three primitives:
//
//  * counters   — always on: a branch plus an integer add;
//  * histograms — value distributions (message sizes, op latencies),
//                 recorded only while the registry is enabled;
//  * spans      — begin/end (and instant) events in virtual time on a
//                 (node, track) pair, recorded only while enabled.
//
// All strings are interned up front to TagIds, so the hot path never
// allocates. Exports are deterministic: identical simulations produce
// byte-identical Chrome trace_event JSON and identical metrics tables.
// Every exporter resolves tags by *name*, so exported bytes do not depend
// on the order in which tags were interned.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "common/units.h"

namespace pstk::obs {

/// Interned string id. 0 is reserved for "no tag".
using TagId = std::uint32_t;
inline constexpr TagId kNoTag = 0;

/// Power-of-two-bucketed histogram with exact count/sum/min/max. Buckets
/// cover ~[2^-32, 2^32) (bucket = binary exponent + 32, clamped), which
/// spans nanoseconds to gigabytes for the latency/size samples we record.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double value);

  /// Fold another histogram into this one (bucket-wise; count/sum/min/max
  /// combine exactly). Used by Registry::MergeHistogram.
  void Merge(const Histogram& other);

  /// Build a histogram from externally accumulated raw state (same bucket
  /// layout). Lets lock-free recorders (buf::Stats) publish into metrics
  /// tables. min/max may be approximations of the recorder's knowledge.
  [[nodiscard]] static Histogram FromRaw(
      std::uint64_t count, double sum, double min, double max,
      const std::array<std::uint64_t, kBuckets>& buckets);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

enum class Phase : std::uint8_t {
  kBegin,    // Chrome "B"
  kEnd,      // Chrome "E"
  kInstant,  // Chrome "i"
};

/// One recorded event. `node` exports as the Chrome pid, `track` as the
/// tid (the sim layer uses its Pid as the track).
struct Event {
  SimTime time = 0;
  std::int32_t node = 0;
  std::uint32_t track = 0;
  TagId tag = kNoTag;
  TagId detail = kNoTag;
  Phase phase = Phase::kInstant;
};

/// The per-engine instrumentation bus. Recording is single-threaded: it
/// happens on the engine's control flow, one process or event at a time.
class Registry {
 public:
  Registry() { names_.push_back(""); }  // TagId 0 = kNoTag

  /// Turn span/histogram recording on or off. Enabling reserves event
  /// storage so recording does not reallocate mid-run.
  void Enable(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Intern `name`, returning a stable id. Idempotent. Serialized
  /// internally, so any host thread may call it.
  TagId Intern(std::string_view name);
  [[nodiscard]] const std::string& Name(TagId tag) const { return names_[tag]; }

  // -- counters (always on) ----------------------------------------------
  void Add(TagId tag, std::uint64_t delta = 1) {
    if (tag >= counters_.size()) counters_.resize(names_.size(), 0);
    counters_[tag] += delta;
  }
  [[nodiscard]] std::uint64_t counter(TagId tag) const {
    return tag < counters_.size() ? counters_[tag] : 0;
  }
  [[nodiscard]] std::uint64_t CounterByName(std::string_view name) const;

  // -- histograms (gated on enabled) -------------------------------------
  void Observe(TagId tag, double value) {
    if (!enabled_) return;
    histograms_[tag].Record(value);
  }
  /// nullptr if nothing was recorded under `tag`.
  [[nodiscard]] const Histogram* histogram(TagId tag) const;
  /// Fold an externally built histogram into `tag` (bypasses the enabled_
  /// gate: used by bench harnesses publishing process-global stats into a
  /// finished run's table).
  void MergeHistogram(TagId tag, const Histogram& h) {
    if (h.count() > 0) histograms_[tag].Merge(h);
  }

  // -- spans / instants (gated on enabled) -------------------------------
  void BeginSpan(std::int32_t node, std::uint32_t track, TagId tag,
                 SimTime t) {
    if (enabled_) {
      events_.push_back({t, node, track, tag, kNoTag, Phase::kBegin});
    }
  }
  void EndSpan(std::int32_t node, std::uint32_t track, TagId tag, SimTime t) {
    if (enabled_) events_.push_back({t, node, track, tag, kNoTag, Phase::kEnd});
  }
  void Instant(std::int32_t node, std::uint32_t track, TagId tag, SimTime t,
               TagId detail = kNoTag) {
    if (enabled_) {
      events_.push_back({t, node, track, tag, detail, Phase::kInstant});
    }
  }

  /// Name a (node, track) pair for the trace viewer (thread_name metadata).
  void SetTrackName(std::int32_t node, std::uint32_t track,
                    std::string_view name);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  // -- exporters ----------------------------------------------------------

  /// Complete Chrome trace_event JSON ({"traceEvents": [...]}) with
  /// pid=node and tid=track, timestamps in microseconds. Deterministic:
  /// identical event sequences serialize byte-identically.
  [[nodiscard]] std::string ToChromeTraceJson() const;

  /// Append this registry's events as comma-separated JSON objects (no
  /// surrounding brackets) with every pid offset by `pid_offset` and
  /// process names prefixed by `process_prefix` — lets a bench harness
  /// merge several runs into one trace file.
  void AppendChromeTraceEvents(std::string* out, int pid_offset,
                               std::string_view process_prefix) const;

  /// Counter + histogram summary (name-sorted, zero entries skipped),
  /// rendered through the shared table emitter.
  [[nodiscard]] Table MetricsTable(std::string title) const;

 private:
  bool enabled_ = false;
  std::mutex intern_mu_;
  std::map<std::string, TagId, std::less<>> index_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> counters_;
  std::map<TagId, Histogram> histograms_;
  std::vector<Event> events_;
  std::map<std::pair<std::int32_t, std::uint32_t>, std::string> track_names_;
};

}  // namespace pstk::obs
