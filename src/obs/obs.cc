#include "obs/obs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pstk::obs {
namespace {

// Bucket index for a positive value: binary exponent shifted so the
// range [2^-32, 2^32) maps onto [0, 64).
int BucketFor(double value) {
  if (!(value > 0)) return 0;
  int exp = 0;
  (void)std::frexp(value, &exp);
  return std::clamp(exp + 32, 0, Histogram::kBuckets - 1);
}

// Minimal JSON string escaping: the tag vocabulary is ASCII identifiers,
// but user-supplied trace details may carry anything.
void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// Virtual-time seconds -> trace microseconds, fixed 3 decimals so equal
// inputs always serialize to equal bytes.
void AppendMicros(std::string* out, SimTime seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  *out += buf;
}

}  // namespace

void Histogram::Record(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<std::size_t>(BucketFor(value))];
}

Histogram Histogram::FromRaw(
    std::uint64_t count, double sum, double min, double max,
    const std::array<std::uint64_t, kBuckets>& buckets) {
  Histogram h;
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  h.buckets_ = buckets;
  return h;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
}

void Registry::Enable(bool on) {
  enabled_ = on;
  if (on && events_.capacity() < 4096) events_.reserve(4096);
}

TagId Registry::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lk(intern_mu_);
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

std::uint64_t Registry::CounterByName(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0 : counter(it->second);
}

const Histogram* Registry::histogram(TagId tag) const {
  auto it = histograms_.find(tag);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::SetTrackName(std::int32_t node, std::uint32_t track,
                            std::string_view name) {
  track_names_[{node, track}] = std::string(name);
}

void Registry::AppendChromeTraceEvents(std::string* out, int pid_offset,
                                       std::string_view process_prefix) const {
  bool first = out->empty();
  auto sep = [&] {
    if (!first) *out += ",\n";
    first = false;
  };

  // Metadata: one process_name per distinct node, one thread_name per
  // named track. Maps iterate in key order, so output is deterministic.
  std::int32_t last_node = -1;
  for (const auto& [key, name] : track_names_) {
    const auto [node, track] = key;
    if (node != last_node) {
      sep();
      *out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      *out += std::to_string(pid_offset + node);
      *out += ",\"tid\":0,\"args\":{\"name\":\"";
      AppendJsonEscaped(out, process_prefix);
      *out += "node ";
      *out += std::to_string(node);
      *out += "\"}}";
      last_node = node;
    }
    sep();
    *out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    *out += std::to_string(pid_offset + node);
    *out += ",\"tid\":";
    *out += std::to_string(track);
    *out += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(out, name);
    *out += "\"}}";
  }

  for (const Event& e : events_) {
    sep();
    *out += "{\"name\":\"";
    AppendJsonEscaped(out, Name(e.tag));
    *out += "\",\"ph\":\"";
    switch (e.phase) {
      case Phase::kBegin: *out += 'B'; break;
      case Phase::kEnd: *out += 'E'; break;
      case Phase::kInstant: *out += 'i'; break;
    }
    *out += "\",\"ts\":";
    AppendMicros(out, e.time);
    *out += ",\"pid\":";
    *out += std::to_string(pid_offset + e.node);
    *out += ",\"tid\":";
    *out += std::to_string(e.track);
    if (e.phase == Phase::kInstant) *out += ",\"s\":\"t\"";
    if (e.detail != kNoTag) {
      *out += ",\"args\":{\"detail\":\"";
      AppendJsonEscaped(out, Name(e.detail));
      *out += "\"}";
    }
    *out += "}";
  }
}

std::string Registry::ToChromeTraceJson() const {
  std::string body;
  AppendChromeTraceEvents(&body, 0, "");
  std::string out = "{\"traceEvents\":[\n";
  out += body;
  out += "\n]}\n";
  return out;
}

Table Registry::MetricsTable(std::string title) const {
  Table table(std::move(title));
  table.SetHeader({"metric", "count", "total", "mean", "min", "max"});

  // Collect non-zero counters and non-empty histograms, then emit in
  // name order so the table is stable across refactors of intern order.
  std::vector<std::pair<std::string_view, TagId>> rows;
  for (TagId id = 1; id < names_.size(); ++id) {
    if (counter(id) != 0 || histogram(id) != nullptr) {
      rows.emplace_back(names_[id], id);
    }
  }
  std::sort(rows.begin(), rows.end());

  for (const auto& [name, id] : rows) {
    if (const Histogram* h = histogram(id); h != nullptr && h->count() > 0) {
      table.Row()
          .Cell(std::string(name))
          .Cell(h->count())
          .Cell(h->sum(), 6)
          .Cell(h->mean(), 6)
          .Cell(h->min(), 6)
          .Cell(h->max(), 6);
    } else if (counter(id) != 0) {
      table.Row()
          .Cell(std::string(name))
          .Cell(counter(id))
          .Cell(counter(id))
          .Cell(std::string("-"))
          .Cell(std::string("-"))
          .Cell(std::string("-"));
    }
  }
  return table;
}

}  // namespace pstk::obs
