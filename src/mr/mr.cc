#include "mr/mr.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <string_view>

#include "common/check.h"
#include "common/log.h"
#include "common/strings.h"
#include "serde/serde.h"

namespace pstk::mr {

namespace {

// Message tags of the coordinator protocol.
constexpr int kTagRequest = 1;     // worker -> coord: give me work
constexpr int kTagAssign = 2;      // coord -> worker: task / wait / exit
constexpr int kTagMapDone = 3;     // worker -> coord
constexpr int kTagReduceDone = 4;  // worker -> coord
constexpr int kTagFetchFail = 5;   // worker -> coord: lost map outputs

enum class AssignKind : std::uint8_t { kMap = 0, kReduce = 1, kWait = 2, kExit = 3 };

struct AssignMsg {
  std::uint8_t kind;
  std::int32_t task_id;
};

buf::Bytes EncodeAssign(AssignKind kind, int task_id) {
  serde::Writer w;
  w.WriteRaw<std::uint8_t>(static_cast<std::uint8_t>(kind));
  w.WriteRaw<std::int32_t>(task_id);
  return w.TakeBytes();
}

AssignMsg DecodeAssign(const buf::Bytes& buffer) {
  serde::Reader r(buffer);
  AssignMsg msg{};
  msg.kind = r.ReadRaw<std::uint8_t>().value();
  msg.task_id = r.ReadRaw<std::int32_t>().value();
  return msg;
}

/// One map task's output: each record's key bytes and then its value bytes,
/// back to back in one arena, plus a fixed-size entry per record.
/// Partitioning and grouping move only the entries.
class ArenaEmitter : public Emitter {
 public:
  struct Record {
    std::size_t offset;  // the key's first byte; the value follows it
    std::uint32_t key_len;
    std::uint32_t value_len;
  };

  void Emit(std::string_view key, std::string_view value) override {
    PSTK_CHECK_MSG(key.size() <= UINT32_MAX && value.size() <= UINT32_MAX,
                   "MR record field over 4 GiB");
    records.push_back({arena.size(), static_cast<std::uint32_t>(key.size()),
                       static_cast<std::uint32_t>(value.size())});
    arena += key;
    arena += value;
  }
  [[nodiscard]] std::string_view key(const Record& r) const {
    return {arena.data() + r.offset, r.key_len};
  }
  [[nodiscard]] std::string_view value(const Record& r) const {
    return {arena.data() + r.offset + r.key_len, r.value_len};
  }

  std::string arena;
  std::vector<Record> records;
};

class LineEmitter : public Emitter {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    lines += key;
    lines += '\t';
    lines += value;
    lines += '\n';
    ++count;
  }
  std::string lines;
  std::uint64_t count = 0;
};

/// Serialize one partition straight from the arena, in the wire format of
/// serde's vector<pair<string, string>>: a varint count, then a
/// varint-length key and a varint-length value per record.
buf::Bytes EncodePartition(const ArenaEmitter& out,
                           const std::vector<ArenaEmitter::Record>& partition) {
  std::size_t size = serde::VarintLen(partition.size());
  for (const ArenaEmitter::Record& r : partition) {
    size += serde::VarintLen(r.key_len) + r.key_len +
            serde::VarintLen(r.value_len) + r.value_len;
  }
  serde::Writer w;
  w.Reserve(size);
  w.WriteVarint(partition.size());
  for (const ArenaEmitter::Record& r : partition) {
    const std::string_view key = out.key(r);
    const std::string_view value = out.value(r);
    w.WriteVarint(key.size());
    w.WriteBytes(key.data(), key.size());
    w.WriteVarint(value.size());
    w.WriteBytes(value.data(), value.size());
  }
  return w.TakeBytes();
}

std::string_view ReadField(serde::Reader& r) {
  auto len = r.ReadVarint();
  PSTK_CHECK_MSG(len.ok(), "corrupt map output");
  auto field = r.ReadView(len.value());
  PSTK_CHECK_MSG(field.ok(), "corrupt map output");
  return field.value();
}

/// The record count in a fetched bucket's header.
std::uint64_t RecordCount(const buf::Bytes& bucket) {
  serde::Reader reader(bucket);
  auto count = reader.ReadVarint();
  // Every record takes at least its two length bytes.
  PSTK_CHECK_MSG(count.ok() && count.value() <= reader.remaining() / 2,
                 "corrupt map output");
  return count.value();
}

/// A byte string with its first 8 bytes cached as a big-endian integer,
/// zero-padded, so most comparisons are one integer compare. Ordered as
/// the bytes compare unsigned, the order of std::string: a zero-padded
/// prefix never sorts a string after one it is a prefix of, and equal
/// prefixes fall back to the bytes.
struct Ordered {
  std::uint64_t prefix;
  std::string_view bytes;

  static Ordered Of(std::string_view s) {
    std::uint64_t prefix = 0;
    const std::size_t n = std::min<std::size_t>(s.size(), 8);
    for (std::size_t i = 0; i < n; ++i) {
      prefix |= std::uint64_t{static_cast<unsigned char>(s[i])} << (56 - 8 * i);
    }
    return {prefix, s};
  }
  friend bool operator<(const Ordered& a, const Ordered& b) {
    return a.prefix != b.prefix ? a.prefix < b.prefix : a.bytes < b.bytes;
  }
};

/// Numbers distinct keys 0, 1, 2, ... in first-seen order and counts each
/// one's records: an open-addressing table of key numbers (linear probing,
/// at most half full) that doubles as keys arrive.
class KeyNumbers {
 public:
  std::uint32_t Add(std::string_view key) {
    const std::uint64_t hash = std::hash<std::string_view>{}(key);
    std::size_t slot = Home(hash);
    for (; slots_[slot] != kEmpty; slot = (slot + 1) & (slots_.size() - 1)) {
      const std::uint32_t number = slots_[slot];
      if (keys_[number] == key) {
        ++counts_[number];
        return number;
      }
    }
    PSTK_CHECK(keys_.size() < kEmpty);
    const auto number = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    hashes_.push_back(hash);
    counts_.push_back(1);
    slots_[slot] = number;
    if (2 * keys_.size() > slots_.size()) Grow();
    return number;
  }

  [[nodiscard]] const std::vector<std::string_view>& keys() const {
    return keys_;
  }
  [[nodiscard]] const std::vector<std::size_t>& counts() const {
    return counts_;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  // The top bits of a Fibonacci-scrambled hash: one reducer's keys share
  // their hash modulo the reducer count, so the low bits are not spread.
  [[nodiscard]] std::size_t Home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    --shift_;
    slots_.assign(2 * slots_.size(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t number = 0; number < keys_.size(); ++number) {
      std::size_t slot = Home(hashes_[number]);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = number;
    }
  }

  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(16, kEmpty);
  int shift_ = 60;  // 64 - log2(slots_.size())
  std::vector<std::string_view> keys_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::size_t> counts_;
};

/// Feed `fn` every distinct key of a record set in unsigned-byte order,
/// each with all of its values sorted the same way: the sequence a
/// sort-merge of the records by (key, value) gives, with no record sorted.
/// The record set is what `for_each(visit)` walks, calling visit(key,
/// value) once per record. It is walked twice, in the same order both
/// times, and its views must stay valid until this returns. The key and
/// value strings handed to `fn` are refilled by assignment.
template <typename ForEach>
void GroupAndApply(const ForEach& for_each, const ReduceFn& fn, Emitter& out) {
  // Pass 1: number the keys and count their records.
  KeyNumbers numbers;
  std::vector<std::uint32_t> key_of;
  for_each([&](std::string_view key, std::string_view) {
    key_of.push_back(numbers.Add(key));
  });
  const std::vector<std::string_view>& keys = numbers.keys();
  const std::vector<std::size_t>& counts = numbers.counts();

  // Order the distinct keys; each key's values then take the slots after
  // those of every smaller key (a counting sort).
  std::vector<std::pair<Ordered, std::uint32_t>> sorted_keys;
  sorted_keys.reserve(keys.size());
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    sorted_keys.emplace_back(Ordered::Of(keys[k]), k);
  }
  std::sort(sorted_keys.begin(), sorted_keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> next(keys.size());
  std::size_t placed = 0;
  for (const auto& [key, k] : sorted_keys) {
    next[k] = placed;
    placed += counts[k];
  }

  // Pass 2: place every value view in its key's slots.
  std::vector<Ordered> values(key_of.size());
  std::size_t record = 0;
  for_each([&](std::string_view, std::string_view value) {
    values[next[key_of[record++]]++] = Ordered::Of(value);
  });

  std::string key;
  std::vector<std::string> group;
  auto first = values.begin();
  for (const auto& [ordered_key, k] : sorted_keys) {
    const auto last = first + static_cast<std::ptrdiff_t>(counts[k]);
    std::sort(first, last);
    key.assign(ordered_key.bytes);
    group.resize(counts[k]);
    for (std::string& value : group) value.assign((first++)->bytes);
    fn(key, group, out);
  }
}

std::uint64_t HashKey(std::string_view key) {
  // Equal to std::hash<std::string> of the same bytes, as the standard
  // requires, so every record goes to the same reducer as a string key.
  return std::hash<std::string_view>{}(key);
}

}  // namespace

// ---------------------------------------------------------------------------
// Job state (shared between coordinator and workers via shared_ptr)
// ---------------------------------------------------------------------------

struct MrEngine::Job {
  JobConf conf;
  MapFn map;
  ReduceFn reduce;
  std::optional<ReduceFn> combine;
  std::function<void(Result<JobResult>)> on_done;

  std::unique_ptr<net::Network> network;
  int num_workers = 0;
  std::vector<sim::Pid> worker_pids;  // by worker id (0-based)
  std::vector<int> worker_nodes;

  // Split/block metadata.
  std::vector<std::vector<int>> split_locations;
  // Per-split (path, block) source, populated when input_path names a
  // directory (chained jobs read the previous job's part-r-* files).
  // Empty means split m is block m of input_path itself.
  std::vector<std::pair<std::string, std::size_t>> split_source;

  // Coordinator bookkeeping.
  std::deque<int> pending_maps;
  std::deque<int> pending_reduces;
  std::map<int, int> running_maps;     // map id -> worker id
  std::map<int, int> running_reduces;  // reduce id -> worker id
  std::set<int> done_maps;
  std::set<int> done_reduces;

  struct MapOutput {
    int node = -1;
    std::vector<buf::Bytes> partitions;  // one per reducer
  };
  std::map<int, MapOutput> map_outputs;

  // Dead-worker sweep gate: a pass runs only when one of these moved since
  // the last one (see SweepDeadWorkers).
  bool sweep_due = false;  // a worker exited, or the task sets changed
  std::uint64_t swept_node_failures = 0;

  Counters counters;
  SimTime submit_time = 0;
  bool finished = false;
};

// ---------------------------------------------------------------------------
// MrEngine
// ---------------------------------------------------------------------------

MrEngine::MrEngine(cluster::Cluster& cluster, dfs::MiniDfs& dfs,
                   MrOptions options)
    : cluster_(cluster), dfs_(dfs), options_(std::move(options)) {
  fabric_ = cluster_.fabric(options_.transport);
  obs::Registry& reg = cluster_.engine().obs();
  tags_.map_task = reg.Intern("mr.map_task");
  tags_.reduce_task = reg.Intern("mr.reduce_task");
  tags_.map_read = reg.Intern("mr.map.read");
  tags_.map_map = reg.Intern("mr.map.map");
  tags_.map_sort = reg.Intern("mr.map.sort");
  tags_.map_spill = reg.Intern("mr.map.spill");
  tags_.reduce_shuffle = reg.Intern("mr.reduce.shuffle");
  tags_.reduce_merge = reg.Intern("mr.reduce.merge");
  tags_.reduce_reduce = reg.Intern("mr.reduce.reduce");
  tags_.reduce_output = reg.Intern("mr.reduce.output");
  tags_.time_map_read = reg.Intern("mr.time.map_read");
  tags_.time_map = reg.Intern("mr.time.map");
  tags_.time_sort = reg.Intern("mr.time.sort");
  tags_.time_spill = reg.Intern("mr.time.spill");
  tags_.time_shuffle = reg.Intern("mr.time.shuffle");
  tags_.time_merge = reg.Intern("mr.time.merge");
  tags_.time_reduce = reg.Intern("mr.time.reduce");
  tags_.time_output = reg.Intern("mr.time.output");
  tags_.map_tasks = reg.Intern("mr.map_tasks");
  tags_.reduce_tasks = reg.Intern("mr.reduce_tasks");
  tags_.task_retries = reg.Intern("mr.task_retries");
  tags_.recovery_task_retries = reg.Intern("recovery.mr.task_retries");
  tags_.spilled_bytes = reg.Intern("mr.spilled_bytes");
  tags_.shuffled_bytes = reg.Intern("mr.shuffled_bytes");
}

Result<JobResult> MrEngine::RunJob(JobConf conf, MapFn map, ReduceFn reduce,
                                   std::optional<ReduceFn> combine) {
  std::optional<Result<JobResult>> outcome;
  Submit(std::move(conf), std::move(map), std::move(reduce),
         std::move(combine),
         [&outcome](Result<JobResult> result) { outcome = std::move(result); });
  const sim::RunResult run = cluster_.engine().Run();
  if (outcome.has_value()) return *std::move(outcome);
  if (!run.status.ok()) return run.status;
  return Internal("MapReduce job never completed");
}

MrEngine::JobHandle MrEngine::Submit(
    JobConf conf, MapFn map, ReduceFn reduce, std::optional<ReduceFn> combine,
    std::function<void(Result<JobResult>)> on_done) {
  auto job = std::make_shared<Job>();
  job->conf = std::move(conf);
  job->map = std::move(map);
  job->reduce = std::move(reduce);
  job->combine = std::move(combine);
  job->on_done = std::move(on_done);
  job->network = std::make_unique<net::Network>(cluster_.engine(), fabric_);
  ++job_seq_;

  // One worker per (node, slot), unless the conf placed workers explicitly.
  if (job->conf.worker_nodes.empty()) {
    job->num_workers = cluster_.nodes() * options_.slots_per_node;
    for (int w = 0; w < job->num_workers; ++w) {
      job->worker_nodes.push_back(w / options_.slots_per_node);
    }
  } else {
    job->worker_nodes = job->conf.worker_nodes;
    job->num_workers = static_cast<int>(job->worker_nodes.size());
  }

  // Endpoint 0 = coordinator; workers at 1 + id.
  job->network->CreateEndpoint(0, job->conf.coordinator_node);
  for (int w = 0; w < job->num_workers; ++w) {
    job->network->CreateEndpoint(1 + w, job->worker_nodes[w]);
  }
  job->worker_pids.assign(job->num_workers, sim::kNoPid);

  auto self = this;
  cluster_.engine().Spawn(
      job->conf.name + "-coord",
      [self, job](sim::Context& ctx) { self->CoordinatorMain(ctx, *job); },
      job->conf.coordinator_node);
  for (int w = 0; w < job->num_workers; ++w) {
    const int node = job->worker_nodes[w];
    // No NodeManager on a currently-failed node: its slots stay empty
    // (worker_pids keeps kNoPid, which the sweep treats as dead).
    if (cluster_.NodeFailed(node)) continue;
    job->worker_pids[w] = cluster_.engine().Spawn(
        job->conf.name + "-worker-" + std::to_string(w),
        [self, job, w](sim::Context& ctx) { self->WorkerMain(ctx, *job, w); },
        node);
  }
  return job;
}

int MrEngine::AddWorker(const JobHandle& job, int node) {
  const int w = job->num_workers++;
  job->worker_nodes.push_back(node);
  job->network->CreateEndpoint(1 + w, node);
  job->worker_pids.push_back(sim::kNoPid);
  if (!cluster_.NodeFailed(node) && !job->finished) {
    auto self = this;
    job->worker_pids[w] = cluster_.engine().Spawn(
        job->conf.name + "-worker-" + std::to_string(w),
        [self, job, w](sim::Context& ctx) { self->WorkerMain(ctx, *job, w); },
        node);
  }
  return w;
}

void MrEngine::KillWorker(const JobHandle& job, int worker_id) {
  const sim::Pid pid = job->worker_pids[static_cast<std::size_t>(worker_id)];
  if (pid != sim::kNoPid && cluster_.engine().IsAlive(pid)) {
    cluster_.engine().KillNow(pid);
  }
}

bool MrEngine::JobFinished(const JobHandle& job) { return job->finished; }

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void MrEngine::CoordinatorMain(sim::Context& ctx, Job& job) {
  net::Endpoint& ep = job.network->endpoint(0);
  job.submit_time = ctx.now();
  ctx.SleepFor(options_.job_setup);  // job client + AM launch

  // Build splits from the input's DFS blocks. A path that is not a file
  // is treated as a directory: one split per block of each file under it
  // (List is sorted, so split numbering is deterministic).
  auto locations = dfs_.BlockLocations(job.conf.input_path);
  if (locations.ok()) {
    job.split_locations = std::move(locations).value();
  } else {
    std::string prefix = job.conf.input_path;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    const std::vector<std::string> files = dfs_.List(prefix);
    if (files.empty()) {
      job.finished = true;
      job.on_done(locations.status());
      return;
    }
    for (const std::string& file : files) {
      auto file_locations = dfs_.BlockLocations(file);
      if (!file_locations.ok()) {
        job.finished = true;
        job.on_done(file_locations.status());
        return;
      }
      for (std::size_t b = 0; b < file_locations.value().size(); ++b) {
        job.split_locations.push_back(file_locations.value()[b]);
        job.split_source.emplace_back(file, b);
      }
    }
  }
  for (int m = 0; m < static_cast<int>(job.split_locations.size()); ++m) {
    job.pending_maps.push_back(m);
  }
  for (int r = 0; r < job.conf.num_reducers; ++r) {
    job.pending_reduces.push_back(r);
  }
  const auto total_maps = job.split_locations.size();
  const auto total_reduces = static_cast<std::size_t>(job.conf.num_reducers);

  while (job.done_reduces.size() < total_reduces) {
    auto msg = ep.RecvWithTimeout(ctx, ctx.now() + options_.heartbeat);
    if (!msg.has_value()) {
      SweepDeadWorkers(job);
      if (NoLiveWorkers(job)) {
        job.finished = true;
        job.on_done(Unavailable("all MapReduce workers lost"));
        return;
      }
      continue;
    }
    const int worker = msg->src - 1;
    switch (msg->tag) {
      case kTagRequest: {
        buf::Bytes reply;
        // Prefer a data-local map task for this worker's node.
        if (!job.pending_maps.empty()) {
          const int node = job.worker_nodes[worker];
          int chosen = job.pending_maps.front();
          for (int candidate : job.pending_maps) {
            const auto& replicas = job.split_locations[candidate];
            if (std::find(replicas.begin(), replicas.end(), node) !=
                replicas.end()) {
              chosen = candidate;
              break;
            }
          }
          job.pending_maps.erase(std::find(job.pending_maps.begin(),
                                           job.pending_maps.end(), chosen));
          job.running_maps[chosen] = worker;
          job.sweep_due = true;
          reply = EncodeAssign(AssignKind::kMap, chosen);
        } else if (job.done_maps.size() == total_maps &&
                   !job.pending_reduces.empty()) {
          const int r = job.pending_reduces.front();
          job.pending_reduces.pop_front();
          job.running_reduces[r] = worker;
          job.sweep_due = true;
          reply = EncodeAssign(AssignKind::kReduce, r);
        } else {
          reply = EncodeAssign(AssignKind::kWait, 0);
        }
        ep.SendAsync(ctx, msg->src, kTagAssign, std::move(reply));
        break;
      }
      case kTagMapDone: {
        serde::Reader r(msg->payload);
        const int map_id = static_cast<int>(r.ReadRaw<std::int32_t>().value());
        job.running_maps.erase(map_id);
        job.done_maps.insert(map_id);
        job.sweep_due = true;
        ++job.counters.map_tasks;
        break;
      }
      case kTagReduceDone: {
        serde::Reader r(msg->payload);
        const int reduce_id =
            static_cast<int>(r.ReadRaw<std::int32_t>().value());
        job.running_reduces.erase(reduce_id);
        job.done_reduces.insert(reduce_id);
        job.sweep_due = true;
        ++job.counters.reduce_tasks;
        break;
      }
      case kTagFetchFail: {
        // A reducer could not fetch some map outputs: re-run those maps and
        // requeue the reducer.
        serde::Reader r(msg->payload);
        const int reduce_id =
            static_cast<int>(r.ReadRaw<std::int32_t>().value());
        auto missing = r.ReadVarint();
        for (std::uint64_t i = 0; i < missing.value(); ++i) {
          const int map_id = static_cast<int>(r.ReadRaw<std::int32_t>().value());
          if (job.done_maps.erase(map_id) > 0) {
            job.map_outputs.erase(map_id);
            job.pending_maps.push_back(map_id);
            ++job.counters.task_retries;
            cluster_.engine().obs().Add(tags_.recovery_task_retries);
          }
        }
        job.running_reduces.erase(reduce_id);
        job.pending_reduces.push_back(reduce_id);
        job.sweep_due = true;
        ++job.counters.task_retries;
        cluster_.engine().obs().Add(tags_.recovery_task_retries);
        // The map->reduce stage barrier broke (a reducer ran while map
        // outputs were missing); the coordinator recovers by re-running.
        cluster_.engine().verify().OnStageBarrier(
            "mr", /*stage_id=*/reduce_id,
            static_cast<int>(job.done_maps.size()),
            static_cast<int>(total_maps), /*will_recover=*/true, ctx.now());
        break;
      }
      default:
        PSTK_CHECK_MSG(false, "unexpected MR message tag " << msg->tag);
    }
    SweepDeadWorkers(job);
  }

  // Every reducer holds aliases of what it fetched, so the spills can go
  // now instead of living as long as the engine.
  job.map_outputs.clear();

  // Shut the workers down.
  for (int w = 0; w < job.num_workers; ++w) {
    if (cluster_.engine().IsAlive(job.worker_pids[w])) {
      ep.SendAsync(ctx, 1 + w, kTagAssign, EncodeAssign(AssignKind::kExit, 0));
    }
  }

  // Mirror the job counters onto the obs bus for the metrics summary.
  obs::Registry& reg = cluster_.engine().obs();
  reg.Add(tags_.map_tasks, job.counters.map_tasks);
  reg.Add(tags_.reduce_tasks, job.counters.reduce_tasks);
  reg.Add(tags_.task_retries, job.counters.task_retries);
  reg.Add(tags_.spilled_bytes, job.counters.spilled_bytes);
  reg.Add(tags_.shuffled_bytes, job.counters.shuffled_bytes);

  JobResult result;
  result.elapsed = ctx.now() - job.submit_time;
  result.counters = job.counters;
  job.finished = true;
  job.on_done(result);
}

void MrEngine::SweepDeadWorkers(Job& job) {
  // A pass can only find something to requeue after one of these since
  // the last pass: a worker of this job exited, a node failed, a task was
  // handed out (perhaps to a worker that died with its request in flight),
  // or a completion or fetch failure changed the task sets. Otherwise skip
  // it: a pass checks every running task's worker and every done map.
  const std::uint64_t failures = cluster_.node_failures();
  if (!job.sweep_due && failures == job.swept_node_failures) return;
  job.sweep_due = false;
  job.swept_node_failures = failures;

  auto requeue_if_dead = [&](std::map<int, int>& running,
                             std::deque<int>& pending) {
    for (auto it = running.begin(); it != running.end();) {
      if (!cluster_.engine().IsAlive(job.worker_pids[it->second])) {
        pending.push_back(it->first);
        ++job.counters.task_retries;
        cluster_.engine().obs().Add(tags_.recovery_task_retries);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  };
  requeue_if_dead(job.running_maps, job.pending_maps);
  requeue_if_dead(job.running_reduces, job.pending_reduces);

  // Completed map outputs that lived on a now-failed node are lost; re-run
  // them unless the whole job is already past reduces needing them.
  for (auto it = job.done_maps.begin(); it != job.done_maps.end();) {
    auto out = job.map_outputs.find(*it);
    const bool lost =
        out == job.map_outputs.end() || cluster_.NodeFailed(out->second.node);
    if (lost && job.done_reduces.size() <
                    static_cast<std::size_t>(job.conf.num_reducers)) {
      job.map_outputs.erase(*it);
      job.pending_maps.push_back(*it);
      ++job.counters.task_retries;
      cluster_.engine().obs().Add(tags_.recovery_task_retries);
      it = job.done_maps.erase(it);
    } else {
      ++it;
    }
  }
}

bool MrEngine::NoLiveWorkers(const Job& job) {
  for (sim::Pid pid : job.worker_pids) {
    if (cluster_.engine().IsAlive(pid)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

void MrEngine::WorkerMain(sim::Context& ctx, Job& job, int worker_id) {
  // However this worker leaves (an exit assignment, job end, or a kill
  // unwinding through here), the coordinator's next sweep must look again.
  struct ExitMark {
    Job& owner;
    ~ExitMark() { owner.sweep_due = true; }
  } exit_mark{job};
  net::Endpoint& ep = job.network->endpoint(1 + worker_id);
  const buf::Bytes my_id = serde::EncodeToBytes<std::int32_t>(worker_id);
  for (;;) {
    ep.SendAsync(ctx, 0, kTagRequest, my_id);
    auto reply = ep.RecvWithTimeout(ctx, ctx.now() + 5 * options_.heartbeat, 0,
                                    kTagAssign);
    if (!reply.has_value()) {
      if (job.finished) return;
      continue;  // coordinator busy; ask again
    }
    const AssignMsg assign = DecodeAssign(reply->payload);
    switch (static_cast<AssignKind>(assign.kind)) {
      case AssignKind::kMap:
        RunMapTask(ctx, job, worker_id, assign.task_id);
        break;
      case AssignKind::kReduce:
        RunReduceTask(ctx, job, worker_id, assign.task_id);
        break;
      case AssignKind::kWait:
        ctx.SleepFor(0.2);
        break;
      case AssignKind::kExit:
        return;
    }
  }
}

void MrEngine::ChargeRecords(sim::Context& ctx, std::uint64_t records,
                             Bytes bytes, SimTime per_record) {
  const double inflate = 1.0 / cluster_.data_scale();
  ctx.Compute(inflate * (static_cast<double>(records) * per_record +
                         static_cast<double>(bytes) * options_.cpu_per_byte));
}

void MrEngine::RunMapTask(sim::Context& ctx, Job& job, int worker_id,
                          int map_id) {
  const int node = job.worker_nodes[worker_id];
  net::Endpoint& ep = job.network->endpoint(1 + worker_id);
  sim::Scope task_scope(ctx, tags_.map_task);
  ctx.SleepFor(options_.jvm_startup_per_task);

  auto block = [&] {
    sim::Scope read_scope(ctx, tags_.map_read, tags_.time_map_read);
    if (!job.split_source.empty()) {
      const auto& [path, index] =
          job.split_source[static_cast<std::size_t>(map_id)];
      return dfs_.ReadBlock(ctx, node, path, index);
    }
    return dfs_.ReadBlock(ctx, node, job.conf.input_path,
                          static_cast<std::size_t>(map_id));
  }();
  if (!block.ok()) {
    // Input gone (e.g., disk failure mid-read): die; the coordinator's
    // sweep requeues the task elsewhere. Matches Hadoop task failure.
    PSTK_WARN("mr") << "map " << map_id << " failed: "
                    << block.status().ToString();
    throw sim::ProcessKilled{};  // task attempt dies; coordinator requeues
  }

  // Map over every input line (a zero-copy view of the stored block). The
  // map function takes a std::string, so one line buffer is refilled.
  ArenaEmitter collected;
  std::uint64_t records = 0;
  {
    sim::Scope map_scope(ctx, tags_.map_map, tags_.time_map);
    std::string_view rest = block.value().view();
    std::string line_buffer;
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      const std::string_view line =
          nl == std::string_view::npos ? rest : rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view{}
                                          : rest.substr(nl + 1);
      if (line.empty()) continue;
      ++records;
      line_buffer.assign(line);
      job.map(line_buffer, collected);
    }
    ChargeRecords(ctx, records, block.value().size(),
                  options_.map_cpu_per_record);
  }
  job.counters.input_records += records;
  job.counters.map_output_records += collected.records.size();

  // Map-side combine *before* partitioning: the records are grouped by key
  // (every key's values are complete within a map task) and the combiner
  // sees each key with its values sorted, the grouped-and-ordered input
  // Hadoop's sorted pipeline would give it; only its output is spilled.
  // The sort of each partition is charged but not done on the host: spill
  // sizes do not depend on record order, and reducers group by key.
  using Record = ArenaEmitter::Record;
  const auto R = static_cast<std::size_t>(job.conf.num_reducers);
  std::vector<std::vector<Record>> partitions(R);
  {
    sim::Scope sort_scope(ctx, tags_.map_sort, tags_.time_sort);
    if (job.combine.has_value() && !collected.records.empty()) {
      // Linear hash-aggregation pass over the pre-combine records.
      ChargeRecords(ctx, collected.records.size(), 0,
                    options_.sort_cpu_per_record);
      ArenaEmitter combined;
      GroupAndApply(
          [&collected](auto&& visit) {
            for (const Record& r : collected.records) {
              visit(collected.key(r), collected.value(r));
            }
          },
          *job.combine, combined);
      collected = std::move(combined);
    }
    for (const Record& r : collected.records) {
      partitions[HashKey(collected.key(r)) % R].push_back(r);
    }
    const std::uint64_t sort_records = collected.records.size();
    const double log_factor =
        sort_records > 1 ? std::log2(static_cast<double>(sort_records)) : 1.0;
    ChargeRecords(ctx, static_cast<std::uint64_t>(
                           static_cast<double>(sort_records) * log_factor),
                  0, options_.sort_cpu_per_record);
  }

  // Spill the serialized partitions to local disk. Spill buffers are
  // immutable from here on: reducers fetch zero-copy aliases of them.
  Job::MapOutput output;
  output.node = node;
  {
    sim::Scope spill_scope(ctx, tags_.map_spill, tags_.time_spill);
    Bytes spilled = 0;
    for (const auto& partition : partitions) {
      buf::Bytes buffer = EncodePartition(collected, partition);
      spilled += buffer.size();
      output.partitions.push_back(std::move(buffer));
    }
    const Bytes modeled_spill = cluster_.Modeled(spilled);
    const SimTime disk_done =
        cluster_.scratch_disk(node)->Write(modeled_spill, ctx.now());
    ctx.SleepUntil(disk_done);
    job.counters.spilled_bytes += modeled_spill;
  }
  job.map_outputs[map_id] = std::move(output);

  serde::Writer done;
  done.WriteRaw<std::int32_t>(map_id);
  ep.SendAsync(ctx, 0, kTagMapDone, done.TakeBytes());
}

void MrEngine::RunReduceTask(sim::Context& ctx, Job& job, int worker_id,
                             int reduce_id) {
  const int node = job.worker_nodes[worker_id];
  net::Endpoint& ep = job.network->endpoint(1 + worker_id);
  sim::Scope task_scope(ctx, tags_.reduce_task);
  ctx.SleepFor(options_.jvm_startup_per_task);

  // Shuffle: fetch this reducer's bucket from every map output. Only the
  // aliases are held while the reducer sleeps; nothing is decoded yet.
  std::vector<buf::Bytes> buckets;
  std::uint64_t records = 0;
  std::vector<std::int32_t> missing;
  Bytes fetched_bytes = 0;
  {
    sim::Scope shuffle_scope(ctx, tags_.reduce_shuffle, tags_.time_shuffle);
    auto it = job.map_outputs.begin();
    while (it != job.map_outputs.end()) {
      const int map_id = it->first;
      const int source = it->second.node;
      if (cluster_.NodeFailed(source)) {
        missing.push_back(map_id);
        ++it;
        continue;
      }
      // Alias the bucket before the modeled fetch: the coordinator's sweep
      // may erase this output while the reducer sleeps, so neither `it` nor
      // a reference into the output survives the sleep.
      buf::Bytes bucket =
          it->second.partitions[static_cast<std::size_t>(reduce_id)];
      const Bytes modeled = cluster_.Modeled(bucket.size());
      SimTime t = cluster_.scratch_disk(source)->Read(modeled, ctx.now());
      if (source != node) {
        const auto times = fabric_->Transfer(source, node, modeled, t);
        ctx.Compute(times.receiver_cpu);
        t = times.arrival;
      }
      ctx.SleepUntil(t);
      it = job.map_outputs.upper_bound(map_id);
      fetched_bytes += modeled;
      records += RecordCount(bucket);
      buckets.push_back(std::move(bucket));
    }
  }
  job.counters.shuffled_bytes += fetched_bytes;

  if (!missing.empty() || buckets.size() != job.split_locations.size()) {
    // Some outputs are gone (node died after its maps completed).
    serde::Writer fail;
    fail.WriteRaw<std::int32_t>(reduce_id);
    fail.WriteVarint(missing.size());
    for (std::int32_t id : missing) fail.WriteRaw<std::int32_t>(id);
    ep.SendAsync(ctx, 0, kTagFetchFail, fail.TakeBytes());
    return;
  }

  // Merge — Hadoop does an on-disk multi-way merge: one pass of write+read
  // of the full bucket set on local disk plus sort CPU. On the host the
  // records are grouped by key once, as they are reduced.
  {
    sim::Scope merge_scope(ctx, tags_.reduce_merge, tags_.time_merge);
    SimTime t = cluster_.scratch_disk(node)->Write(fetched_bytes, ctx.now());
    t = cluster_.scratch_disk(node)->Read(fetched_bytes, t);
    ctx.SleepUntil(t);
    const double log_factor =
        records > 1 ? std::log2(static_cast<double>(records)) : 1.0;
    ChargeRecords(ctx, static_cast<std::uint64_t>(
                           static_cast<double>(records) * log_factor),
                  0, options_.sort_cpu_per_record);
  }

  // Reduce, decoding record views in place from the held aliases.
  LineEmitter out;
  {
    sim::Scope reduce_scope(ctx, tags_.reduce_reduce, tags_.time_reduce);
    GroupAndApply(
        [&buckets](auto&& visit) {
          for (const buf::Bytes& bucket : buckets) {
            serde::Reader reader(bucket);
            for (std::uint64_t left = reader.ReadVarint().value(); left > 0;
                 --left) {
              const std::string_view key = ReadField(reader);
              visit(key, ReadField(reader));
            }
            PSTK_CHECK_MSG(reader.AtEnd(), "corrupt map output");
          }
        },
        job.reduce, out);
    ChargeRecords(ctx, records, 0, options_.map_cpu_per_record);
  }
  job.counters.reduce_output_records += out.count;

  if (job.conf.write_output) {
    sim::Scope output_scope(ctx, tags_.reduce_output, tags_.time_output);
    const std::string path = job.conf.output_path + "/part-r-" +
                             std::to_string(reduce_id);
    // Ownership handover: the reducer's output string becomes the stored
    // file content without a copy.
    const Status written =
        dfs_.Write(ctx, node, path, buf::Bytes::FromString(std::move(out.lines)));
    if (!written.ok()) {
      PSTK_WARN("mr") << "reduce " << reduce_id
                      << " output write failed: " << written.ToString();
      throw sim::ProcessKilled{};  // task attempt dies; coordinator requeues
    }
  }

  serde::Writer done;
  done.WriteRaw<std::int32_t>(reduce_id);
  ep.SendAsync(ctx, 0, kTagReduceDone, done.TakeBytes());
}

}  // namespace pstk::mr
