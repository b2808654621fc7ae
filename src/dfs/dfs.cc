#include "dfs/dfs.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace pstk::dfs {

MiniDfs::MiniDfs(cluster::Cluster& cluster, DfsOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      fabric_(cluster.fabric(options_.transport)),
      datanode_dead_(cluster.nodes(), false),
      placement_rng_(0xD15F00D) {
  PSTK_CHECK_MSG(options_.replication >= 1, "replication must be >= 1");
  PSTK_CHECK_MSG(options_.block_size > 0, "block size must be > 0");
  obs::Registry& reg = cluster_.engine().obs();
  tags_.block_reads = reg.Intern("dfs.block_reads");
  tags_.bytes_read = reg.Intern("dfs.bytes_read");
  tags_.local_reads = reg.Intern("dfs.local_reads");
  tags_.remote_reads = reg.Intern("dfs.remote_reads");
  tags_.network_bytes = reg.Intern("dfs.network_bytes");
  tags_.rereplicated = reg.Intern("dfs.rereplicated_blocks");
  tags_.lost = reg.Intern("dfs.lost_blocks");
  tags_.read_latency = reg.Intern("dfs.read_latency");
  // Cluster-level node failures (FailNode / ApplyFaultPlan) reach the
  // namenode automatically; manual OnNodeFailed calls stay idempotent.
  cluster_.SubscribeNodeFailure(
      [this](int node, SimTime t) { OnNodeFailed(node, t); });
}

void MiniDfs::set_replication(int replication) {
  PSTK_CHECK_MSG(replication >= 1, "replication must be >= 1");
  options_.replication = replication;
}

bool MiniDfs::NodeLive(int node) const {
  return node >= 0 && node < cluster_.nodes() && !datanode_dead_[node] &&
         !cluster_.NodeFailed(node);
}

void MiniDfs::ChargeNamenode(sim::Context& ctx) const {
  ctx.Compute(options_.namenode_rpc_latency);
}

std::vector<int> MiniDfs::PlaceReplicas(int writer, Rng& rng) const {
  const int n = cluster_.nodes();
  const int want = std::min(options_.replication, n);
  std::vector<int> nodes;
  nodes.reserve(want);
  // HDFS default policy: first replica on the writer (if it hosts a
  // datanode), the rest spread across distinct nodes.
  if (NodeLive(writer)) {
    nodes.push_back(writer);
  }
  std::vector<int> candidates;
  for (int i = 0; i < n; ++i) {
    if (NodeLive(i) &&
        std::find(nodes.begin(), nodes.end(), i) == nodes.end()) {
      candidates.push_back(i);
    }
  }
  while (static_cast<int>(nodes.size()) < want && !candidates.empty()) {
    const auto pick = rng.Below(candidates.size());
    nodes.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return nodes;
}

std::vector<buf::Bytes> MiniDfs::SplitBlocks(const buf::Bytes& content) const {
  // Actual bytes per block under the run's data scale, cut at the last
  // newline before the boundary so every block holds whole records. Blocks
  // are zero-copy slices of the file's storage.
  const auto target = static_cast<Bytes>(
      static_cast<double>(options_.block_size) * cluster_.data_scale());
  const Bytes actual_block = std::max<Bytes>(1, target);
  const std::string_view view = content.view();

  std::vector<buf::Bytes> blocks;
  std::size_t pos = 0;
  while (pos < view.size()) {
    std::size_t end = std::min(view.size(),
                               pos + static_cast<std::size_t>(actual_block));
    if (end < view.size()) {
      const std::size_t nl = view.rfind('\n', end);
      if (nl != std::string_view::npos && nl > pos) {
        end = nl + 1;
      }
      // else: a single record larger than a block — keep the hard cut.
    }
    blocks.push_back(content.Slice(pos, end - pos));
    pos = end;
  }
  if (blocks.empty()) blocks.push_back(buf::Bytes());
  return blocks;
}

Status MiniDfs::Install(const std::string& path, buf::Bytes content,
                        std::uint64_t placement_seed) {
  if (files_.count(path) > 0) return AlreadyExists("file exists: " + path);
  Rng rng(placement_seed == 0 ? placement_rng_.Next() : placement_seed);

  FileInfo file;
  file.path = path;
  file.actual_size = content.size();
  file.modeled_size = cluster_.Modeled(content.size());

  for (buf::Bytes& piece : SplitBlocks(content)) {
    StoredBlock block;
    block.info.id = next_block_id_++;
    block.info.actual_size = piece.size();
    block.info.modeled_size = cluster_.Modeled(piece.size());
    block.info.replicas = PlaceReplicas(/*writer=*/-1, rng);
    if (block.info.replicas.empty()) {
      return Unavailable("no live datanodes for " + path);
    }
    block.content = std::move(piece);
    file.blocks.push_back(block.info.id);
    blocks_.emplace(block.info.id, std::move(block));
  }
  files_.emplace(path, std::move(file));
  return OkStatus();
}

Status MiniDfs::Install(const std::string& path, std::string_view content,
                        std::uint64_t placement_seed) {
  return Install(path, buf::Bytes::Copy(content), placement_seed);
}

Status MiniDfs::Write(sim::Context& ctx, int writer_node,
                      const std::string& path, buf::Bytes content) {
  if (files_.count(path) > 0) return AlreadyExists("file exists: " + path);
  ChargeNamenode(ctx);

  FileInfo file;
  file.path = path;
  file.actual_size = content.size();
  file.modeled_size = cluster_.Modeled(content.size());

  for (buf::Bytes& piece : SplitBlocks(content)) {
    StoredBlock block;
    block.info.id = next_block_id_++;
    block.info.actual_size = piece.size();
    block.info.modeled_size = cluster_.Modeled(piece.size());
    block.info.replicas = PlaceReplicas(writer_node, ctx.rng());
    if (block.info.replicas.empty()) {
      return Unavailable("no live datanodes for " + path);
    }
    block.content = std::move(piece);

    // Pipeline replication: client -> r0 -> r1 -> r2; each hop is a network
    // transfer (unless local) followed by a disk write. The block commits
    // when the last replica has durably written it.
    const Bytes modeled = block.info.modeled_size;
    SimTime t = ctx.now();
    int upstream = writer_node;
    for (int replica : block.info.replicas) {
      if (replica != upstream) {
        const auto times = fabric_->Transfer(upstream, replica, modeled, t);
        network_bytes_ += modeled;
        cluster_.engine().obs().Add(tags_.network_bytes, modeled);
        t = times.arrival;
      }
      t = cluster_.scratch_disk(replica)->Write(modeled, t);
      upstream = replica;
    }
    ctx.SleepUntil(t);

    file.blocks.push_back(block.info.id);
    blocks_.emplace(block.info.id, std::move(block));
  }
  files_.emplace(path, std::move(file));
  return OkStatus();
}

Status MiniDfs::Write(sim::Context& ctx, int writer_node,
                      const std::string& path, std::string_view content) {
  return Write(ctx, writer_node, path, buf::Bytes::Copy(content));
}

Result<const MiniDfs::StoredBlock*> MiniDfs::AccessBlock(
    sim::Context& ctx, int reader_node, const std::string& path,
    std::size_t block_index) {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  const FileInfo& file = it->second;
  if (block_index >= file.blocks.size()) {
    return OutOfRange("block index " + std::to_string(block_index) +
                      " out of range for " + path);
  }
  ChargeNamenode(ctx);
  obs::Registry& reg = cluster_.engine().obs();
  const SimTime t0 = ctx.now();
  reg.Add(tags_.block_reads);
  const StoredBlock& block = blocks_.at(file.blocks[block_index]);
  if (block.info.replicas.empty()) {
    return DataLoss("all replicas lost for block " +
                    std::to_string(block.info.id) + " of " + path);
  }

  // Prefer a local replica; otherwise read from the first live replica.
  int source = -1;
  for (int replica : block.info.replicas) {
    if (replica == reader_node) {
      source = replica;
      break;
    }
  }
  if (source == -1) source = block.info.replicas.front();

  const Bytes modeled = block.info.modeled_size;
  SimTime t = cluster_.scratch_disk(source)->Read(modeled, ctx.now());
  if (source != reader_node) {
    const auto times = fabric_->Transfer(source, reader_node, modeled, t);
    network_bytes_ += modeled;
    reg.Add(tags_.remote_reads);
    reg.Add(tags_.network_bytes, modeled);
    ctx.Compute(times.receiver_cpu);
    t = times.arrival;
  } else {
    reg.Add(tags_.local_reads);
  }
  // DataNode streaming + checksum verification on the client.
  ctx.Compute(static_cast<double>(modeled) * options_.client_cpu_per_byte);
  ctx.SleepUntil(t);
  reg.Add(tags_.bytes_read, block.info.actual_size);
  reg.Observe(tags_.read_latency, ctx.now() - t0);
  return &block;
}

Result<buf::Bytes> MiniDfs::ReadBlock(sim::Context& ctx, int reader_node,
                                      const std::string& path,
                                      std::size_t block_index) {
  auto block = AccessBlock(ctx, reader_node, path, block_index);
  if (!block.ok()) return block.status();
  return block.value()->content;  // refcount bump, no payload copy
}

Result<buf::Bytes> MiniDfs::ReadAll(sim::Context& ctx, int reader_node,
                                    const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  std::vector<buf::Bytes> pieces;
  pieces.reserve(it->second.blocks.size());
  for (std::size_t i = 0; i < it->second.blocks.size(); ++i) {
    auto block = AccessBlock(ctx, reader_node, path, i);
    if (!block.ok()) return block.status();
    pieces.push_back(block.value()->content);
  }
  // The blocks are adjacent slices of one installed chunk, so they join
  // into a zero-copy alias of the whole file.
  return buf::Bytes::Concat(pieces);
}

Result<FileInfo> MiniDfs::Stat(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  return it->second;
}

Result<std::vector<std::vector<int>>> MiniDfs::BlockLocations(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  std::vector<std::vector<int>> locations;
  locations.reserve(it->second.blocks.size());
  for (BlockId id : it->second.blocks) {
    locations.push_back(blocks_.at(id).info.replicas);
  }
  return locations;
}

bool MiniDfs::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

Status MiniDfs::Delete(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  for (BlockId id : it->second.blocks) blocks_.erase(id);
  files_.erase(it);
  return OkStatus();
}

std::vector<std::string> MiniDfs::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, info] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  return out;
}

void MiniDfs::OnNodeFailed(int node, SimTime t) {
  PSTK_CHECK_MSG(node >= 0 && node < cluster_.nodes(), "bad node " << node);
  if (datanode_dead_[node]) return;  // already handled (e.g. via subscription)
  datanode_dead_[node] = true;
  std::size_t lost = 0;
  std::size_t rereplicated = 0;
  for (auto& [id, block] : blocks_) {
    auto& replicas = block.info.replicas;
    const auto before = replicas.size();
    replicas.erase(std::remove(replicas.begin(), replicas.end(), node),
                   replicas.end());
    if (replicas.size() == before) continue;
    if (replicas.empty()) {
      ++lost;
      continue;
    }
    // Background re-replication: copy from a survivor to a node that lacks
    // the block; charged directly on the involved resources at time t.
    std::vector<int> candidates;
    for (int i = 0; i < cluster_.nodes(); ++i) {
      if (!NodeLive(i)) continue;
      if (std::find(replicas.begin(), replicas.end(), i) != replicas.end()) {
        continue;
      }
      candidates.push_back(i);
    }
    if (candidates.empty()) continue;
    const int target =
        candidates[placement_rng_.Below(candidates.size())];
    const int source = replicas.front();
    const Bytes modeled = block.info.modeled_size;
    SimTime done = cluster_.scratch_disk(source)->Read(modeled, t);
    done = fabric_->Transfer(source, target, modeled, done).arrival;
    network_bytes_ += modeled;
    cluster_.engine().obs().Add(tags_.network_bytes, modeled);
    cluster_.scratch_disk(target)->Write(modeled, done);
    replicas.push_back(target);
    ++rereplicated;
  }
  obs::Registry& reg = cluster_.engine().obs();
  reg.Add(tags_.rereplicated, rereplicated);
  reg.Add(tags_.lost, lost);
  PSTK_INFO("dfs") << "node " << node << " failed: re-replicated "
                   << rereplicated << " blocks, lost " << lost;
}

}  // namespace pstk::dfs
