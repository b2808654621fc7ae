// MiniDFS: an HDFS-like distributed filesystem on the simulated cluster.
//
// Faithful structural properties (the ones the paper's results depend on):
//  * files split into fixed-size blocks (128 MB modeled by default);
//  * blocks replicated across datanodes (default factor 3), first replica
//    on the writer's node, pipeline replication to the rest;
//  * block-location metadata for locality-aware scheduling (Spark/MR ask
//    "which nodes hold block k?");
//  * datanode failure tolerated: reads fall back to surviving replicas and
//    a background re-replication restores the factor — the job never sees
//    the fault (paper §V-B2, §VI-D);
//  * all DFS traffic runs over the socket transport (Ethernet/IPoIB), never
//    RDMA, matching stock Hadoop.
//
// Simplifications (documented in DESIGN.md): the namenode is passive
// metadata with a constant RPC latency; datanodes are passive disk+NIC
// resources rather than separate processes; blocks are cut at line
// boundaries so every block holds whole records.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "buf/bytes.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "sim/engine.h"

namespace pstk::dfs {

using BlockId = std::uint64_t;

struct DfsOptions {
  Bytes block_size = 128 * kMiB;  // modeled bytes per block
  int replication = 3;
  SimTime namenode_rpc_latency = Micros(300);
  /// Transport for all datanode traffic (stock Hadoop: sockets).
  net::TransportParams transport = net::TransportParams::IPoIB();
  /// Client-side CPU per byte read: the DataNode streaming protocol plus
  /// checksum verification (short-circuit local reads are off by default
  /// in Hadoop 2.6) — the "additional layer for data access" behind the
  /// paper's ~25% HDFS-vs-local overhead (Table II).
  SimTime client_cpu_per_byte = 1.0 / 100e6;
};

struct BlockInfo {
  BlockId id = 0;
  Bytes actual_size = 0;
  Bytes modeled_size = 0;
  std::vector<int> replicas;  // node ids holding the block
};

struct FileInfo {
  std::string path;
  Bytes actual_size = 0;
  Bytes modeled_size = 0;
  std::vector<BlockId> blocks;
};

class MiniDfs {
 public:
  MiniDfs(cluster::Cluster& cluster, DfsOptions options = {});

  /// Write a whole file from a client on `writer_node`, charging pipeline
  /// replication costs. Content is actual bytes (modeled = actual / scale);
  /// the file is stored as one immutable chunk and blocks are zero-copy
  /// slices of it.
  Status Write(sim::Context& ctx, int writer_node, const std::string& path,
               buf::Bytes content);
  Status Write(sim::Context& ctx, int writer_node, const std::string& path,
               std::string_view content);

  /// Stage a file without simulating the write (input "already in HDFS"
  /// before the benchmark starts). Placement is still performed, seeded by
  /// `placement_seed` for reproducibility.
  Status Install(const std::string& path, buf::Bytes content,
                 std::uint64_t placement_seed = 0);
  Status Install(const std::string& path, std::string_view content,
                 std::uint64_t placement_seed = 0);

  /// Read one block from a client on `reader_node`: free locality if a
  /// replica is local, otherwise remote datanode disk + network transfer.
  /// The result aliases the stored block — no payload copy; all replicas
  /// of a block share one allocation.
  Result<buf::Bytes> ReadBlock(sim::Context& ctx, int reader_node,
                               const std::string& path,
                               std::size_t block_index);

  /// Read a whole file (concatenated blocks). Blocks are adjacent slices
  /// of the file's single chunk, so the result is a zero-copy alias of it.
  Result<buf::Bytes> ReadAll(sim::Context& ctx, int reader_node,
                             const std::string& path);

  [[nodiscard]] Result<FileInfo> Stat(const std::string& path) const;
  /// Replica locations per block, for locality-aware schedulers.
  [[nodiscard]] Result<std::vector<std::vector<int>>> BlockLocations(
      const std::string& path) const;
  [[nodiscard]] bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  [[nodiscard]] std::vector<std::string> List(const std::string& prefix) const;

  /// Datanode failure: drop its replicas and re-replicate from survivors
  /// (charged on the surviving/new nodes' disks and NICs at time `t`).
  /// Blocks whose every replica is lost become unreadable (DataLoss).
  void OnNodeFailed(int node, SimTime t);

  /// Live-changeable replication factor (paper's locality workaround was
  /// raising it to the executor count).
  void set_replication(int replication);
  [[nodiscard]] const DfsOptions& options() const { return options_; }

  /// Total modeled bytes moved between nodes for DFS traffic.
  [[nodiscard]] Bytes network_bytes() const { return network_bytes_; }

 private:
  struct StoredBlock {
    BlockInfo info;
    buf::Bytes content;  // slice of the file's chunk; replicas share it
  };

  /// Locate block `block_index` of `path`, charge the full read cost
  /// (namenode RPC, datanode disk, network if remote, client CPU) and
  /// return a pointer to the stored block — no payload copy. The pointer
  /// is valid until the block is deleted or the file re-replicated away.
  Result<const StoredBlock*> AccessBlock(sim::Context& ctx, int reader_node,
                                         const std::string& path,
                                         std::size_t block_index);

  /// Choose `replication` distinct nodes, first one preferring `writer`.
  std::vector<int> PlaceReplicas(int writer, Rng& rng) const;
  /// Split content at line boundaries into ~actual_block_size zero-copy
  /// slices of `content`'s storage.
  std::vector<buf::Bytes> SplitBlocks(const buf::Bytes& content) const;
  void ChargeNamenode(sim::Context& ctx) const;

  /// True if `node` can host replicas (not failed at either level).
  [[nodiscard]] bool NodeLive(int node) const;

  cluster::Cluster& cluster_;
  DfsOptions options_;
  std::shared_ptr<net::Fabric> fabric_;
  std::vector<bool> datanode_dead_;
  struct DfsTags {
    obs::TagId block_reads = obs::kNoTag;
    obs::TagId bytes_read = obs::kNoTag;  // actual bytes handed to readers
    obs::TagId local_reads = obs::kNoTag;
    obs::TagId remote_reads = obs::kNoTag;
    obs::TagId network_bytes = obs::kNoTag;
    obs::TagId rereplicated = obs::kNoTag;
    obs::TagId lost = obs::kNoTag;
    obs::TagId read_latency = obs::kNoTag;  // histogram, seconds
  };
  DfsTags tags_;
  std::map<std::string, FileInfo> files_;
  std::map<BlockId, StoredBlock> blocks_;
  BlockId next_block_id_ = 1;
  Rng placement_rng_;
  Bytes network_bytes_ = 0;
};

}  // namespace pstk::dfs
