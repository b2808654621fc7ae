#include "cluster/cluster.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace pstk::cluster {

ClusterSpec ClusterSpec::Comet(std::size_t nodes) {
  ClusterSpec spec;
  spec.name = "comet";
  spec.nodes = nodes;
  spec.node = NodeSpec{};  // defaults are the Comet values
  spec.transport = net::TransportParams::RdmaFdr();
  return spec;
}

Cluster::Cluster(sim::Engine& engine, ClusterSpec spec, double data_scale)
    : engine_(engine), spec_(std::move(spec)), data_scale_(data_scale) {
  PSTK_CHECK_MSG(spec_.nodes >= 1, "cluster needs at least one node");
  PSTK_CHECK_MSG(data_scale_ > 0 && data_scale_ <= 1.0,
                 "data_scale must be in (0,1], got " << data_scale_);
  disks_.reserve(spec_.nodes);
  scratch_.reserve(spec_.nodes);
  failed_.assign(spec_.nodes, false);
  used_cores_.assign(spec_.nodes, 0);
  for (std::size_t i = 0; i < spec_.nodes; ++i) {
    disks_.push_back(std::make_shared<storage::Disk>(spec_.node.scratch));
    disks_.back()->AttachObs(&engine_.obs(), "storage.scratch");
    scratch_.push_back(
        std::make_unique<storage::LocalFs>(disks_.back(), data_scale_));
  }
}

std::shared_ptr<net::Fabric> Cluster::fabric() {
  return fabric(spec_.transport);
}

std::shared_ptr<net::Fabric> Cluster::fabric(
    const net::TransportParams& transport) {
  auto it = fabrics_.find(transport.name);
  if (it != fabrics_.end()) return it->second;
  auto fabric = std::make_shared<net::Fabric>(spec_.nodes, transport);
  fabric->AttachObs(&engine_.obs());
  fabrics_.emplace(transport.name, fabric);
  return fabric;
}

storage::LocalFs& Cluster::scratch(int node) {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  return *scratch_[node];
}

std::shared_ptr<storage::Disk> Cluster::scratch_disk(int node) {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  return disks_[node];
}

SimTime Cluster::ComputeTime(double flops, int threads) const {
  PSTK_CHECK(threads >= 1);
  const int usable = std::min(threads, spec_.node.cores);
  const double per_core = spec_.node.peak_flops /
                          static_cast<double>(spec_.node.cores);
  // Mild parallel-efficiency decay: 2% loss per extra core engaged.
  const double efficiency =
      1.0 / (1.0 + 0.02 * static_cast<double>(usable - 1));
  return flops / (per_core * static_cast<double>(usable) * efficiency);
}

void Cluster::FailNode(int node, SimTime t) {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  engine_.ScheduleEvent(t, [this, node] {
    if (failed_[node]) return;
    failed_[node] = true;
    ++node_failures_;
    disks_[node]->set_failed(true);
    for (sim::Pid pid : engine_.AlivePidsOnNode(node)) {
      engine_.KillNow(pid);
    }
    PSTK_INFO("cluster") << spec_.name << ": node " << node << " failed at t="
                         << engine_.now();
    for (const NodeEventCallback& callback : on_failure_) {
      callback(node, engine_.now());
    }
  });
}

void Cluster::RestoreNode(int node, SimTime t) {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  engine_.ScheduleEvent(t, [this, node] {
    if (!failed_[node]) return;
    failed_[node] = false;
    disks_[node]->set_failed(false);
    PSTK_INFO("cluster") << spec_.name << ": node " << node
                         << " restored at t=" << engine_.now();
  });
}

void Cluster::ApplyFaultPlan(const sim::FaultPlan& plan) {
  for (const sim::FaultEvent& event : plan.events) {
    FailNode(event.node, event.time);
    if (event.transient()) RestoreNode(event.node, event.time + event.down_for);
  }
}

bool Cluster::ReserveCores(int node, int count, int owner) {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  PSTK_CHECK_MSG(count > 0, "reserve count must be positive, got " << count);
  if (failed_[node]) return false;
  if (used_cores_[node] + count > cores_per_node()) return false;
  used_cores_[node] += count;
  held_cores_[{owner, node}] += count;
  return true;
}

void Cluster::ReleaseCores(int node, int count, int owner) {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  PSTK_CHECK_MSG(count > 0, "release count must be positive, got " << count);
  auto it = held_cores_.find({owner, node});
  PSTK_CHECK_MSG(it != held_cores_.end() && it->second >= count,
                 "owner " << owner << " releases " << count << " cores on node "
                          << node << " but holds "
                          << (it == held_cores_.end() ? 0 : it->second));
  it->second -= count;
  if (it->second == 0) held_cores_.erase(it);
  used_cores_[node] -= count;
}

void Cluster::ReleaseAllCores(int owner) {
  for (auto it = held_cores_.lower_bound({owner, 0});
       it != held_cores_.end() && it->first.first == owner;) {
    used_cores_[it->first.second] -= it->second;
    it = held_cores_.erase(it);
  }
}

int Cluster::FreeCores(int node) const {
  PSTK_CHECK_MSG(node >= 0 && node < nodes(), "bad node " << node);
  if (failed_[node]) return 0;
  return cores_per_node() - used_cores_[node];
}

int Cluster::CoresHeldBy(int owner, int node) const {
  auto it = held_cores_.find({owner, node});
  return it == held_cores_.end() ? 0 : it->second;
}

int Cluster::UsedCores() const {
  int total = 0;
  for (int used : used_cores_) total += used;
  return total;
}

void Cluster::SubscribeNodeFailure(NodeEventCallback callback) {
  on_failure_.push_back(std::move(callback));
}

}  // namespace pstk::cluster
