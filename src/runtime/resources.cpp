#include "runtime/resources.hpp"

#include <algorithm>
#include <stdexcept>

namespace chpo::rt {

ResourceState::ResourceState(const cluster::ClusterSpec& spec) : spec_(spec) {
  nodes_.resize(spec_.nodes.size());
  for (std::size_t i = 0; i < spec_.nodes.size(); ++i) {
    NodeState& n = nodes_[i];
    n.usable = spec_.node_usable(i);
    n.core_busy.assign(spec_.usable_cpus(i), false);
    n.gpu_busy.assign(spec_.usable_gpus(i), false);
    n.core_offset = spec_.worker_placement == cluster::WorkerPlacement::SharedCores
                        ? spec_.worker_cores
                        : 0;
  }
}

std::optional<Placement> ResourceState::try_allocate(std::size_t node, const Constraint& constraint) {
  if (node >= nodes_.size()) return std::nullopt;
  NodeState& n = nodes_[node];
  if (n.down || !n.usable) return std::nullopt;

  const unsigned want_cpus =
      constraint.node_exclusive ? static_cast<unsigned>(n.core_busy.size()) : constraint.cpus;
  if (want_cpus > n.core_busy.size() || constraint.gpus > n.gpu_busy.size()) return std::nullopt;

  // Collect the lowest free slots; bail if not enough.
  std::vector<unsigned> cores;
  cores.reserve(want_cpus);
  for (unsigned slot = 0; slot < n.core_busy.size() && cores.size() < want_cpus; ++slot)
    if (!n.core_busy[slot]) cores.push_back(slot);
  if (cores.size() < want_cpus) return std::nullopt;

  std::vector<unsigned> gpus;
  gpus.reserve(constraint.gpus);
  for (unsigned slot = 0; slot < n.gpu_busy.size() && gpus.size() < constraint.gpus; ++slot)
    if (!n.gpu_busy[slot]) gpus.push_back(slot);
  if (gpus.size() < constraint.gpus) return std::nullopt;

  Placement placement;
  placement.node = static_cast<int>(node);
  for (unsigned slot : cores) {
    n.core_busy[slot] = true;
    placement.cores.push_back(slot + n.core_offset);  // physical index
  }
  for (unsigned slot : gpus) {
    n.gpu_busy[slot] = true;
    placement.gpus.push_back(slot);
  }
  return placement;
}

std::optional<Placement> ResourceState::try_allocate_multi(const Constraint& constraint,
                                                           const std::vector<int>& excluded) {
  const unsigned wanted = std::max(1u, constraint.nodes);
  Constraint per_node = constraint;
  per_node.nodes = 1;

  std::vector<Placement> slices;
  for (std::size_t node = 0; node < nodes_.size() && slices.size() < wanted; ++node) {
    if (std::find(excluded.begin(), excluded.end(), static_cast<int>(node)) != excluded.end())
      continue;
    if (auto slice = try_allocate(node, per_node)) slices.push_back(std::move(*slice));
  }
  if (slices.size() < wanted) {
    for (const Placement& slice : slices) release(slice);
    return std::nullopt;
  }
  Placement placement = std::move(slices.front());
  for (std::size_t i = 1; i < slices.size(); ++i)
    placement.secondary.push_back(NodeSlice{.node = slices[i].node,
                                            .cores = std::move(slices[i].cores),
                                            .gpus = std::move(slices[i].gpus)});
  return placement;
}

void ResourceState::release(const Placement& placement) {
  const auto release_slice = [this](int node_index, const std::vector<unsigned>& cores,
                                    const std::vector<unsigned>& gpus) {
    if (node_index < 0 || static_cast<std::size_t>(node_index) >= nodes_.size())
      throw std::out_of_range("ResourceState: release on unknown node");
    NodeState& n = nodes_[static_cast<std::size_t>(node_index)];
    for (unsigned physical : cores) {
      const unsigned slot = physical - n.core_offset;
      if (slot >= n.core_busy.size() || !n.core_busy[slot])
        throw std::logic_error("ResourceState: double release of a core slot");
      n.core_busy[slot] = false;
    }
    for (unsigned slot : gpus) {
      if (slot >= n.gpu_busy.size() || !n.gpu_busy[slot])
        throw std::logic_error("ResourceState: double release of a gpu slot");
      n.gpu_busy[slot] = false;
    }
  };
  release_slice(placement.node, placement.cores, placement.gpus);
  for (const NodeSlice& slice : placement.secondary)
    release_slice(slice.node, slice.cores, slice.gpus);
}

bool ResourceState::could_fit(std::size_t node, const Constraint& constraint) const {
  if (node >= nodes_.size()) return false;
  const NodeState& n = nodes_[node];
  if (n.down || !n.usable) return false;
  const unsigned want_cpus =
      constraint.node_exclusive ? static_cast<unsigned>(n.core_busy.size()) : constraint.cpus;
  if (n.core_busy.empty() && want_cpus > 0) return false;
  return want_cpus <= n.core_busy.size() && constraint.gpus <= n.gpu_busy.size();
}

std::size_t ResourceState::add_node(const cluster::NodeSpec& node) {
  spec_.nodes.push_back(node);
  const std::size_t index = nodes_.size();
  NodeState state;
  state.usable = spec_.node_usable(index);
  state.core_busy.assign(spec_.usable_cpus(index), false);
  state.gpu_busy.assign(spec_.usable_gpus(index), false);
  state.core_offset = spec_.worker_placement == cluster::WorkerPlacement::SharedCores
                          ? spec_.worker_cores
                          : 0;
  nodes_.push_back(std::move(state));
  return index;
}

void ResourceState::mark_node_down(std::size_t node) {
  if (node >= nodes_.size()) throw std::out_of_range("ResourceState: unknown node");
  nodes_[node].down = true;
}

void ResourceState::mark_node_up(std::size_t node) {
  if (node >= nodes_.size()) throw std::out_of_range("ResourceState: unknown node");
  NodeState& n = nodes_[node];
  n.down = false;
  // Every attempt that held slots here was concluded (and released) when
  // the node went down; a rejoining node starts from a clean slate.
  n.core_busy.assign(n.core_busy.size(), false);
  n.gpu_busy.assign(n.gpu_busy.size(), false);
}

bool ResourceState::node_down(std::size_t node) const {
  if (node >= nodes_.size()) throw std::out_of_range("ResourceState: unknown node");
  return nodes_[node].down;
}

unsigned ResourceState::free_cpus(std::size_t node) const {
  if (node >= nodes_.size()) return 0;
  const NodeState& n = nodes_[node];
  if (n.down || !n.usable) return 0;
  return static_cast<unsigned>(std::count(n.core_busy.begin(), n.core_busy.end(), false));
}

unsigned ResourceState::free_gpus(std::size_t node) const {
  if (node >= nodes_.size()) return 0;
  const NodeState& n = nodes_[node];
  if (n.down || !n.usable) return 0;
  return static_cast<unsigned>(std::count(n.gpu_busy.begin(), n.gpu_busy.end(), false));
}

}  // namespace chpo::rt
