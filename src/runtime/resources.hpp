// Per-node core/GPU slot accounting — the affinity enforcer.
//
// The paper's first experiment (Figure 4) verifies that a task constrained
// to one core really occupies one core of a 48-core node. ResourceState
// grants tasks *specific* physical core and GPU indices so traces show true
// affinity sets, and it refuses to oversubscribe: a slot is owned by at
// most one task at a time. When the cluster reserves worker cores
// (WorkerPlacement::SharedCores), the low physical indices belong to the
// COMPSs worker and tasks are placed above them.
#pragma once

#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "runtime/types.hpp"

namespace chpo::rt {

class ResourceState {
 public:
  explicit ResourceState(const cluster::ClusterSpec& spec);

  /// Try to allocate resources for `constraint` on `node`. Returns the
  /// placement (with physical core/GPU indices) or nullopt if it does not
  /// fit right now. node_exclusive grabs every usable core of the node.
  /// Ignores constraint.nodes (use try_allocate_multi for @multinode).
  std::optional<Placement> try_allocate(std::size_t node, const Constraint& constraint);

  /// @multinode allocation: grants constraint.{cpus,gpus} on each of
  /// constraint.nodes distinct nodes (skipping `excluded`). The first node
  /// found becomes the primary. nullopt if fewer nodes fit right now.
  std::optional<Placement> try_allocate_multi(const Constraint& constraint,
                                              const std::vector<int>& excluded = {});

  /// Return the slots of a previous allocation (all slices of a
  /// @multinode placement included).
  void release(const Placement& placement);

  /// Whether the per-node share of the constraint could *ever* fit on this
  /// node (ignores current occupancy) — used to reject impossible tasks
  /// early.
  bool could_fit(std::size_t node, const Constraint& constraint) const;

  /// Elastic growth: register a new node at runtime ("the user just has
  /// to request more nodes", §6.1 — here even mid-run). Returns its index.
  std::size_t add_node(const cluster::NodeSpec& node);

  /// Mark a node as failed; its slots become unallocatable. Throws
  /// std::out_of_range on an unknown node index — node_down and
  /// mark_node_up validate identically, so a bad index surfaces the same
  /// way on every membership path instead of being silently answered.
  void mark_node_down(std::size_t node);
  /// Bring a previously failed node back (elastic rejoin). All of its
  /// slots return free: attempts that were running there were already
  /// concluded as failures when the node went down. Throws
  /// std::out_of_range on an unknown node index.
  void mark_node_up(std::size_t node);
  bool node_down(std::size_t node) const;

  unsigned free_cpus(std::size_t node) const;
  unsigned free_gpus(std::size_t node) const;
  std::size_t node_count() const { return nodes_.size(); }

  const cluster::ClusterSpec& spec() const { return spec_; }

 private:
  struct NodeState {
    std::vector<bool> core_busy;  ///< index = usable-core slot
    std::vector<bool> gpu_busy;
    unsigned core_offset = 0;  ///< physical index of usable slot 0
    bool down = false;
    bool usable = true;  ///< false for a dedicated worker node
  };

  cluster::ClusterSpec spec_;
  std::vector<NodeState> nodes_;
};

}  // namespace chpo::rt
