// Scheduling policies.
//
// Given the ready tasks and the current resource occupancy, a policy
// decides which task to place where. It pulls candidates from a
// CandidateSource in the order it needs, so a round examines only the
// candidates it reaches, never the whole ready queue. All policies but
// Fifo honour the COMPSs priority hint (priority tasks jump the queue),
// and none oversubscribes — ResourceState is the single source of truth
// for slot ownership.
//
// Policies provided:
//  * FifoScheduler      — readiness order, interleaved between studies by
//                         weighted fair share; first node that fits.
//  * PriorityScheduler  — priority flag first, then submission order
//                         (the COMPSs default; used by all paper figures).
//  * LocalityScheduler  — like Priority, but among fitting nodes prefers the
//                         one holding the most input bytes (matters only
//                         when the cluster has no parallel filesystem).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/data_registry.hpp"
#include "runtime/graph.hpp"
#include "runtime/node_health.hpp"
#include "runtime/resources.hpp"
#include "runtime/types.hpp"

namespace chpo::rt {

/// One placement decision.
struct Dispatch {
  TaskId task = kNoTask;
  Placement placement;
  /// Implementation chosen: -1 = primary, else index into def.variants.
  int variant = -1;
  /// Engine-stamped in-flight attempt handle (0 = not yet registered).
  /// Backends hand it back via Engine::complete_attempt so a completion of
  /// a reaped or superseded attempt can be told apart from a live one.
  std::uint64_t attempt_id = 0;
};

/// The ready candidates of one scheduling round, pulled one at a time. A
/// round reads one of the two orders; each call costs O(studies) plus the
/// stale entries it skips, whatever the length of the ready queues.
/// Membership is the same in both: a paused study contributes nothing and
/// a study under a max_running quota only its free quota's worth of tasks,
/// the first to have become ready.
class CandidateSource {
 public:
  /// Readiness order within each study, interleaved between studies by
  /// weighted fair-share deficit (Fifo's order). nullopt when exhausted.
  virtual std::optional<TaskId> next_by_readiness() = 0;
  /// (priority desc, id asc) across every study. nullopt when exhausted.
  virtual std::optional<TaskId> next_by_priority() = 0;
  /// A lower bound on what every candidate asks of one node: each needs
  /// at least `cpus` free cores and `gpus` free GPUs on some node to
  /// place, so a round stops pulling once no node has that much room.
  virtual Constraint smallest_demand() const = 0;

 protected:
  ~CandidateSource() = default;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;

  /// Place as many ready tasks as resources allow, pulling candidates from
  /// `ready` in this policy's order and no further than it needs.
  /// Allocations are made through `resources` (and must be released by
  /// the caller when tasks finish). Tasks with excluded nodes are never
  /// placed there.
  virtual std::vector<Dispatch> schedule(CandidateSource& ready, const TaskGraph& graph,
                                         ResourceState& resources) = 0;

  /// Health-gated placement: when a tracker is set, nodes it disallows
  /// (quarantined/probation beyond their concurrency cap) receive no new
  /// placements. Nullptr disables gating.
  void set_health(const NodeHealth* health) { health_ = health; }

 protected:
  /// The tracker to gate this round with, or nullptr when gating would
  /// block *every* node — a fully quarantined cluster must still make
  /// progress, so gating falls away rather than deadlocking.
  /// Note: the per-node concurrency cap is enforced against in-flight
  /// counts updated at dispatch conclusion; a single scheduling round may
  /// place a small batch above the cap. Accepted — the cap is a throttle,
  /// not a hard isolation boundary.
  const NodeHealth* effective_health(const ResourceState& resources) const {
    if (!health_) return nullptr;
    for (std::size_t node = 0; node < resources.node_count(); ++node)
      if (!resources.node_down(node) && health_->allow_placement(node)) return health_;
    return nullptr;
  }

  const NodeHealth* health_ = nullptr;
};

class FifoScheduler : public Scheduler {
 public:
  std::string name() const override { return "fifo"; }
  std::vector<Dispatch> schedule(CandidateSource& ready, const TaskGraph& graph,
                                 ResourceState& resources) override;
};

class PriorityScheduler : public Scheduler {
 public:
  std::string name() const override { return "priority"; }
  std::vector<Dispatch> schedule(CandidateSource& ready, const TaskGraph& graph,
                                 ResourceState& resources) override;
};

class LocalityScheduler : public Scheduler {
 public:
  std::string name() const override { return "locality"; }
  std::vector<Dispatch> schedule(CandidateSource& ready, const TaskGraph& graph,
                                 ResourceState& resources) override;
};

/// Duration-aware implementation selection: among the (implementation,
/// node) pairs that fit *now*, pick the one whose cost model predicts the
/// shortest run. Fixes the @implement pathology where availability-greedy
/// selection strands a long task on a slow fallback (see bench_variants);
/// tasks without cost models fall back to first-fit like Priority.
class CostAwareScheduler : public Scheduler {
 public:
  std::string name() const override { return "cost-aware"; }
  std::vector<Dispatch> schedule(CandidateSource& ready, const TaskGraph& graph,
                                 ResourceState& resources) override;
};

/// Factory by name: "fifo", "priority", "locality", "cost-aware".
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

/// Placement for a speculative duplicate of a straggling attempt: first
/// node that satisfies `constraint` now, skipping the task's excluded
/// (blacklisted) nodes and `avoid_node` — the node the straggling original
/// runs on, where a duplicate would only queue behind the same slowness.
std::optional<Placement> place_duplicate(const TaskRecord& task, const Constraint& constraint,
                                         ResourceState& resources, int avoid_node);

/// Bytes of the task's In/InOut params already resident on `node`.
std::uint64_t local_input_bytes(const TaskRecord& task, const DataRegistry& registry, int node);

}  // namespace chpo::rt
