#include "runtime/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace chpo::rt {

namespace {

bool node_excluded(const TaskRecord& task, std::size_t node) {
  return std::find(task.excluded_nodes.begin(), task.excluded_nodes.end(), static_cast<int>(node)) !=
         task.excluded_nodes.end();
}

bool health_allows(const NodeHealth* health, std::size_t node) {
  return health == nullptr || health->allow_placement(node);
}

/// No node has a free cpu or gpu slot (every constraint requests at least
/// one resource), or none has room for `demand`, the least any candidate
/// asks: nothing can place, so the per-task × per-node allocation probes
/// can be skipped wholesale. This is the steady state of a saturated storm
/// — thousands of ready tasks, no room for any of them.
bool nothing_fits(const ResourceState& resources, const Constraint& demand) {
  for (std::size_t node = 0; node < resources.node_count(); ++node) {
    const unsigned cpus = resources.free_cpus(node);
    const unsigned gpus = resources.free_gpus(node);
    if ((cpus > 0 || gpus > 0) && cpus >= demand.cpus && gpus >= demand.gpus) return false;
  }
  return true;
}

/// Try one implementation of a task. Multinode constraints use the
/// multi-allocation path; locality ranking applies to single-node ones.
std::optional<Placement> place_implementation(const TaskRecord& task, const Constraint& constraint,
                                              const TaskGraph& graph, ResourceState& resources,
                                              bool locality_aware, const NodeHealth* health) {
  if (constraint.nodes > 1) {
    std::vector<int> excluded = task.excluded_nodes;
    if (health)
      for (std::size_t node = 0; node < resources.node_count(); ++node)
        if (!health->allow_placement(node)) excluded.push_back(static_cast<int>(node));
    return resources.try_allocate_multi(constraint, excluded);
  }
  if (locality_aware) {
    // Rank fitting nodes by resident input bytes; first-fit on ties.
    std::uint64_t best_bytes = 0;
    std::size_t best_node = resources.node_count();
    for (std::size_t node = 0; node < resources.node_count(); ++node) {
      if (node_excluded(task, node) || !health_allows(health, node) ||
          !resources.could_fit(node, constraint))
        continue;
      // Probe without committing: count bytes first, allocate later.
      const std::uint64_t bytes = local_input_bytes(task, graph.registry(), static_cast<int>(node));
      if (best_node == resources.node_count() || bytes > best_bytes) {
        // Only consider nodes that can take the task *now*.
        auto probe = resources.try_allocate(node, constraint);
        if (!probe) continue;
        resources.release(*probe);
        best_node = node;
        best_bytes = bytes;
      }
    }
    if (best_node < resources.node_count()) return resources.try_allocate(best_node, constraint);
    return std::nullopt;
  }
  for (std::size_t node = 0; node < resources.node_count(); ++node) {
    if (node_excluded(task, node) || !health_allows(health, node)) continue;
    if (auto placement = resources.try_allocate(node, constraint)) return placement;
  }
  return std::nullopt;
}

std::optional<TaskId> next_candidate(CandidateSource& ready, bool by_priority) {
  return by_priority ? ready.next_by_priority() : ready.next_by_readiness();
}

std::vector<Dispatch> schedule_in_order(CandidateSource& ready, bool by_priority,
                                        const TaskGraph& graph, ResourceState& resources,
                                        bool locality_aware, const NodeHealth* health) {
  std::vector<Dispatch> out;
  // A cluster with no room for any candidate pays O(nodes) and pulls
  // nothing.
  const Constraint demand = ready.smallest_demand();
  if (nothing_fits(resources, demand)) return out;
  while (const std::optional<TaskId> next = next_candidate(ready, by_priority)) {
    const TaskId id = *next;
    const TaskRecord& task = graph.task(id);
    // Primary implementation first, then @implement variants in order.
    const int n_variants = static_cast<int>(task.def.variants.size());
    bool placed = false;
    for (int variant = -1; variant < n_variants; ++variant) {
      auto placement = place_implementation(task, task.implementation_constraint(variant), graph,
                                            resources, locality_aware, health);
      if (placement) {
        out.push_back(
            Dispatch{.task = id, .placement = std::move(*placement), .variant = variant});
        placed = true;
        break;
      }
    }
    // A successful placement may have taken the last room any candidate
    // fits in; stop pulling from the (possibly long) ready queues once it
    // did. (A failed one changes no occupancy.)
    if (placed && nothing_fits(resources, demand)) break;
  }
  return out;
}

}  // namespace

std::optional<Placement> place_duplicate(const TaskRecord& task, const Constraint& constraint,
                                         ResourceState& resources, int avoid_node) {
  for (std::size_t node = 0; node < resources.node_count(); ++node) {
    if (static_cast<int>(node) == avoid_node) continue;
    if (node_excluded(task, node)) continue;
    if (auto placement = resources.try_allocate(node, constraint)) return placement;
  }
  return std::nullopt;
}

std::uint64_t local_input_bytes(const TaskRecord& task, const DataRegistry& registry, int node) {
  std::uint64_t bytes = 0;
  for (const ParamBinding& b : task.bindings) {
    if (b.param.dir == Direction::Out) continue;
    if (registry.available_everywhere(b.param.data, b.read_version) ||
        registry.locations(b.param.data, b.read_version).contains(node))
      bytes += registry.bytes_of(b.param.data);
  }
  return bytes;
}

std::vector<Dispatch> FifoScheduler::schedule(CandidateSource& ready, const TaskGraph& graph,
                                              ResourceState& resources) {
  return schedule_in_order(ready, /*by_priority=*/false, graph, resources,
                           /*locality_aware=*/false, effective_health(resources));
}

std::vector<Dispatch> PriorityScheduler::schedule(CandidateSource& ready, const TaskGraph& graph,
                                                  ResourceState& resources) {
  return schedule_in_order(ready, /*by_priority=*/true, graph, resources,
                           /*locality_aware=*/false, effective_health(resources));
}

std::vector<Dispatch> LocalityScheduler::schedule(CandidateSource& ready, const TaskGraph& graph,
                                                  ResourceState& resources) {
  return schedule_in_order(ready, /*by_priority=*/true, graph, resources,
                           /*locality_aware=*/true, effective_health(resources));
}

namespace {

/// Synthetic placement carrying just the resource counts a cost model needs.
Placement hypothetical_placement(int node, const Constraint& constraint, unsigned node_cores) {
  Placement p;
  p.node = node;
  const unsigned cpus = constraint.node_exclusive ? node_cores : constraint.cpus;
  for (unsigned c = 0; c < cpus; ++c) p.cores.push_back(c);
  for (unsigned g = 0; g < constraint.gpus; ++g) p.gpus.push_back(g);
  for (unsigned extra = 1; extra < std::max(1u, constraint.nodes); ++extra)
    p.secondary.push_back(NodeSlice{.node = node, .cores = p.cores, .gpus = p.gpus});
  return p;
}

double estimated_seconds(const TaskRecord& task, int variant, const Placement& placement,
                         const cluster::NodeSpec& node) {
  const TaskCost& cost = task.implementation_cost(variant);
  if (!cost) return 1.0;  // no model: all options look equal
  return cost(placement, node);
}

}  // namespace

std::vector<Dispatch> CostAwareScheduler::schedule(CandidateSource& ready, const TaskGraph& graph,
                                                   ResourceState& resources) {
  // A fitting option is taken only if it is within `kSpillFactor` of the
  // task's best achievable duration anywhere on the (live) cluster;
  // otherwise the task waits for better resources to free up. Deferral is
  // safe: on an otherwise-idle cluster the preferred option either fits or
  // can never fit (and is then excluded from the best-achievable bound).
  constexpr double kSpillFactor = 2.0;
  const auto& spec = resources.spec();
  // best_possible below stays ungated: quarantine is transient, so a
  // quarantined node still bounds what the task could achieve later.
  const NodeHealth* health = effective_health(resources);

  std::vector<Dispatch> out;
  // Once no node has room for any candidate, stop pulling.
  const Constraint demand = ready.smallest_demand();
  while (!nothing_fits(resources, demand)) {
    const std::optional<TaskId> next = ready.next_by_priority();
    if (!next) break;
    const TaskId id = *next;
    const TaskRecord& task = graph.task(id);
    const int n_variants = static_cast<int>(task.def.variants.size());

    // Best achievable duration over every feasible (implementation, node).
    double best_possible = std::numeric_limits<double>::infinity();
    for (int variant = -1; variant < n_variants; ++variant) {
      const Constraint& constraint = task.implementation_constraint(variant);
      for (std::size_t node = 0; node < resources.node_count(); ++node) {
        if (node_excluded(task, node) || !resources.could_fit(node, constraint)) continue;
        const Placement hypothetical =
            hypothetical_placement(static_cast<int>(node), constraint, spec.nodes[node].cpus);
        best_possible = std::min(
            best_possible, estimated_seconds(task, variant, hypothetical, spec.nodes[node]));
      }
    }

    // Cheapest option that fits right now.
    double best_fitting = std::numeric_limits<double>::infinity();
    std::optional<Placement> best_placement;
    int best_variant = -1;
    for (int variant = -1; variant < n_variants; ++variant) {
      const Constraint& constraint = task.implementation_constraint(variant);
      if (constraint.nodes > 1) {
        std::vector<int> excluded = task.excluded_nodes;
        if (health)
          for (std::size_t node = 0; node < resources.node_count(); ++node)
            if (!health->allow_placement(node)) excluded.push_back(static_cast<int>(node));
        if (auto probe = resources.try_allocate_multi(constraint, excluded)) {
          const double seconds = estimated_seconds(
              task, variant, *probe, spec.nodes[static_cast<std::size_t>(probe->node)]);
          if (seconds < best_fitting) {
            if (best_placement) resources.release(*best_placement);
            best_fitting = seconds;
            best_placement = std::move(*probe);
            best_variant = variant;
          } else {
            resources.release(*probe);
          }
        }
        continue;
      }
      for (std::size_t node = 0; node < resources.node_count(); ++node) {
        if (node_excluded(task, node) || !health_allows(health, node)) continue;
        auto probe = resources.try_allocate(node, constraint);
        if (!probe) continue;
        const double seconds = estimated_seconds(task, variant, *probe, spec.nodes[node]);
        if (seconds < best_fitting) {
          if (best_placement) resources.release(*best_placement);
          best_fitting = seconds;
          best_placement = std::move(*probe);
          best_variant = variant;
        } else {
          resources.release(*probe);
        }
      }
    }

    if (!best_placement) continue;
    if (best_fitting > kSpillFactor * best_possible) {
      // Too slow compared to what freeing resources will offer: wait.
      resources.release(*best_placement);
      continue;
    }
    out.push_back(
        Dispatch{.task = id, .placement = std::move(*best_placement), .variant = best_variant});
  }
  return out;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "priority") return std::make_unique<PriorityScheduler>();
  if (name == "locality") return std::make_unique<LocalityScheduler>();
  if (name == "cost-aware") return std::make_unique<CostAwareScheduler>();
  throw std::invalid_argument("unknown scheduler policy: " + name);
}

}  // namespace chpo::rt
