// Dynamic task dependency graph.
//
// Built at submission time exactly as the COMPSs runtime does (§3): each
// task's parameter directions are run through the DataRegistry, producing
// predecessor edges. The graph also holds per-task lifecycle state for the
// execution engine and can export itself as Graphviz DOT with the paper's
// d{n}v{m} edge labels (Figure 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/data_registry.hpp"
#include "runtime/task.hpp"
#include "runtime/types.hpp"

namespace chpo::rt {

struct TaskRecord {
  TaskId id = 0;
  /// Owning study: completions route to this study's session and
  /// cancel_study(study) touches only tasks that carry its tag.
  StudyId study = kMainStudy;
  TaskDef def;
  std::vector<ParamBinding> bindings;
  Future result;  ///< implicit return datum

  std::vector<TaskId> predecessors;
  std::vector<TaskId> successors;

  TaskState state = TaskState::WaitingDeps;
  std::size_t deps_remaining = 0;
  int attempts_made = 0;
  std::vector<int> excluded_nodes;  ///< nodes this task must avoid (after faults)
  int last_node = -1;               ///< node of the most recent attempt
  /// Implementation chosen for the current/last attempt: -1 = primary,
  /// otherwise an index into def.variants (@implement).
  int active_variant = -1;
  std::string failure_reason;
  /// Runtime::cancel hit this task while an attempt was in flight: the
  /// attempt's outcome is discarded when it reports back.
  bool abandoned = false;
  /// Attempts currently holding resources. Normally 0 or 1; speculation can
  /// run the original and up to SpeculationPolicy::max_duplicates at once.
  int running_attempts = 0;
  /// Speculative duplicates launched for this task so far.
  int speculative_launches = 0;
  /// A StragglerDetected event was already recorded (emit it once).
  bool straggler_flagged = false;
  /// Completion-order stamp (1-based); 0 while the task is not yet
  /// terminal. Runtime::track reads it to queue an already-terminal task.
  std::uint64_t terminal_seq = 0;
  /// Attempt number (1-based) of the attempt whose outputs were committed.
  /// Lineage recovery replays this attempt so injected-failure draws and
  /// seeds line up and the recomputed value is bit-identical.
  int succeeded_attempt = 0;
  /// A lineage-recovery re-execution of this (Done) task is pending or in
  /// flight. Recovery never reopens task state — the task stays Done and
  /// keeps its terminal_seq; only its output data is recommitted.
  bool recovering = false;
  /// In the engine's per-study ready shard: set exactly while the task is
  /// linked into the shard's readiness list and its rank set.
  bool in_ready = false;
  /// A wait_on / next_completion returned this task's future: to_dot draws
  /// its edge into the "sync" node (Figure 3).
  bool synced = false;
  /// Runtime::release_study freed this terminal task's closures (body,
  /// cost, variant bodies). It can never run again, so lineage recovery
  /// treats its outputs as unrecoverable.
  bool released = false;
  /// Neighbours in the ready shard's readiness list (kNoTask at either
  /// end), meaningful only while in_ready is set.
  TaskId ready_prev = kNoTask;
  TaskId ready_next = kNoTask;

  const Constraint& implementation_constraint(int variant) const {
    return variant < 0 ? def.constraint
                       : def.variants.at(static_cast<std::size_t>(variant)).constraint;
  }
  const TaskBody& implementation_body(int variant) const {
    if (variant >= 0) {
      const TaskVariant& v = def.variants.at(static_cast<std::size_t>(variant));
      if (v.body) return v.body;
    }
    return def.body;
  }
  const TaskCost& implementation_cost(int variant) const {
    if (variant >= 0) {
      const TaskVariant& v = def.variants.at(static_cast<std::size_t>(variant));
      if (v.cost) return v.cost;
    }
    return def.cost;
  }
};

class TaskGraph {
 public:
  explicit TaskGraph(DataRegistry& registry) : registry_(registry) {}

  /// Create a task, derive dependencies from its params, and register the
  /// implicit return datum. Returns the new task's id. `study` tags the
  /// task with its owning session (kMainStudy for direct Runtime use).
  TaskId add_task(TaskDef def, const std::vector<Param>& params,
                  StudyId study = kMainStudy);

  /// Defined inline: this is the single hottest call in the engine (every
  /// scheduling walk, gating probe and ordering comparator goes through
  /// it), so it must compile down to a bounds-checked vector index.
  TaskRecord& task(TaskId id) {
    if (id >= tasks_.size()) throw std::out_of_range("TaskGraph: unknown task " + std::to_string(id));
    return tasks_[id];
  }
  const TaskRecord& task(TaskId id) const {
    if (id >= tasks_.size()) throw std::out_of_range("TaskGraph: unknown task " + std::to_string(id));
    return tasks_[id];
  }
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }

  /// All task ids currently in `state`.
  std::vector<TaskId> tasks_in_state(TaskState state) const;

  /// Sanity check: true if every edge points from a lower to a higher id
  /// (submission order is a valid topological order by construction).
  bool is_acyclic() const;

  /// Longest path length in tasks (the critical path of the application).
  std::size_t critical_path_length() const;

  /// Graphviz DOT export. Tasks whose future a wait returned (the
  /// `synced` flag) get an edge into a "sync" node, mirroring Figure 3.
  std::string to_dot() const;

  DataRegistry& registry() { return registry_; }
  const DataRegistry& registry() const { return registry_; }

 private:
  DataRegistry& registry_;
  std::vector<TaskRecord> tasks_;
};

}  // namespace chpo::rt
