// Discrete-event simulation backend.
//
// Executes the identical scheduling/fault/data semantics as the threaded
// backend, but time is virtual: each dispatched task occupies its resources
// for TaskDef::cost(placement, node) seconds on the simulated clock. This
// is how the paper's cluster-scale experiments (Figures 4-6 and 9: 48-core
// MareNostrum nodes, 28-node runs, GPU nodes) are reproduced on a laptop —
// see DESIGN.md §3 for the substitution argument.
//
// Task bodies still run (synchronously, at dispatch) so results such as
// trained-model accuracies are real; set execute_bodies=false for pure
// scheduling studies where only the timeline matters.
#pragma once

#include <algorithm>
#include <vector>

#include "runtime/backend.hpp"

namespace chpo::rt {

struct SimOptions {
  bool execute_bodies = true;
  /// Virtual duration of a task whose TaskDef has no cost model.
  double default_task_seconds = 1.0;
};

class SimBackend : public Backend {
 public:
  explicit SimBackend(Engine& engine, SimOptions options = {});

  double now() const override { return now_; }

 protected:
  void launch(const Dispatch& dispatch) override CHPO_REQUIRES(g_engine_ctx);
  /// Arms the next engine wakeup, then reports whether any event is queued.
  /// Deliberately not running_count() > 0: the stale TaskEnd of a reaped
  /// attempt still advances the virtual clock when it pops.
  bool in_flight() override CHPO_REQUIRES(g_engine_ctx);
  void idle_until(double t) override { now_ = std::max(now_, t); }
  /// Pops exactly one event (or none, if it lies beyond `deadline`, in
  /// which case the clock lands on the deadline). An EngineWakeup yields
  /// an empty batch, so on_wakeup runs at its exact virtual instant.
  void collect(double deadline, std::optional<double> wake, std::vector<Finished>& out) override
      CHPO_REQUIRES(g_engine_ctx);

 private:
  // Node deaths/rejoins are engine-owned events now: next_wakeup() exposes
  // their times, an EngineWakeup lands the clock there, and on_wakeup
  // applies them. A TaskEnd for an attempt the engine reaped (node death,
  // timeout) completes as a stale no-op.
  enum class EvKind { TaskEnd, EngineWakeup };
  struct Ev {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal times
    EvKind kind = EvKind::TaskEnd;
    // TaskEnd payload:
    std::uint64_t attempt_id = 0;
    AttemptResult result;
    double start = 0.0;  ///< when the body began (after staging)
  };

  /// Queue an EngineWakeup event at Engine::next_wakeup (straggler
  /// threshold crossings and backoff expiries — timeouts are preempted at
  /// dispatch instead). Spurious extra wakeups are harmless: on_wakeup is
  /// idempotent for times with no due work.
  void arm_wakeup() CHPO_REQUIRES(g_engine_ctx);
  double task_duration(const TaskRecord& record, const Placement& placement) const;

  SimOptions options_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::vector<Ev> events_;  ///< min-heap by (time, seq)
  /// Earliest EngineWakeup currently queued; < 0 = none. Avoids flooding
  /// the heap with one wakeup per drive iteration.
  double armed_wakeup_ = -1.0;
};

}  // namespace chpo::rt
