// Runtime facade — the PyCOMPSs-equivalent public API.
//
// Mirrors the programming model of the paper's Listing 2:
//
//   rt::RuntimeOptions opts;
//   opts.cluster = cluster::marenostrum4(2);
//   rt::Runtime runtime(opts);
//
//   rt::TaskDef experiment{.name = "experiment",
//                          .constraint = {.cpus = 1, .gpus = 1},
//                          .body = ...};
//   std::vector<rt::Future> results;
//   for (const auto& config : configurations)
//     results.push_back(runtime.submit(experiment, {runtime.share(config)}));
//   for (auto& f : results)
//     auto acc = runtime.wait_on_as<double>(f);     // compss_wait_on
//
// Construction chooses the backend: threads (real execution, wall time) or
// discrete-event simulation (virtual time, cluster-scale). Destruction
// drains outstanding tasks, like the end of a runcompss application.
#pragma once

#include <any>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "runtime/backend.hpp"
#include "runtime/engine.hpp"
#include "runtime/sim_backend.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"

namespace chpo::rt {

/// Thrown by wait_on when the producing task permanently failed (or was
/// cancelled by a failed predecessor).
class TaskFailedError : public std::runtime_error {
 public:
  TaskFailedError(TaskId task, const std::string& reason)
      : std::runtime_error("task " + std::to_string(task) + " failed: " + reason), task_(task) {}
  TaskId task() const { return task_; }

 private:
  TaskId task_;
};

/// Parameters of open_study(): a label for traces/reports plus the study's
/// scheduling policy at the engine's fair-share seam.
struct StudyOptions {
  std::string name;  ///< label carried into trace events and reports
  /// Fair-share weight between concurrent studies. Only the `fifo`
  /// scheduler reads it today: `priority` (the default), `locality` and
  /// `cost-aware` serve every study's tasks in (priority, id) order.
  double weight = 1.0;
  int max_running = 0;  ///< cap on concurrently running tasks; 0 = unlimited
};

class StudySession;

/// Point-in-time task census of one study — the progress snapshot behind a
/// service `status` reply. Computed from the engine's per-study task index
/// in O(the study's tasks), whenever the coordinator is not inside an
/// engine mutation.
struct StudyProgress {
  std::size_t total = 0;  ///< tasks ever submitted under this study
  std::size_t waiting = 0;
  std::size_t ready = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t terminal() const { return done + failed + cancelled; }
};

struct RuntimeOptions {
  cluster::ClusterSpec cluster;
  std::string scheduler = "priority";
  bool tracing = true;    ///< the paper's tracing flag; off = near-zero overhead
  bool simulate = false;  ///< discrete-event backend instead of threads
  SimOptions sim;         ///< used when simulate == true
  FaultPolicy fault_policy;
  SpeculationPolicy speculation;  ///< straggler detection + duplicate attempts
  NodeHealthPolicy node_health;   ///< flaky-node quarantine + probation
  FaultInjector injector;
  std::uint64_t seed = 42;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  /// Drains all outstanding tasks (a final implicit barrier).
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Register a value so tasks can consume it as a parameter. `bytes`
  /// drives the transfer cost model on clusters without a parallel FS.
  template <typename T>
  DataId share(T value, std::uint64_t bytes = 64, std::string label = {}) {
    return graph_.registry().register_data(std::any(std::move(value)), bytes, std::move(label));
  }

  /// Like share(), but the value initially lives only with the main
  /// program: on clusters without a parallel filesystem it is staged to
  /// every node that consumes it (paper §4: "the data required by the task
  /// is copied to the specific node that the task will be executed on").
  template <typename T>
  DataId share_local(T value, std::uint64_t bytes = 64, std::string label = {}) {
    return graph_.registry().register_data(std::any(std::move(value)), bytes, std::move(label),
                                           /*everywhere=*/false);
  }

  /// Invoked on the coordinator thread (inside whichever submit, cancel,
  /// wait or barrier call drives the engine) promptly after the task
  /// reaches a terminal state — at the next safe point of the completion
  /// loop, never from inside an engine mutation path. `state` is Done,
  /// Failed or Cancelled; the Future is valid for the duration of the call
  /// (copy it to keep it). The callback may submit new tasks or cancel
  /// others, but must not wait — it runs in the middle of the completion
  /// loop.
  using CompletionCallback = std::function<void(const Future&, TaskState state)>;

  /// One task of a submit_batch() call: definition, parameters and an
  /// optional completion callback, exactly as the one-at-a-time overloads
  /// take them.
  struct BatchItem {
    TaskDef def;
    std::vector<Param> params;
    CompletionCallback on_complete;
  };

  /// Open a new study session: a tagged submission scope multiplexed onto
  /// this runtime alongside any other open studies. Tasks submitted through
  /// the returned handle carry the study's id, so completions route back to
  /// it and cancelling the study never touches a neighbour's work. The
  /// handle is a lightweight copyable view; the Runtime must outlive it.
  /// (Declared here, defined with the handle in runtime/study_session.hpp.)
  StudySession open_study(StudyOptions study = {});

  /// Handle to the default study (id kMainStudy) that plain submit() feeds.
  StudySession main_study();

  /// Label given to `study` at open_study time ("main" for kMainStudy).
  const std::string& study_name(StudyId study) const;

  /// Per-state task counts for one study (see StudyProgress). All zero for
  /// a released study.
  StudyProgress study_progress(StudyId study) const;

  /// Forget a closed study: free the closures (body, cost, variants) of its
  /// terminal tasks that no live task consumes, drop the engine's record of
  /// it (ready shard, policy and task index), and unregister the id
  /// (submitting into it or asking for its name throws afterwards). The
  /// graph keeps the records themselves, so futures, values and the DOT
  /// export stay valid; a lineage demand on a freed task fails its consumer
  /// with TaskFailedError. Attempts a kill abandoned may still be running:
  /// the rest of the release happens when they land. Throws for kMainStudy
  /// or an unknown id.
  void release_study(StudyId study);

  /// Submit a task over the given parameters; returns the future of the
  /// body's return value. Dependencies are derived from param directions.
  Future submit(const TaskDef& def, const std::vector<Param>& params = {});

  /// Like submit(), with a completion callback fired when the task turns
  /// terminal (the push half of the completion-driven API; track +
  /// next_completion is the pull half).
  Future submit(const TaskDef& def, const std::vector<Param>& params, CompletionCallback on_complete);

  /// Submit a whole wave of tasks in one engine round-trip: one coordinator
  /// context acquisition, one admission pass and one notification flush for
  /// the entire batch instead of per task. Semantically identical to calling
  /// submit() per item in order — submit() is the one-item batch, so
  /// simulated schedules are bit-identical either way. Returns the futures
  /// in item order.
  std::vector<Future> submit_batch(std::vector<BatchItem> items) {
    return submit_study_batch(kMainStudy, std::move(items));
  }

  /// Jobs a pool worker took from another worker's queue (thread backend
  /// only; always 0 on the simulator). Monitoring/tests.
  std::uint64_t worker_steals() const { return backend_->steals(); }

  /// Elastic growth: add a node to the cluster mid-run. Queued tasks can be
  /// placed on it immediately; the trace gains a resource from this point.
  /// Returns the new node's index.
  std::size_t add_node(const cluster::NodeSpec& node);

  /// Chaos hooks: take a node down / bring it back at the current backend
  /// time. Running attempts on a killed node are reaped and retried; data
  /// whose only replica lived there is recovered through lineage. A revived
  /// node re-enters on probation (see NodeHealthPolicy). Throws
  /// std::out_of_range for an unknown node index.
  void kill_node(std::size_t node) {
    EngineContextScope ctx(g_engine_ctx);
    engine_.inject_node_event(node, backend_->now(), false);
    backend_->poke();  // apply now: reap attempts, drop replicas
  }
  void revive_node(std::size_t node) {
    EngineContextScope ctx(g_engine_ctx);
    engine_.inject_node_event(node, backend_->now(), true);
    backend_->poke();
  }

  /// compss_wait_on: block until the future's producer finished; returns
  /// its value. Throws TaskFailedError if it permanently failed.
  std::any wait_on(const Future& future);

  template <typename T>
  T wait_on_as(const Future& future) {
    return std::any_cast<T>(wait_on(future));
  }

  /// Bounded barrier: drive the runtime for at most `seconds` (wall or
  /// virtual, matching the backend clock). Returns true iff every
  /// submitted task is terminal.
  bool wait_all_for(double seconds);

  /// Cancel the producer of `future`. A task that has not started yet is
  /// cancelled immediately (it never held resources); a running attempt is
  /// marked abandon-on-finish — its resources come back when the attempt
  /// ends and its result is discarded. Dependents are cancelled either
  /// way. Returns false iff the task was already terminal (too late).
  /// Either way a tracked task is untracked: next_completion() never
  /// delivers a task its driver gave up on.
  bool cancel(const Future& future);

  /// Hand `future`'s producer to the tracked-completion queue: when it
  /// turns terminal it is appended, so next_completion() delivers tracked
  /// tasks in terminal order across every study. A task already terminal
  /// is appended at once. Study drivers track their trials, not helpers.
  void track(const Future& future);

  /// Pop the queue's front, driving the backend until it is non-empty or
  /// `deadline` (backend clock; < 0 = none) passes: the completion-driven
  /// wait ("act on the first trial that finishes"). The task is marked
  /// synced with a WaitAny event. It is returned whether it succeeded,
  /// failed or was cancelled by a failed predecessor: follow up with
  /// wait_on to fetch the value or the error. A timeout returns an empty
  /// Future (producer == kNoTask) and records no event; this is how the
  /// service front-end interleaves engine progress with request handling.
  /// Throws std::invalid_argument when nothing is tracked.
  Future next_completion(double deadline = -1.0);

  /// compss_barrier: run every submitted task to a terminal state.
  void barrier();

  /// Latest committed value of a datum (after the producing task is done).
  template <typename T>
  const T& peek(DataId data) const {
    const auto& registry = graph_.registry();
    return std::any_cast<const T&>(registry.value(data, registry.current_version(data)));
  }

  /// Current time on the backend clock (wall or virtual seconds).
  double now() const { return backend_->now(); }
  bool simulated() const { return options_.simulate; }

  /// Graphviz DOT of the dependency graph; includes a sync node for every
  /// future a wait returned so far (Figure 3 style).
  std::string graph_dot() const { return graph_.to_dot(); }

  const trace::TraceSink& trace() const { return sink_; }
  trace::TraceSink& trace() { return sink_; }
  /// Analysis over the events recorded so far.
  trace::Analysis analyze() const { return trace::Analysis(sink_.events()); }

  const TaskGraph& graph() const { return graph_; }
  const cluster::ClusterSpec& cluster_spec() const { return options_.cluster; }
  std::size_t task_count() const { return graph_.size(); }

  /// Per-node failure-rate tracker driving quarantine/probation decisions.
  const NodeHealth& node_health() const { return engine_.node_health(); }
  /// Lineage recomputations executed so far (recovery attempts that
  /// recommitted lost data).
  std::size_t lineage_recoveries() const { return engine_.lineage_recoveries(); }
  /// Lost versions whose lineage could not be replayed (producer failed
  /// permanently or every node died).
  std::size_t unrecoverable_count() const { return engine_.unrecoverable_count(); }
  /// Invariant violations: dispatches that consumed a datum with no live
  /// replica. Always 0 unless recovery bookkeeping is broken.
  std::uint64_t lineage_violations() const { return engine_.lineage_violations(); }
  const ResourceState& resources() const { return engine_.resources(); }

 private:
  friend class StudySession;

  void on_task_terminal(TaskId task, TaskState state);

  /// Session plumbing (called by StudySession; throws for a study that is
  /// not open). The one admission path: inserts every item into the graph
  /// and registers its callback first, then admits the wave through
  /// Engine::on_submitted in order and flushes once. See submit_batch().
  std::vector<Future> submit_study_batch(StudyId study, std::vector<BatchItem> items);
  /// The one-item case of submit_study_batch.
  Future submit_study(StudyId study, const TaskDef& def, const std::vector<Param>& params,
                      CompletionCallback on_complete);
  void set_study_paused(StudyId study, bool paused);
  bool is_study_paused(StudyId study) const;
  /// Tear down one study's in-flight work (kill / early-stop). Returns the
  /// number of tasks newly cancelled; other studies are never touched.
  std::size_t cancel_study_tasks(StudyId study);
  /// Block until every task of `study` is terminal. Throws if the study is
  /// paused with held ready tasks and nothing else can make progress.
  void study_barrier(StudyId study);

  RuntimeOptions options_;
  DataRegistry registry_;
  TaskGraph graph_;
  trace::TraceSink sink_;
  Engine engine_;
  std::unique_ptr<Backend> backend_;
  /// Tracked tasks not yet delivered or cancelled, and the terminal ones
  /// among them in arrival order: the queue next_completion() pops. Only
  /// touched from the coordinator thread (the engine's threading
  /// contract), so they need no lock.
  std::unordered_set<TaskId> tracked_;
  std::deque<TaskId> tracked_done_;
  std::map<TaskId, CompletionCallback> callbacks_;
};

}  // namespace chpo::rt
