// Execution engine: the backend-independent half of the runtime.
//
// Owns the task lifecycle state machine (WaitingDeps → Ready → Running →
// Done / Failed / Cancelled), resource accounting, the scheduling policy,
// fault handling, and result commitment. The two backends (threads, DES)
// only decide *when* things happen; every decision about *what* happens is
// here, so both execute identical COMPSs semantics:
//
//  * dependencies from parameter directions are always honoured;
//  * a failed attempt is retried on the same node first, then resubmitted
//    excluding that node (paper §4), up to FaultPolicy::max_attempts;
//  * a permanently failed task cancels its transitive dependents and
//    nothing else ("the failure of a task does not affect the other tasks
//    unless there are some dependencies");
//  * writes of failed attempts are never committed.
//
// Threading contract: all methods except execute_prepared() must be called
// from a single coordinator thread. execute_prepared() may run on any worker
// thread; it only reads committed registry versions (shared lock), the
// internally synchronized FaultInjector, and buffers its writes in the
// TaskContext. The contract is *compile-time checked* under clang's
// -Wthread-safety: every mutating method requires the g_engine_ctx
// capability (see engine_context.hpp), which only the Runtime facade and
// Backend::drive (with its per-backend primitives) hold. Read-only queries used inside wait
// predicates (task_terminal, quiescent, next-counter accessors) stay
// unannotated — they are still coordinator-only by contract, but the
// predicate lambdas Backend::drive evaluates cannot carry capabilities.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/data_registry.hpp"
#include "runtime/engine_context.hpp"
#include "runtime/fault.hpp"
#include "runtime/graph.hpp"
#include "runtime/node_health.hpp"
#include "runtime/resources.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "trace/trace.hpp"

namespace chpo::rt {

/// Outcome of running one task body once.
struct AttemptResult {
  bool success = false;
  std::string error;
  /// The body died reading an input whose replicas were lost with a node
  /// (DataLostError). Not the task's fault: the engine re-queues it behind
  /// lineage recovery without charging the attempt.
  bool data_lost = false;
  std::any return_value;
  std::vector<std::pair<std::size_t, std::any>> writes;  ///< staged ctx writes
};

struct EngineOptions {
  std::string scheduler = "priority";
  FaultPolicy fault_policy;
  SpeculationPolicy speculation;
  NodeHealthPolicy node_health;
  std::uint64_t seed = 42;  ///< base seed for per-attempt task RNGs
};

/// Per-study scheduling policy, applied at the ready-queue seam (the
/// candidate source the placement scheduler pulls from). Studies
/// multiplexed onto one engine share resources by weighted fair-share; a
/// paused study's ready tasks are held (its in-flight attempts still finish
/// and commit).
struct StudyPolicy {
  double weight = 1.0;  ///< fair-share weight between ready queues (> 0)
  int max_running = 0;  ///< cap on concurrently running tasks; 0 = unlimited
  bool paused = false;  ///< hold ready tasks; do not start new attempts
};

/// The engine is the CandidateSource its scheduler pulls from: each
/// scheduling round reads the per-study ready shards lazily (see
/// next_by_readiness / next_by_priority), so a round costs what it places,
/// not what is queued.
class Engine : private CandidateSource {
 public:
  /// Invoked (on the coordinator thread) for every task that reaches a
  /// terminal state — the completion feed the Runtime's tracked-completion
  /// queue and callbacks are built on. The listener may run user code that
  /// submits or cancels tasks, so it is never fired from inside an engine
  /// mutation path (where TaskRecord references are live): mark_terminal
  /// only queues the notification, and callers invoke flush_notifications()
  /// at safe points.
  using TerminalListener = std::function<void(TaskId, TaskState)>;

  Engine(TaskGraph& graph, const cluster::ClusterSpec& spec, EngineOptions options,
         FaultInjector injector, trace::TraceSink& sink);

  void set_terminal_listener(TerminalListener listener) CHPO_REQUIRES(g_engine_ctx) {
    on_terminal_ = std::move(listener);
  }

  /// Notify that `task` was just added to the graph (possibly Ready) under
  /// an open study. Records the submit event flag at time `now`.
  void on_submitted(TaskId task, double now) CHPO_REQUIRES(g_engine_ctx);

  /// Place as many ready tasks as resources allow; marks them Running and
  /// records schedule events. Caller executes them and reports back.
  std::vector<Dispatch> schedule(double now) CHPO_REQUIRES(g_engine_ctx);

  /// Snapshot of everything one attempt's body needs, taken on the
  /// coordinator at launch time. Worker threads execute from the snapshot
  /// and never touch the TaskRecord — the coordinator may mutate it (reap
  /// the attempt at its deadline, dispatch a retry, cancel) while the body
  /// is still running.
  struct BodyJob {
    TaskId task = 0;
    int attempt = 1;
    TaskBody body;  ///< empty: pure-cost task, succeeds immediately
    std::vector<ParamBinding> bindings;
    std::uint64_t seed = 0;
  };

  /// Build the body snapshot for the task's next attempt (coordinator).
  BodyJob prepare_body(TaskId task) const CHPO_REQUIRES(g_engine_ctx);

  /// Run a prepared body (any thread). Applies fault injection; catches
  /// body exceptions and converts them to failed attempts. Touches no
  /// engine state beyond the (internally synchronized) injector.
  AttemptResult execute_prepared(const BodyJob& job, const Placement& placement, bool simulated);

  /// prepare_body + execute_prepared in one step — for the simulation
  /// backend, where bodies run on the coordinator thread anyway.
  AttemptResult execute_body(TaskId task, const Placement& placement, bool simulated)
      CHPO_REQUIRES(g_engine_ctx);

  /// Injection-only attempt outcome for runs that skip bodies
  /// (SimOptions::execute_bodies == false): success unless the injector
  /// fails this attempt.
  AttemptResult injection_result(TaskId task) CHPO_REQUIRES(g_engine_ctx);

  /// Input staging cost for running `task` on `node` under the cluster's
  /// transfer model; 0 when the cluster has a parallel filesystem. Records
  /// Transfer spans starting at `now` and updates data locations.
  double stage_inputs(TaskId task, int node, double now) CHPO_REQUIRES(g_engine_ctx);

  struct Completion {
    /// Set when the retry-same-node policy immediately re-placed the task:
    /// the backend must execute this dispatch (a TaskRetry event was logged).
    std::optional<Dispatch> retry;
  };

  /// Process the end of the in-flight attempt `attempt_id` at [start, end]:
  /// release resources, commit or discard results, apply the retry policy,
  /// wake successors. A completion for an attempt the engine no longer
  /// tracks (reaped on timeout, or raced by a speculative sibling after the
  /// task turned terminal) is a no-op — its resources were already handled.
  Completion complete_attempt(std::uint64_t attempt_id, AttemptResult result, double start,
                              double end) CHPO_REQUIRES(g_engine_ctx);

  /// Time-driven duties, called by the backend whenever the clock reaches a
  /// time next_wakeup() asked for (and harmlessly at any other time): reap
  /// in-flight attempts past their deadline (the attempt is charged as a
  /// failure *now*, even if a worker thread is still inside the body — its
  /// eventual completion is dropped as stale), promote retries whose
  /// backoff delay expired, and launch speculative duplicates for
  /// straggling attempts. Returns dispatches the backend must execute.
  std::vector<Dispatch> on_wakeup(double now) CHPO_REQUIRES(g_engine_ctx);

  /// Earliest future instant at which on_wakeup(now) has work to do:
  /// an attempt deadline, a straggler threshold crossing, or the end of a
  /// backoff delay. nullopt when no timed work is pending.
  std::optional<double> next_wakeup(double now) const;

  /// Timeout for a fresh attempt of `task` (TaskDef timeout, or the
  /// adaptive timeout once enough durations are observed); <= 0 = none.
  /// SimBackend uses this to preempt attempts on the virtual clock.
  double attempt_timeout(TaskId task) const;

  /// Sim-only: the backend preempts timed-out attempts itself on the
  /// virtual clock, so the engine must not also arm reap deadlines (a reap
  /// would race the already-queued preemption event).
  void set_backend_preempts_timeouts(bool value) CHPO_REQUIRES(g_engine_ctx) {
    backend_preempts_timeouts_ = value;
  }

  const SpeculationTracker& speculation() const { return speculation_; }

  /// Open a study under the next free id, with `policy` and `name`
  /// ("study-<id>" when empty). Throws std::invalid_argument for a
  /// fair-share weight <= 0. The main study (kMainStudy, "main") is open
  /// from construction.
  StudyId open_study(std::string name, StudyPolicy policy) CHPO_REQUIRES(g_engine_ctx);
  /// `study` was opened and has not been released.
  bool study_open(StudyId study) const;
  /// The name `study` was opened with (requires study_open).
  const std::string& study_name(StudyId study) const;

  /// Hold (or release) a study's ready queue. Pausing never touches
  /// in-flight attempts: they finish, commit, and notify as usual — only
  /// *new* placements for the study stop.
  void set_study_paused(StudyId study, bool paused) CHPO_REQUIRES(g_engine_ctx);
  bool study_paused(StudyId study) const;
  /// Release every study's ready queue (shutdown drains everything).
  void resume_all_studies() CHPO_REQUIRES(g_engine_ctx);

  /// Cancel every non-terminal task carrying `study`'s tag (per-task
  /// cancel() semantics: ready tasks turn Cancelled immediately, running
  /// attempts are abandoned on finish). Tasks of other studies are never
  /// touched — this is the single-study teardown behind kill/early-stop.
  /// Returns the number of tasks newly cancelled.
  std::size_t cancel_study(StudyId study, double now) CHPO_REQUIRES(g_engine_ctx);

  /// Forget a closed study: it stops being open and its ready queue is
  /// released. Frees the closures of its terminal tasks with no live
  /// (non-terminal) consumer and marks them `released`, so lineage
  /// recovery never calls an empty body. Once every task of the study is
  /// terminal the study's record is erased; until then the release is
  /// finished by flush_notifications when the last straggler lands.
  void release_study(StudyId study) CHPO_REQUIRES(g_engine_ctx);

  /// Ids of every task submitted under `study`, in submission order (empty
  /// once a released study's record is erased). Per-study queries walk
  /// this instead of the whole graph.
  const std::vector<TaskId>& study_tasks(StudyId study) const;

  /// Tasks submitted / terminal under `study` (per-study barrier math).
  /// Unannotated: evaluated inside backend wait predicates.
  std::size_t study_task_count(StudyId study) const;
  std::size_t study_terminal_count(StudyId study) const;
  /// Every task of `study` is terminal — the per-study barrier condition.
  bool study_quiescent(StudyId study) const {
    return study_terminal_count(study) == study_task_count(study);
  }

  /// Cooperative cancellation (the completion-driven early-stop path).
  /// A WaitingDeps/Ready task transitions to Cancelled immediately (it
  /// never held resources, so none are released) and dooms its dependents;
  /// a Running task is marked abandon-on-finish — its attempt keeps its
  /// resources until the backend reports completion, at which point the
  /// result is discarded (never committed, never retried) and the task
  /// ends Cancelled. Returns false iff the task was already terminal.
  bool cancel(TaskId task, double now) CHPO_REQUIRES(g_engine_ctx);

  /// Inject a node membership change at `time` (virtual seconds on the
  /// simulation backend, wall-clock seconds on the threaded one). The event
  /// fires from on_wakeup()/schedule() once the clock reaches it — this is
  /// the chaos hook Runtime::kill_node/revive_node use, and the same queue
  /// the injector's scheduled/MTTF-sampled timeline is loaded into at
  /// construction.
  void inject_node_event(std::size_t node, double time, bool up) CHPO_REQUIRES(g_engine_ctx);

  /// After a node death, ready tasks that are no longer feasible (see
  /// feasible) must fail rather than wait forever. Returns true if any
  /// task transitioned (progress was made). A no-op while a node rejoin is
  /// still scheduled: capacity that will return is not gone.
  bool reap_infeasible() CHPO_REQUIRES(g_engine_ctx);

  /// Lineage status of (data, version) as seen by wait_on.
  enum class VersionStatus {
    Available,      ///< committed and readable now
    Recovering,     ///< lost or pending; recovery demanded / producer running
    Unrecoverable,  ///< lost and recovery attempts are exhausted
  };
  /// Ask for (data, version), demanding lineage recovery if its replicas
  /// died. Coordinator thread only.
  VersionStatus request_version(DataId data, std::uint32_t version, double now)
      CHPO_REQUIRES(g_engine_ctx);

  /// all_terminal() plus no lineage-recovery work pending or in flight —
  /// the barrier condition: a run is only over once lost data demanded by
  /// someone has been recomputed (or proven unrecoverable).
  bool quiescent() const { return all_terminal() && recovery_.empty(); }

  /// Successful lineage recomputations so far.
  std::size_t lineage_recoveries() const { return recoveries_done_; }
  /// Tasks whose recovery was abandoned (attempt budget exhausted).
  std::size_t unrecoverable_count() const { return unrecoverable_.size(); }
  /// Dispatches that violated the replica-liveness invariant: an In/InOut
  /// input that was neither available everywhere nor resident on a live
  /// node at launch time. Always 0 unless lineage gating has a bug — the
  /// chaos tests assert on it.
  std::uint64_t lineage_violations() const { return lineage_violations_; }

  const NodeHealth& node_health() const { return health_; }

  /// Deliver queued terminal notifications to the listener, in completion
  /// order. Must only be called when no TaskRecord references are held:
  /// the listener may run user callbacks that submit new tasks (growing the
  /// graph and adding successor edges to existing tasks) or cancel others.
  /// Re-entrant calls (a callback submitting/cancelling flushes again) are
  /// no-ops; the outermost flush drains everything queued along the way.
  /// A notification that leaves a released study quiescent finishes that
  /// study's release before it is delivered.
  void flush_notifications() CHPO_REQUIRES(g_engine_ctx);

  bool task_terminal(TaskId task) const;
  bool all_terminal() const;
  std::size_t ready_count() const { return ready_total_; }
  std::size_t running_count() const { return running_; }
  /// Ready tasks schedule() has examined so far (pulled, stepped past or
  /// gated). A cost statistic for tests and benchmarks: divided by the
  /// tasks placed it must not grow with the length of the ready queues.
  std::uint64_t ready_visits() const { return ready_visits_; }

  ResourceState& resources() { return resources_; }
  const ResourceState& resources() const { return resources_; }
  const TaskGraph& graph() const { return graph_; }
  trace::TraceSink& sink() { return sink_; }
  const EngineOptions& options() const { return options_; }

 private:
  /// One in-flight attempt (resources held, body running on a backend).
  struct Attempt {
    TaskId task = kNoTask;
    Placement placement;
    double start = 0.0;
    /// Absolute reap time; +inf when the attempt has no timeout or the
    /// backend preempts timeouts itself (sim).
    double deadline = 0.0;
    bool speculative = false;
    /// Lineage re-execution of a Done task: concluded by conclude_recovery
    /// (recommits data, never touches task state).
    bool recovery = false;
  };
  /// A scheduled node membership change, time-ordered.
  struct NodeEvent {
    double time = 0.0;
    std::size_t node = 0;
    bool up = false;
  };
  /// Pending lineage re-execution of one Done task.
  struct RecoveryJob {
    TaskId task = kNoTask;
    int attempts = 0;                 ///< recovery attempts already charged
    std::vector<int> excluded_nodes;  ///< nodes that failed a recovery try
    bool inflight = false;
  };
  /// A failed task waiting out its exponential-backoff delay.
  struct DelayedRetry {
    TaskId task = kNoTask;
    double ready_at = 0.0;
    /// Same-node retry preference: retry here if free when due; -1 = any.
    int pinned_node = -1;
  };

  /// A ready task keyed by (priority desc, id asc), the order every policy
  /// but Fifo places in.
  struct RankedTask {
    bool priority = false;
    TaskId id = kNoTask;
    bool operator<(const RankedTask& other) const {
      return priority != other.priority ? priority : id < other.id;
    }
  };
  /// Everything the engine keeps about one study. Created by open_study
  /// (the main study at construction) and erased once, when the study is
  /// released and every task of it is terminal; nothing recreates it.
  struct Study {
    std::string name;
    StudyPolicy policy;
    /// The ready shard, held in two orders with one removal rule: a task
    /// is in both exactly while its record's in_ready is set. Readiness
    /// order (Fifo's order, and the membership of a max_running quota) is
    /// a doubly linked list threaded through the records' ready_prev /
    /// ready_next, from `head` to `tail`; `ordered` holds the same tasks
    /// by rank. push_ready appends to both and remove_from_ready unlinks
    /// from both, so a round walks only ready tasks.
    TaskId head = kNoTask;
    TaskId tail = kNoTask;
    std::set<RankedTask> ordered;
    /// Non-recovery in-flight attempts, the fair-share deficit's input.
    int running = 0;
    /// Tasks submitted / terminal, the per-study barrier's counters.
    std::size_t submitted = 0;
    std::size_t terminal = 0;
    std::vector<TaskId> tasks;  ///< submission order: the per-study task index
    bool released = false;      ///< release_study ran; erased once quiescent
  };
  /// One study's view of the current scheduling round (paused studies and
  /// studies at quota get none). The cursors hold positions in the study's
  /// readiness list and rank set, so nothing may leave a ready queue while
  /// a round's cursors are open: schedule() removes its placements only
  /// after the scheduler returns.
  struct RoundCursor {
    static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();
    Study* study = nullptr;
    /// Candidates the study may contribute: the free quota under
    /// max_running, unbounded otherwise.
    std::size_t budget = kUnbounded;
    std::size_t taken = 0;
    /// Next task of the readiness list to examine this round.
    TaskId next_ready = kNoTask;
    /// Next unpulled task of `ordered` (uncapped studies).
    std::set<RankedTask>::const_iterator ranked;
    /// Fair-share deficit numerator: running attempts plus grants so far.
    int active = 0;
    double inv_weight = 1.0;
    bool exhausted = false;
    /// A quota study's candidates for next_by_priority, sorted, as a
    /// [next, end) range of round_members_.
    std::size_t member_next = 0;
    std::size_t member_end = 0;
    bool capped() const { return budget != kUnbounded; }
  };

  // CandidateSource: the scheduler pulls one round's candidates from here.
  /// Weighted-deficit interleave of the shards' readiness order: grant the
  /// cursor whose (running + granted) / weight is smallest, lowest StudyId
  /// on ties. O(studies) per grant plus the held tasks skipped.
  std::optional<TaskId> next_by_readiness() override;
  /// k-way merge over the shards' rank order; a quota shard contributes
  /// its first `budget` tasks in readiness order, sorted.
  std::optional<TaskId> next_by_priority() override;
  /// The least cpus and gpus any ready task's cheapest implementation
  /// asks of one node (O(1), from ready_cpu_demand_ / ready_gpu_demand_).
  Constraint smallest_demand() const override;
  /// Set up one cursor per shard with a non-zero budget (O(studies)).
  void open_round();
  /// Next non-held task of the readiness list within the cursor's
  /// budget, or kNoTask.
  TaskId walk_fifo(RoundCursor& cursor);
  /// Next non-held task of an uncapped shard's rank order, or nullptr.
  const RankedTask* ranked_head(RoundCursor& cursor);
  /// Lineage gate, only while some version is lost: walk every shard in
  /// full, demand recovery for lost inputs, fail tasks whose inputs are
  /// unrecoverable and hold the rest out of this round (round_held_).
  void gate_ready_shards(double now) CHPO_REQUIRES(g_engine_ctx);
  bool round_holds(TaskId task) const {
    return !round_held_.empty() && std::binary_search(round_held_.begin(), round_held_.end(), task);
  }
  /// Count `record` in (+1) or out of (-1) the ready demand maps.
  void count_demand(const TaskRecord& record, int delta);

  /// The fields of an engine trace event besides its kind, task and
  /// instants. A task event leaves task_id and study unset: emit takes
  /// them, with the name, from the task's record.
  struct EventFields {
    int attempt = 0;
    int node = -1;
    const std::vector<unsigned>* cores = nullptr;
    const std::vector<unsigned>* gpus = nullptr;
    std::uint64_t task_id = 0;  ///< node and study events: the event's subject
    StudyId study = kMainStudy;
  };
  /// The engine's one trace-event builder: the event about `task` (null
  /// for a node or study event) from `t_start` to `t_end`. Returns before
  /// building anything while the sink is disabled.
  void emit(trace::EventKind kind, const TaskRecord* task, double t_start, double t_end,
            const EventFields& fields);
  /// The one way a task ends other than by its own attempt succeeding:
  /// leave the ready queue if queued, take `state` and `reason`, stamp the
  /// completion order and cancel the dependents.
  void end_task(TaskRecord& record, TaskState state, std::string reason)
      CHPO_REQUIRES(g_engine_ctx);

  /// Whether `record` can ever run: for some implementation, enough live
  /// nodes outside its excluded_nodes could fit it, or a node rejoin is
  /// still scheduled. make_ready and reap_infeasible fail a task on this.
  bool feasible(const TaskRecord& record) const;
  void make_ready(TaskId task) CHPO_REQUIRES(g_engine_ctx);
  /// Append `record` to its study's readiness list and rank set.
  void push_ready(TaskRecord& record) CHPO_REQUIRES(g_engine_ctx);
  /// Unlink `record` from its study's readiness list (O(1)) and erase it
  /// from the rank set.
  void remove_from_ready(TaskRecord& record) CHPO_REQUIRES(g_engine_ctx);
  void cancel_dependents(TaskId task) CHPO_REQUIRES(g_engine_ctx);
  void commit_outputs(TaskRecord& task, AttemptResult& result) CHPO_REQUIRES(g_engine_ctx);
  /// Single funnel for terminal transitions: stamps the completion order
  /// on the record and publishes the notification.
  void mark_terminal(TaskId task) CHPO_REQUIRES(g_engine_ctx);
  /// Track a newly placed attempt; stamps running state and the deadline.
  std::uint64_t register_attempt(TaskId task, const Placement& placement, double now,
                                 bool speculative, bool recovery = false)
      CHPO_REQUIRES(g_engine_ctx);
  /// Shared tail of complete_attempt and timeout reaping.
  Completion conclude_attempt(const Attempt& attempt, AttemptResult result, double start,
                              double end) CHPO_REQUIRES(g_engine_ctx);
  /// Tail for lineage-recovery attempts: recommit the recomputed outputs
  /// (or charge the job and retry elsewhere). Task state is never touched.
  Completion conclude_recovery(const Attempt& attempt, AttemptResult result, double start,
                               double end) CHPO_REQUIRES(g_engine_ctx);
  /// Launch duplicates for straggling attempts (appends to `out`).
  void check_speculation(double now, std::vector<Dispatch>& out) CHPO_REQUIRES(g_engine_ctx);
  std::string speculation_key(const TaskRecord& record) const;

  /// Pop node events whose time has come; down events reap that node's
  /// in-flight attempts (retry dispatches appended to `out`).
  void process_node_events(double now, std::vector<Dispatch>& out) CHPO_REQUIRES(g_engine_ctx);
  void handle_node_down(std::size_t node, double now, std::vector<Dispatch>& out)
      CHPO_REQUIRES(g_engine_ctx);
  void handle_node_up(std::size_t node, double now) CHPO_REQUIRES(g_engine_ctx);
  /// Queue the producer of a lost (data, version) for re-execution,
  /// recursively demanding its own lost inputs. False iff unrecoverable.
  bool demand_recovery(DataId data, std::uint32_t version, double now)
      CHPO_REQUIRES(g_engine_ctx);
  bool enqueue_recovery(TaskId producer, double now) CHPO_REQUIRES(g_engine_ctx);
  /// Place recovery jobs whose inputs are all committed again (appends
  /// dispatches to `out`).
  void dispatch_recoveries(double now, std::vector<Dispatch>& out) CHPO_REQUIRES(g_engine_ctx);
  /// True when every In/InOut input of `record` is readable. Lost inputs
  /// demand recovery; an unrecoverable input sets `doomed`.
  bool inputs_ready(const TaskRecord& record, double now, bool& doomed)
      CHPO_REQUIRES(g_engine_ctx);
  /// Count replica-liveness violations for a dispatch (invariant 5).
  void check_input_liveness(const TaskRecord& record) CHPO_REQUIRES(g_engine_ctx);
  bool node_up_pending() const;

  TaskGraph& graph_;
  ResourceState resources_;
  std::unique_ptr<Scheduler> scheduler_;
  EngineOptions options_;
  FaultInjector injector_;
  trace::TraceSink& sink_;
  SpeculationTracker speculation_;
  NodeHealth health_;
  /// Every open study, and released ones whose last tasks are still in
  /// flight, in StudyId order.
  std::map<StudyId, Study> studies_;
  StudyId next_study_ = kMainStudy + 1;
  std::size_t ready_total_ = 0;  ///< ready tasks across studies
  /// State of the scheduling round in progress, reused across rounds so a
  /// storm pays no allocation per round: the cursors (StudyId order), the
  /// sorted quota candidates they index and the sorted ids the lineage
  /// gate holds back.
  std::vector<RoundCursor> round_;
  std::vector<RankedTask> round_members_;
  bool round_ranked_ = false;  ///< quota candidates collected this round
  std::vector<TaskId> round_held_;
  std::uint64_t ready_visits_ = 0;
  /// Ready tasks by the least cpus / gpus any of their implementations
  /// asks of one node: begin() of each is the smallest demand, the bound
  /// a round stops pulling at (see smallest_demand).
  std::map<unsigned, std::size_t> ready_cpu_demand_;
  std::map<unsigned, std::size_t> ready_gpu_demand_;
  /// Time-ordered membership changes not yet applied (injector timeline +
  /// chaos hooks). Consumed front to back; kept sorted past the cursor.
  std::vector<NodeEvent> node_events_;
  std::size_t next_node_event_ = 0;
  std::map<TaskId, RecoveryJob> recovery_;  ///< pending lineage re-executions
  std::set<TaskId> unrecoverable_;          ///< recovery budget exhausted
  std::size_t recoveries_done_ = 0;
  std::uint64_t lineage_violations_ = 0;
  /// In-flight attempts by id. Insertion-ordered (ids ascend), so walks
  /// visit older attempts first.
  std::map<std::uint64_t, Attempt> inflight_;
  std::uint64_t next_attempt_id_ = 1;
  std::vector<DelayedRetry> delayed_;
  bool backend_preempts_timeouts_ = false;
  std::size_t running_ = 0;
  std::size_t terminal_ = 0;           ///< Done + Failed + Cancelled
  std::uint64_t terminal_seq_ = 0;     ///< completion-order stamp source
  TerminalListener on_terminal_;
  /// Terminal (task, state) pairs not yet delivered to the listener.
  std::deque<std::pair<TaskId, TaskState>> pending_notifications_;
  bool flushing_ = false;  ///< re-entrancy guard for flush_notifications
};

}  // namespace chpo::rt
