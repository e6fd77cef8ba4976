#include "runtime/engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

#include "support/log.hpp"

namespace chpo::rt {

Engine::Engine(TaskGraph& graph, const cluster::ClusterSpec& spec, EngineOptions options,
               FaultInjector injector, trace::TraceSink& sink)
    : graph_(graph),
      resources_(spec),
      scheduler_(make_scheduler(options.scheduler)),
      options_(std::move(options)),
      injector_(std::move(injector)),
      sink_(sink),
      speculation_(options_.speculation),
      health_(options_.node_health, spec.nodes.size()) {
  scheduler_->set_health(&health_);
  studies_[kMainStudy].name = "main";
  // Turn the injector's membership timeline (explicit schedule + sampled
  // MTTF/MTTR churn) into the engine's unified node-event queue. Both
  // backends drain it through on_wakeup()/schedule() — the simulation
  // backend at exact virtual instants, the threaded one on the wall clock.
  injector_.materialize_node_schedule(spec.nodes.size());
  for (const NodeFailureEvent& f : injector_.node_failures())
    node_events_.push_back(NodeEvent{.time = f.time, .node = f.node, .up = false});
  for (const NodeRecoveryEvent& r : injector_.node_recoveries())
    node_events_.push_back(NodeEvent{.time = r.time, .node = r.node, .up = true});
  std::sort(node_events_.begin(), node_events_.end(), [](const NodeEvent& a, const NodeEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.up < b.up;  // a same-instant down/up pair is a transient blip
  });
}

void Engine::inject_node_event(std::size_t node, double time, bool up) {
  if (node >= resources_.node_count())
    throw std::out_of_range("Engine: node event for unknown node");
  NodeEvent event{.time = time, .node = node, .up = up};
  const auto insert_at = std::upper_bound(
      node_events_.begin() + static_cast<std::ptrdiff_t>(next_node_event_), node_events_.end(),
      event, [](const NodeEvent& a, const NodeEvent& b) { return a.time < b.time; });
  node_events_.insert(insert_at, event);
}

void Engine::on_submitted(TaskId task, double now) {
  TaskRecord& record = graph_.task(task);
  Study& study = studies_.at(record.study);
  ++study.submitted;
  study.tasks.push_back(task);
  emit(trace::EventKind::TaskSubmit, &record, now, now, {});
  if (record.state == TaskState::Cancelled) {
    // Doomed at submission: a predecessor had already failed.
    mark_terminal(task);
    return;
  }
  if (record.state == TaskState::Ready) make_ready(task);
}

void Engine::emit(trace::EventKind kind, const TaskRecord* task, double t_start, double t_end,
                  const EventFields& fields) {
  if (!sink_.enabled()) return;
  trace::Event event{.kind = kind,
                     .task_id = task != nullptr ? task->id : fields.task_id,
                     .study = task != nullptr ? task->study : fields.study,
                     .attempt = fields.attempt,
                     .node = fields.node,
                     .t_start = t_start,
                     .t_end = t_end};
  if (task != nullptr) event.task_name = task->def.name;
  if (fields.cores != nullptr) event.cores = *fields.cores;
  if (fields.gpus != nullptr) event.gpus = *fields.gpus;
  sink_.record(std::move(event));
}

void Engine::end_task(TaskRecord& record, TaskState state, std::string reason) {
  remove_from_ready(record);
  record.state = state;
  record.failure_reason = std::move(reason);
  mark_terminal(record.id);
  cancel_dependents(record.id);
}

void Engine::mark_terminal(TaskId task) {
  ++terminal_;
  TaskRecord& record = graph_.task(task);
  // A task's study outlives it: the record is erased only once every task
  // of a released study is terminal.
  ++studies_.at(record.study).terminal;
  record.terminal_seq = ++terminal_seq_;
  // Queue, don't fire: the listener may run a user callback that submits
  // new tasks — reallocating the graph's record storage and appending to
  // existing tasks' successor lists — while complete_attempt or
  // cancel_dependents still holds references into them.
  if (on_terminal_) pending_notifications_.emplace_back(task, record.state);
}

void Engine::flush_notifications() {
  if (flushing_) return;  // outermost flush drains what a callback queued
  flushing_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{flushing_};
  while (!pending_notifications_.empty()) {
    const auto [task, state] = pending_notifications_.front();
    pending_notifications_.pop_front();
    // A released study's last straggler landed: finish its release.
    if (const auto it = studies_.find(graph_.task(task).study);
        it != studies_.end() && it->second.released && it->second.terminal == it->second.submitted)
      release_study(it->first);
    on_terminal_(task, state);
  }
}

bool Engine::feasible(const TaskRecord& record) const {
  const int n_variants = static_cast<int>(record.def.variants.size());
  for (int variant = -1; variant < n_variants; ++variant) {
    const Constraint& constraint = record.implementation_constraint(variant);
    const unsigned wanted = std::max(1u, constraint.nodes);
    unsigned fitting = 0;
    for (std::size_t node = 0; node < resources_.node_count() && fitting < wanted; ++node) {
      if (std::find(record.excluded_nodes.begin(), record.excluded_nodes.end(),
                    static_cast<int>(node)) != record.excluded_nodes.end())
        continue;
      if (resources_.could_fit(node, constraint)) ++fitting;
    }
    if (fitting == wanted) return true;
  }
  // Capacity that is scheduled to return is not gone.
  return node_up_pending();
}

void Engine::make_ready(TaskId task) {
  TaskRecord& record = graph_.task(task);
  record.state = TaskState::Ready;
  if (!feasible(record)) {
    log_warn("engine", "task {} '{}' has an unsatisfiable constraint ({} cpus, {} gpus)", task,
             record.def.name, record.def.constraint.cpus, record.def.constraint.gpus);
    end_task(record, TaskState::Failed, "constraint unsatisfiable on this cluster");
    return;
  }
  push_ready(record);
}

void Engine::push_ready(TaskRecord& record) {
  if (record.in_ready) return;  // already queued
  record.in_ready = true;
  Study& study = studies_.at(record.study);
  record.ready_prev = study.tail;
  record.ready_next = kNoTask;
  (study.tail == kNoTask ? study.head : graph_.task(study.tail).ready_next) = record.id;
  study.tail = record.id;
  // Ids mostly become ready in ascending order: hint the end.
  study.ordered.emplace_hint(study.ordered.end(),
                             RankedTask{.priority = record.def.priority, .id = record.id});
  count_demand(record, +1);
  ++ready_total_;
}

void Engine::remove_from_ready(TaskRecord& record) {
  if (!record.in_ready) return;
  record.in_ready = false;
  Study& study = studies_.at(record.study);
  (record.ready_prev == kNoTask ? study.head : graph_.task(record.ready_prev).ready_next) =
      record.ready_next;
  (record.ready_next == kNoTask ? study.tail : graph_.task(record.ready_next).ready_prev) =
      record.ready_prev;
  study.ordered.erase(RankedTask{.priority = record.def.priority, .id = record.id});
  count_demand(record, -1);
  --ready_total_;
}

void Engine::count_demand(const TaskRecord& record, int delta) {
  // The least of each resource over the task's implementations: a node
  // with less room than this fits none of them. A node-exclusive
  // implementation takes every core of whatever node it lands on, so it
  // bounds the cpus by nothing.
  Constraint least = record.def.constraint;
  if (least.node_exclusive) least.cpus = 0;
  for (const TaskVariant& variant : record.def.variants) {
    const Constraint& constraint = variant.constraint;
    least.cpus = std::min(least.cpus, constraint.node_exclusive ? 0u : constraint.cpus);
    least.gpus = std::min(least.gpus, constraint.gpus);
  }
  const auto count = [delta](std::map<unsigned, std::size_t>& counts, unsigned value) {
    if (delta > 0) {
      ++counts[value];
    } else if (const auto it = counts.find(value); --it->second == 0) {
      counts.erase(it);
    }
  };
  count(ready_cpu_demand_, least.cpus);
  count(ready_gpu_demand_, least.gpus);
}

Constraint Engine::smallest_demand() const {
  return Constraint{.cpus = ready_cpu_demand_.empty() ? 0u : ready_cpu_demand_.begin()->first,
                    .gpus = ready_gpu_demand_.empty() ? 0u : ready_gpu_demand_.begin()->first};
}

std::vector<Dispatch> Engine::schedule(double now) {
  std::vector<Dispatch> dispatches;
  process_node_events(now, dispatches);

  // Lineage gating runs before dispatch_recoveries so a recovery it
  // demands can launch in this same pass. Its per-input version_lost
  // probes (a shared-lock registry lookup each) only run while some
  // version is actually lost; the common case skips the walk entirely.
  if (graph_.registry().lost_count() > 0) gate_ready_shards(now);
  // Recoveries get resource priority over fresh placements: downstream
  // work is already blocked on them.
  dispatch_recoveries(now, dispatches);

  // The scheduler pulls candidates lazily in the order its policy needs;
  // the round stops reading the shards when it stops pulling.
  open_round();
  std::vector<Dispatch> placed;
  if (ready_total_ > 0)
    placed = scheduler_->schedule(static_cast<CandidateSource&>(*this), graph_, resources_);
  for (Dispatch& d : placed) {
    TaskRecord& record = graph_.task(d.task);
    remove_from_ready(record);
    record.state = TaskState::Running;
    record.last_node = d.placement.node;
    record.active_variant = d.variant;
    check_input_liveness(record);
    d.attempt_id = register_attempt(d.task, d.placement, now, /*speculative=*/false);
    emit(trace::EventKind::TaskSchedule, &record, now, now,
         {.attempt = record.attempts_made + 1, .node = d.placement.node,
          .cores = &d.placement.cores});
    dispatches.push_back(std::move(d));
  }
  round_held_.clear();
  return dispatches;
}

void Engine::gate_ready_shards(double now) {
  // Walk every ready task, held studies included, in StudyId then
  // readiness order: a ready task whose input versions died with a node
  // stays queued (its recovery is demanded here) instead of dispatching
  // into a DataLostError; one with unrecoverable inputs fails below.
  std::vector<TaskId> doomed;
  for (const auto& [study_id, study] : studies_) {
    for (TaskId id = study.head; id != kNoTask; id = graph_.task(id).ready_next) {
      ++ready_visits_;
      bool task_doomed = false;
      if (inputs_ready(graph_.task(id), now, task_doomed)) continue;
      if (task_doomed) doomed.push_back(id);
      round_held_.push_back(id);  // held behind lineage recovery (or failed below)
    }
  }
  std::sort(round_held_.begin(), round_held_.end());
  for (TaskId id : doomed)
    end_task(graph_.task(id), TaskState::Failed, "input data lost with a node and unrecoverable");
}

void Engine::open_round() {
  round_.clear();
  round_members_.clear();
  round_ranked_ = false;
  if (ready_total_ == 0) return;
  for (auto& [id, study] : studies_) {
    if (study.ordered.empty()) continue;
    const StudyPolicy& policy = study.policy;
    if (policy.paused) continue;
    RoundCursor cursor;
    cursor.study = &study;
    cursor.next_ready = study.head;
    cursor.ranked = study.ordered.begin();
    if (policy.max_running > 0) {
      // Lineage-recovery attempts re-execute Done tasks on the engine's
      // behalf and never count against a study's cap — the running
      // counter only tracks non-recovery attempts.
      const int slots = policy.max_running - study.running;
      if (slots <= 0) continue;
      cursor.budget = static_cast<std::size_t>(slots);
    }
    cursor.active = study.running;
    cursor.inv_weight = 1.0 / policy.weight;
    round_.push_back(cursor);
  }
}

TaskId Engine::walk_fifo(RoundCursor& cursor) {
  if (cursor.taken >= cursor.budget) return kNoTask;
  while (cursor.next_ready != kNoTask) {
    ++ready_visits_;
    const TaskId id = cursor.next_ready;
    cursor.next_ready = graph_.task(id).ready_next;
    if (round_holds(id)) continue;
    ++cursor.taken;
    return id;
  }
  return kNoTask;
}

std::optional<TaskId> Engine::next_by_readiness() {
  // The deficit is a multiply by the precomputed reciprocal weight: the
  // scan runs once per grant. `active` starts at the shard's running
  // counter, so only studies whose counter moved shift the interleave.
  while (true) {
    RoundCursor* best = nullptr;
    double best_deficit = 0.0;
    for (RoundCursor& cursor : round_) {
      if (cursor.exhausted) continue;
      const double deficit = static_cast<double>(cursor.active) * cursor.inv_weight;
      if (best == nullptr || deficit < best_deficit) {
        best = &cursor;
        best_deficit = deficit;
      }
    }
    if (best == nullptr) return std::nullopt;
    if (const TaskId id = walk_fifo(*best); id != kNoTask) {
      ++best->active;
      return id;
    }
    best->exhausted = true;
  }
}

const Engine::RankedTask* Engine::ranked_head(RoundCursor& cursor) {
  const std::set<RankedTask>& ordered = cursor.study->ordered;
  for (; cursor.ranked != ordered.end(); ++cursor.ranked) {
    if (!round_holds(cursor.ranked->id)) return &*cursor.ranked;
    ++ready_visits_;  // held by the lineage gate: step past it
  }
  return nullptr;
}

std::optional<TaskId> Engine::next_by_priority() {
  if (!round_ranked_) {
    // A quota shard's membership is its first `budget` tasks in readiness
    // order (the tasks that became ready first), ranked among themselves:
    // an O(quota) walk, once per round.
    round_ranked_ = true;
    for (RoundCursor& cursor : round_) {
      if (!cursor.capped()) continue;
      cursor.member_next = round_members_.size();
      for (TaskId id = walk_fifo(cursor); id != kNoTask; id = walk_fifo(cursor))
        round_members_.push_back(RankedTask{.priority = graph_.task(id).def.priority, .id = id});
      cursor.member_end = round_members_.size();
      std::sort(round_members_.begin() + static_cast<std::ptrdiff_t>(cursor.member_next),
                round_members_.end());
    }
  }
  RoundCursor* best = nullptr;
  const RankedTask* best_head = nullptr;
  for (RoundCursor& cursor : round_) {
    const RankedTask* head = nullptr;
    if (!cursor.capped())
      head = ranked_head(cursor);
    else if (cursor.member_next < cursor.member_end)
      head = &round_members_[cursor.member_next];
    if (head != nullptr && (best_head == nullptr || *head < *best_head)) {
      best = &cursor;
      best_head = head;
    }
  }
  if (best == nullptr) return std::nullopt;
  if (best->capped()) {
    ++best->member_next;  // walk_fifo counted its visit
  } else {
    ++best->ranked;
    ++ready_visits_;
  }
  return best_head->id;
}

StudyId Engine::open_study(std::string name, StudyPolicy policy) {
  const StudyId id = next_study_++;
  if (policy.weight <= 0.0)
    throw std::invalid_argument("Engine: study fair-share weight must be > 0");
  Study& study = studies_[id];
  study.name = name.empty() ? "study-" + std::to_string(id) : std::move(name);
  study.policy = policy;
  return id;
}

bool Engine::study_open(StudyId study) const {
  const auto it = studies_.find(study);
  return it != studies_.end() && !it->second.released;
}

const std::string& Engine::study_name(StudyId study) const { return studies_.at(study).name; }

void Engine::set_study_paused(StudyId study, bool paused) {
  studies_.at(study).policy.paused = paused;
}

bool Engine::study_paused(StudyId study) const {
  const auto it = studies_.find(study);
  return it != studies_.end() && it->second.policy.paused;
}

void Engine::resume_all_studies() {
  for (auto& [id, study] : studies_) study.policy.paused = false;
}

std::size_t Engine::study_task_count(StudyId study) const {
  const auto it = studies_.find(study);
  return it == studies_.end() ? 0 : it->second.submitted;
}

std::size_t Engine::study_terminal_count(StudyId study) const {
  const auto it = studies_.find(study);
  return it == studies_.end() ? 0 : it->second.terminal;
}

const std::vector<TaskId>& Engine::study_tasks(StudyId study) const {
  static const std::vector<TaskId> kNone;
  const auto it = studies_.find(study);
  return it == studies_.end() ? kNone : it->second.tasks;
}

std::size_t Engine::cancel_study(StudyId study, double now) {
  std::size_t cancelled = 0;
  // By index: cancel() never submits, but the vector is only borrowed.
  const std::vector<TaskId>& tasks = study_tasks(study);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (cancel(tasks[i], now)) ++cancelled;
  emit(trace::EventKind::StudyCancel, nullptr, now, now, {.task_id = cancelled, .study = study});
  return cancelled;
}

void Engine::release_study(StudyId id) {
  Study& study = studies_.at(id);
  study.released = true;
  // Whatever the study still has outstanding must be able to drain.
  study.policy.paused = false;
  for (const TaskId task : study.tasks) {
    TaskRecord& record = graph_.task(task);
    if (record.released || record.recovering || !task_terminal(task)) continue;
    // A consumer that may still run could demand this task's outputs
    // through lineage recovery, which needs the body: keep it.
    const bool live_consumer =
        std::any_of(record.successors.begin(), record.successors.end(),
                    [this](TaskId succ) { return !task_terminal(succ); });
    if (live_consumer) continue;
    record.def.body = {};
    record.def.cost = {};
    for (TaskVariant& variant : record.def.variants) {
      variant.body = {};
      variant.cost = {};
    }
    record.released = true;
  }
  if (study.terminal == study.submitted) studies_.erase(id);
}

std::string Engine::speculation_key(const TaskRecord& record) const {
  if (record.active_variant < 0) return record.def.name;
  return record.def.name + "#" + std::to_string(record.active_variant);
}

double Engine::attempt_timeout(TaskId task) const {
  const TaskRecord& record = graph_.task(task);
  return speculation_.effective_timeout(speculation_key(record), record.def.timeout_seconds);
}

std::uint64_t Engine::register_attempt(TaskId task, const Placement& placement, double now,
                                       bool speculative, bool recovery) {
  TaskRecord& record = graph_.task(task);
  ++running_;
  ++record.running_attempts;
  // The counter behind the fair-share deficits; recovery attempts act on
  // the engine's behalf and never count against their study.
  if (!recovery) ++studies_.at(record.study).running;
  health_.on_placement(static_cast<std::size_t>(placement.node));
  Attempt attempt;
  attempt.task = task;
  attempt.placement = placement;
  attempt.start = now;
  attempt.speculative = speculative;
  attempt.recovery = recovery;
  const double timeout = attempt_timeout(task);
  attempt.deadline = (!backend_preempts_timeouts_ && timeout > 0.0)
                         ? now + timeout
                         : std::numeric_limits<double>::infinity();
  const std::uint64_t id = next_attempt_id_++;
  inflight_.emplace(id, std::move(attempt));
  return id;
}

Engine::BodyJob Engine::prepare_body(TaskId task) const {
  const TaskRecord& record = graph_.task(task);
  BodyJob job;
  job.task = task;
  // A lineage recompute replays the attempt that originally succeeded, so
  // its per-attempt seed (and thus any seeded randomness in the body) is
  // identical and the recomputed value matches bit for bit.
  job.attempt = record.recovering && record.state == TaskState::Done ? record.succeeded_attempt
                                                                     : record.attempts_made + 1;
  job.body = record.implementation_body(record.active_variant);
  job.bindings = record.bindings;
  job.seed = options_.seed ^ (task * 0x9e3779b97f4a7c15ULL) ^
             static_cast<std::uint64_t>(job.attempt);
  return job;
}

AttemptResult Engine::execute_prepared(const BodyJob& job, const Placement& placement,
                                       bool simulated) {
  AttemptResult result;
  if (injector_.should_fail(job.task, job.attempt)) {
    result.error = "injected failure";
    return result;
  }
  if (!job.body) {
    result.success = true;  // pure-cost task (simulation-only workloads)
    return result;
  }
  TaskContext ctx(graph_.registry(), job.bindings, placement, job.attempt, simulated, job.seed);
  try {
    result.return_value = job.body(ctx);
    result.writes = ctx.pending_writes();
    result.success = true;
  } catch (const DataLostError& e) {
    // An input's replicas died mid-flight. Flagged so the conclusion path
    // re-queues the task behind lineage recovery without charging it.
    result.error = e.what();
    result.data_lost = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception in task body";
  }
  return result;
}

AttemptResult Engine::execute_body(TaskId task, const Placement& placement, bool simulated) {
  return execute_prepared(prepare_body(task), placement, simulated);
}

AttemptResult Engine::injection_result(TaskId task) {
  const TaskRecord& record = graph_.task(task);
  AttemptResult result;
  if (injector_.should_fail(task, record.attempts_made + 1))
    result.error = "injected failure";
  else
    result.success = true;
  return result;
}

double Engine::stage_inputs(TaskId task, int node, double now) {
  const cluster::ClusterSpec& spec = resources_.spec();
  if (spec.has_parallel_fs) return 0.0;
  TaskRecord& record = graph_.task(task);
  DataRegistry& registry = graph_.registry();
  double total = 0.0;
  for (const ParamBinding& b : record.bindings) {
    if (b.param.dir == Direction::Out) continue;
    if (registry.available_everywhere(b.param.data, b.read_version)) continue;
    if (registry.locations(b.param.data, b.read_version).contains(node)) continue;
    const double seconds = spec.network.transfer_seconds(registry.bytes_of(b.param.data));
    emit(trace::EventKind::Transfer, &record, now + total, now + total + seconds, {.node = node});
    registry.add_location(b.param.data, b.read_version, node);
    total += seconds;
  }
  return total;
}

void Engine::commit_outputs(TaskRecord& task, AttemptResult& result) {
  DataRegistry& registry = graph_.registry();
  const cluster::ClusterSpec& spec = resources_.spec();
  // With a PFS every node can read fresh outputs; otherwise they live on
  // the producing node until staged elsewhere.
  const int location = spec.has_parallel_fs ? -1 : task.last_node;

  // Explicit ctx.write()s first (last write to an index wins).
  std::vector<bool> written(task.bindings.size(), false);
  for (auto& [index, value] : result.writes) {
    const ParamBinding& b = task.bindings[index];
    registry.commit(b.param.data, b.write_version, std::move(value), location);
    written[index] = true;
  }
  // The body's return value goes to the implicit result binding (the last).
  const std::size_t result_index = task.bindings.size() - 1;
  if (!written[result_index]) {
    registry.commit(task.result.data, task.result.version, std::move(result.return_value), location);
    written[result_index] = true;
  }
  // InOut params not explicitly written carry the old value forward; Out
  // params not written become empty (reading them is a caller bug).
  for (std::size_t i = 0; i < task.bindings.size(); ++i) {
    if (written[i]) continue;
    const ParamBinding& b = task.bindings[i];
    if (b.param.dir == Direction::InOut)
      registry.commit(b.param.data, b.write_version,
                      registry.value(b.param.data, b.read_version), location);
    else if (b.param.dir == Direction::Out)
      registry.commit(b.param.data, b.write_version, {}, location);
  }
}

Engine::Completion Engine::complete_attempt(std::uint64_t attempt_id, AttemptResult result,
                                            double start, double end) {
  const auto it = inflight_.find(attempt_id);
  // Stale: the attempt was reaped at its deadline (its failure is already
  // accounted for and its resources released) — drop the late completion.
  if (it == inflight_.end()) return {};
  const Attempt attempt = std::move(it->second);
  inflight_.erase(it);
  return conclude_attempt(attempt, std::move(result), start, end);
}

Engine::Completion Engine::conclude_attempt(const Attempt& attempt, AttemptResult result,
                                            double start, double end) {
  if (attempt.recovery) return conclude_recovery(attempt, std::move(result), start, end);
  Completion completion;
  const TaskId task = attempt.task;
  const Placement& placement = attempt.placement;
  TaskRecord& record = graph_.task(task);
  resources_.release(placement);
  --running_;
  --record.running_attempts;
  // A speculative loser can land after its study's record was erased.
  if (const auto study = studies_.find(record.study); study != studies_.end())
    --study->second.running;
  health_.on_conclusion(static_cast<std::size_t>(placement.node));

  emit(trace::EventKind::TaskRun, &record, start, end,
       {.attempt = record.attempts_made + 1, .node = placement.node, .cores = &placement.cores,
        .gpus = &placement.gpus});
  for (const NodeSlice& slice : placement.secondary) {
    // @multinode: the task occupied every slice for the same interval.
    emit(trace::EventKind::TaskRun, &record, start, end,
         {.attempt = record.attempts_made + 1, .node = slice.node, .cores = &slice.cores,
          .gpus = &slice.gpus});
  }

  if (task_terminal(task)) {
    // The task's fate was decided while this attempt ran: a speculative
    // sibling won the race, or a second abandoned attempt reported after
    // the first already turned the task Cancelled. Abandon-on-finish:
    // discard the result, the resources just came back, nothing retries.
    return completion;
  }

  if (record.abandoned) {
    // Runtime::cancel caught this attempt mid-flight: whatever it produced
    // is discarded — no commit, no retry. Dependents known at cancel time
    // were doomed then; ones submitted since wait on this task and are
    // doomed now.
    ++record.attempts_made;
    if (record.running_attempts > 0) return completion;  // a sibling still runs
    end_task(record, TaskState::Cancelled,
             record.failure_reason.empty() ? "cancelled while running" : record.failure_reason);
    return completion;
  }

  if (!result.success && result.data_lost) {
    // The body died reading data whose replicas went down with a node —
    // not this task's fault. Re-queue it uncharged behind the recovery of
    // whatever is still lost; lineage gating holds it until the inputs are
    // recommitted. Only an *unrecoverable* input turns this into a real
    // failure (charged below, doomed at gating).
    bool doomed_input = false;
    for (const ParamBinding& b : record.bindings) {
      if (b.param.dir == Direction::Out) continue;
      if (!graph_.registry().version_lost(b.param.data, b.read_version)) continue;
      if (!demand_recovery(b.param.data, b.read_version, end)) doomed_input = true;
    }
    if (!doomed_input) {
      emit(trace::EventKind::TaskRetry, &record, end, end, {.attempt = record.attempts_made + 1});
      make_ready(task);
      return completion;
    }
  }

  ++record.attempts_made;

  if (result.success) {
    record.succeeded_attempt = record.attempts_made;
    if (!resources_.node_down(static_cast<std::size_t>(placement.node)))
      health_.record_success(static_cast<std::size_t>(placement.node));
    speculation_.record(speculation_key(record), end - start);
    if (attempt.speculative)
      emit(trace::EventKind::SpeculativeWin, &record, end, end,
           {.attempt = record.attempts_made, .node = placement.node});
    commit_outputs(record, result);
    record.state = TaskState::Done;
    mark_terminal(task);
    for (TaskId succ : record.successors) {
      TaskRecord& s = graph_.task(succ);
      if (s.state != TaskState::WaitingDeps) continue;
      if (--s.deps_remaining == 0) make_ready(succ);
    }
    return completion;
  }

  // ---- Failure path (paper §4 retry policy) ----
  record.failure_reason = result.error;
  emit(trace::EventKind::TaskFailure, &record, end, end,
       {.attempt = record.attempts_made, .node = placement.node});
  log_warn("engine", "task {} '{}' attempt {} failed on node {}: {}", task, record.def.name,
           record.attempts_made, placement.node, result.error);
  if (!resources_.node_down(static_cast<std::size_t>(placement.node)) &&
      health_.record_failure(static_cast<std::size_t>(placement.node))) {
    emit(trace::EventKind::Quarantine, nullptr, end, end, {.node = placement.node});
    log_warn("engine", "node {} quarantined (failure score {:.2f})", placement.node,
             health_.score(static_cast<std::size_t>(placement.node)));
  }

  if (record.running_attempts > 0) {
    // A sibling attempt (the straggling original or a speculative
    // duplicate) is still in flight: absorb this failure and let the
    // sibling decide the task's fate. The task stays Running.
    return completion;
  }

  if (record.attempts_made >= options_.fault_policy.max_attempts) {
    end_task(record, TaskState::Failed, std::move(record.failure_reason));
    return completion;
  }

  const double delay = options_.fault_policy.retry_delay(record.attempts_made);
  const bool want_same_node = record.attempts_made <= options_.fault_policy.same_node_retries;
  if (want_same_node && delay <= 0.0) {
    // Its slots were just released, so this succeeds unless the node died.
    const Constraint& constraint = record.implementation_constraint(record.active_variant);
    auto retry_placement =
        constraint.nodes > 1
            ? resources_.try_allocate_multi(constraint, record.excluded_nodes)
            : resources_.try_allocate(static_cast<std::size_t>(placement.node), constraint);
    if (retry_placement) {
      record.state = TaskState::Running;
      emit(trace::EventKind::TaskRetry, &record, end, end,
           {.attempt = record.attempts_made + 1, .node = placement.node});
      Dispatch retry{.task = task, .placement = std::move(*retry_placement),
                     .variant = record.active_variant};
      retry.attempt_id = register_attempt(task, retry.placement, end, /*speculative=*/false);
      completion.retry = std::move(retry);
      return completion;
    }
  }
  // A pinned backoff retry intends to come back to this node, so it must
  // not be blacklisted; every other path that reaches here resubmits
  // elsewhere (including a same-node retry whose node just died).
  const bool defer_pinned = want_same_node && delay > 0.0;
  if (!defer_pinned) {
    // Resubmit elsewhere: never return to the node that failed us.
    if (std::find(record.excluded_nodes.begin(), record.excluded_nodes.end(), placement.node) ==
        record.excluded_nodes.end())
      record.excluded_nodes.push_back(placement.node);
    // If the blacklist now covers every live node, the failures are task-
    // transient rather than node-specific: reset it so remaining attempts
    // can still land somewhere (dead nodes stay unusable via ResourceState).
    bool any_allowed = false;
    for (std::size_t node = 0; node < resources_.node_count() && !any_allowed; ++node) {
      if (std::find(record.excluded_nodes.begin(), record.excluded_nodes.end(),
                    static_cast<int>(node)) != record.excluded_nodes.end())
        continue;
      any_allowed = resources_.could_fit(node, record.def.constraint);
    }
    if (!any_allowed) record.excluded_nodes.clear();
  }

  if (delay > 0.0) {
    // Exponential backoff: hold the task out of the ready queue until the
    // delay expires, then retry (preferring the same node while the paper's
    // same-node budget lasts). It counts as Ready so cancel() still works.
    emit(trace::EventKind::Backoff, &record, end, end + delay,
         {.attempt = record.attempts_made + 1, .node = want_same_node ? placement.node : -1});
    record.state = TaskState::Ready;
    delayed_.push_back(DelayedRetry{.task = task,
                                    .ready_at = end + delay,
                                    .pinned_node = want_same_node ? placement.node : -1});
    return completion;
  }

  emit(trace::EventKind::TaskRetry, &record, end, end, {.attempt = record.attempts_made + 1});
  make_ready(task);
  return completion;
}

std::vector<Dispatch> Engine::on_wakeup(double now) {
  std::vector<Dispatch> launches;

  // 0) Apply node membership changes whose time has come (deaths reap the
  // node's attempts; rejoins restore capacity on probation).
  process_node_events(now, launches);

  // 1) Reap in-flight attempts past their deadline. The failure is charged
  // now — a ThreadBackend body may still be running, but its completion
  // will arrive with an id the registry no longer knows and be dropped.
  std::vector<std::pair<std::uint64_t, Attempt>> expired;
  for (const auto& [id, attempt] : inflight_)
    if (attempt.deadline <= now) expired.emplace_back(id, attempt);
  for (auto& [id, attempt] : expired) {
    inflight_.erase(id);
    const double timeout = attempt.deadline - attempt.start;
    AttemptResult result;
    result.error = "timeout after " + std::to_string(timeout) + "s (reaped in flight)";
    Completion completion = conclude_attempt(attempt, std::move(result), attempt.start, now);
    if (completion.retry) launches.push_back(*completion.retry);
  }

  // 2) Promote retries whose backoff delay expired.
  for (std::size_t i = 0; i < delayed_.size();) {
    if (delayed_[i].ready_at > now) {
      ++i;
      continue;
    }
    const DelayedRetry due = delayed_[i];
    delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
    TaskRecord& record = graph_.task(due.task);
    // Cancelled (or otherwise resolved) while waiting out the delay.
    if (record.state != TaskState::Ready || task_terminal(due.task)) continue;
    if (due.pinned_node >= 0) {
      const Constraint& constraint = record.implementation_constraint(record.active_variant);
      if (constraint.nodes <= 1) {
        if (auto placement =
                resources_.try_allocate(static_cast<std::size_t>(due.pinned_node), constraint)) {
          record.state = TaskState::Running;
          record.last_node = due.pinned_node;
          emit(trace::EventKind::TaskRetry, &record, now, now,
               {.attempt = record.attempts_made + 1, .node = due.pinned_node});
          Dispatch retry{.task = due.task, .placement = std::move(*placement),
                         .variant = record.active_variant};
          retry.attempt_id = register_attempt(due.task, retry.placement, now, false);
          launches.push_back(std::move(retry));
          continue;
        }
      }
    }
    // No pin, or the pinned node is busy/dead: back to the ready queue for
    // the scheduler (make_ready fails the task if nothing can ever fit).
    emit(trace::EventKind::TaskRetry, &record, now, now, {.attempt = record.attempts_made + 1});
    make_ready(due.task);
  }

  // 3) Speculative duplicates for straggling attempts.
  check_speculation(now, launches);
  return launches;
}

void Engine::check_speculation(double now, std::vector<Dispatch>& out) {
  const SpeculationPolicy& policy = options_.speculation;
  if (!policy.enabled) return;
  for (const auto& [id, attempt] : inflight_) {
    if (attempt.speculative) continue;
    TaskRecord& record = graph_.task(attempt.task);
    if (record.abandoned || task_terminal(attempt.task)) continue;
    if (record.speculative_launches >= policy.max_duplicates) continue;
    const Constraint& constraint = record.implementation_constraint(record.active_variant);
    if (constraint.nodes > 1) continue;  // @multinode duplicates unsupported
    const auto threshold = speculation_.straggler_threshold(speculation_key(record));
    if (!threshold || now - attempt.start < *threshold) continue;
    if (!record.straggler_flagged) {
      record.straggler_flagged = true;
      emit(trace::EventKind::StragglerDetected, &record, now, now,
           {.attempt = record.attempts_made + 1, .node = attempt.placement.node});
      log_info("engine", "task {} '{}' straggling on node {} ({:.3f}s > {:.3f}s threshold)",
               attempt.task, record.def.name, attempt.placement.node, now - attempt.start,
               *threshold);
    }
    // Duplicate placement: constraint-feasible slot on another node, never
    // the straggler's node and never a blacklisted one.
    auto placement = place_duplicate(record, constraint, resources_, attempt.placement.node);
    if (!placement) continue;  // no slot right now; try again on a later wakeup
    ++record.speculative_launches;
    Dispatch duplicate{.task = attempt.task, .placement = std::move(*placement),
                       .variant = record.active_variant};
    duplicate.attempt_id = register_attempt(attempt.task, duplicate.placement, now, true);
    emit(trace::EventKind::SpeculativeLaunch, &record, now, now,
         {.attempt = record.attempts_made + 1, .node = duplicate.placement.node});
    out.push_back(std::move(duplicate));
  }
}

std::optional<double> Engine::next_wakeup(double now) const {
  std::optional<double> wake;
  const auto consider = [&](double t) {
    if (t > now && (!wake || t < *wake)) wake = t;
  };
  const SpeculationPolicy& policy = options_.speculation;
  for (const auto& [id, attempt] : inflight_) {
    if (attempt.deadline < std::numeric_limits<double>::infinity()) consider(attempt.deadline);
    if (!policy.enabled || attempt.speculative) continue;
    const TaskRecord& record = graph_.task(attempt.task);
    if (record.abandoned || record.speculative_launches >= policy.max_duplicates) continue;
    if (const auto threshold = speculation_.straggler_threshold(speculation_key(record)))
      consider(attempt.start + *threshold);
  }
  for (const DelayedRetry& d : delayed_) consider(d.ready_at);
  if (next_node_event_ < node_events_.size()) consider(node_events_[next_node_event_].time);
  return wake;
}

void Engine::cancel_dependents(TaskId task) {
  for (TaskId succ : graph_.task(task).successors) {
    TaskRecord& s = graph_.task(succ);
    if (s.state == TaskState::WaitingDeps || s.state == TaskState::Ready)
      end_task(s, TaskState::Cancelled, "predecessor " + std::to_string(task) + " failed");
  }
}

bool Engine::cancel(TaskId task, double now) {
  TaskRecord& record = graph_.task(task);
  if (task_terminal(task)) return false;  // too late: result already landed
  // Already cancelled, just not yet terminal: the abandoned attempt is
  // still in flight. Dependents were doomed on the first cancel.
  if (record.abandoned) return false;

  emit(trace::EventKind::Cancel, &record, now, now,
       {.node = record.state == TaskState::Running ? record.last_node : -1});

  if (record.state == TaskState::Running) {
    // The attempt holds its resources until it reports back; the outcome
    // will be discarded in complete_attempt. Dependents are doomed now —
    // the inputs they wait for will never be committed.
    record.abandoned = true;
    record.failure_reason = "cancelled by caller";
    cancel_dependents(task);
    return true;
  }

  // WaitingDeps or Ready: never held resources, nothing to release.
  end_task(record, TaskState::Cancelled, "cancelled by caller");
  return true;
}

void Engine::process_node_events(double now, std::vector<Dispatch>& out) {
  while (next_node_event_ < node_events_.size() && node_events_[next_node_event_].time <= now) {
    const NodeEvent event = node_events_[next_node_event_++];
    if (event.up)
      handle_node_up(event.node, now);
    else
      handle_node_down(event.node, now, out);
  }
}

void Engine::handle_node_down(std::size_t node, double now, std::vector<Dispatch>& out) {
  if (node >= resources_.node_count() || resources_.node_down(node)) return;
  resources_.mark_node_down(node);
  health_.on_node_down(node);
  emit(trace::EventKind::NodeDown, nullptr, now, now, {.node = static_cast<int>(node)});
  log_warn("engine", "node {} failed at t={:.3f}", node, now);

  // Reap every in-flight attempt touching the node (primary or any
  // @multinode slice). The failure is charged now; if a worker thread is
  // still inside the body, its completion arrives with an id the registry
  // no longer knows and is dropped as stale.
  std::vector<std::pair<std::uint64_t, Attempt>> hit;
  for (const auto& [id, attempt] : inflight_) {
    bool touches = attempt.placement.node == static_cast<int>(node);
    for (const NodeSlice& slice : attempt.placement.secondary)
      touches = touches || slice.node == static_cast<int>(node);
    if (touches) hit.emplace_back(id, attempt);
  }
  for (auto& [id, attempt] : hit) {
    inflight_.erase(id);
    AttemptResult result;
    result.error = "node " + std::to_string(node) + " failed";
    Completion completion = conclude_attempt(attempt, std::move(result), attempt.start, now);
    if (completion.retry) out.push_back(*completion.retry);
  }

  // Lineage bookkeeping: versions whose only replicas lived here are now
  // lost. Recovery is demanded lazily — by gated ready tasks, by running
  // consumers that hit DataLostError, or by wait_on.
  for (const LostVersion& lv : graph_.registry().drop_node_replicas(static_cast<int>(node))) {
    emit(trace::EventKind::DataLost, nullptr, now, now,
         {.node = static_cast<int>(node), .task_id = lv.producer});
    log_warn("engine", "d{}v{} lost with node {} (producer task {})", lv.data, lv.version, node,
             lv.producer);
  }

  reap_infeasible();
}

void Engine::handle_node_up(std::size_t node, double now) {
  if (node >= resources_.node_count() || !resources_.node_down(node)) return;
  resources_.mark_node_up(node);
  health_.on_node_up(node);
  emit(trace::EventKind::NodeUp, nullptr, now, now, {.node = static_cast<int>(node)});
  log_info("engine", "node {} rejoined at t={:.3f} (on probation)", node, now);
}

bool Engine::node_up_pending() const {
  for (std::size_t i = next_node_event_; i < node_events_.size(); ++i)
    if (node_events_[i].up) return true;
  return false;
}

bool Engine::demand_recovery(DataId data, std::uint32_t version, double now) {
  const TaskId producer = graph_.registry().producer(data, version);
  if (producer == kNoTask) return false;
  return enqueue_recovery(producer, now);
}

bool Engine::enqueue_recovery(TaskId producer, double now) {
  if (unrecoverable_.contains(producer)) return false;
  if (recovery_.contains(producer)) return true;
  TaskRecord& record = graph_.task(producer);
  // Only a task that committed once, and whose body was not released with
  // its study, has anything to replay.
  if (record.state != TaskState::Done) return false;
  if (record.released) {
    unrecoverable_.insert(producer);
    return false;
  }
  recovery_.emplace(producer, RecoveryJob{.task = producer});
  record.recovering = true;
  log_info("engine", "lineage: queueing recompute of task {} '{}'", producer, record.def.name);
  // Walk the chain: the producer's own lost inputs must come back first.
  // Terminates — a version's producer always has a smaller task id, and
  // the recovery_ map memoizes visited tasks.
  bool recoverable = true;
  for (const ParamBinding& b : record.bindings) {
    if (b.param.dir == Direction::Out) continue;
    if (!graph_.registry().version_lost(b.param.data, b.read_version)) continue;
    if (!demand_recovery(b.param.data, b.read_version, now)) recoverable = false;
  }
  if (!recoverable) {
    recovery_.erase(producer);
    record.recovering = false;
    unrecoverable_.insert(producer);
    return false;
  }
  return true;
}

void Engine::dispatch_recoveries(double now, std::vector<Dispatch>& out) {
  if (recovery_.empty()) return;
  std::vector<TaskId> doomed;
  for (auto& [task, job] : recovery_) {
    if (job.inflight) continue;
    TaskRecord& record = graph_.task(task);
    bool waiting = false;
    bool input_doomed = false;
    for (const ParamBinding& b : record.bindings) {
      if (b.param.dir == Direction::Out) continue;
      if (graph_.registry().has_value(b.param.data, b.read_version)) continue;
      const TaskId producer = graph_.registry().producer(b.param.data, b.read_version);
      if (producer == kNoTask || unrecoverable_.contains(producer)) {
        input_doomed = true;
        break;
      }
      waiting = true;  // the input's own recovery has not recommitted yet
    }
    if (input_doomed) {
      doomed.push_back(task);
      continue;
    }
    if (waiting) continue;

    const Constraint& constraint = record.implementation_constraint(record.active_variant);
    std::optional<Placement> placement;
    if (constraint.nodes > 1) {
      placement = resources_.try_allocate_multi(constraint, job.excluded_nodes);
    } else {
      for (std::size_t node = 0; node < resources_.node_count() && !placement; ++node) {
        if (std::find(job.excluded_nodes.begin(), job.excluded_nodes.end(),
                      static_cast<int>(node)) != job.excluded_nodes.end())
          continue;
        placement = resources_.try_allocate(node, constraint);
      }
    }
    if (!placement) continue;  // resources busy; retried on a later round

    job.inflight = true;
    Dispatch d{.task = task, .placement = std::move(*placement), .variant = record.active_variant};
    d.attempt_id = register_attempt(task, d.placement, now, /*speculative=*/false,
                                    /*recovery=*/true);
    emit(trace::EventKind::LineageRecompute, &record, now, now,
         {.attempt = record.succeeded_attempt, .node = d.placement.node});
    log_info("engine", "lineage: recomputing task {} '{}' on node {}", task, record.def.name,
             d.placement.node);
    out.push_back(std::move(d));
  }
  for (TaskId task : doomed) {
    recovery_.erase(task);
    graph_.task(task).recovering = false;
    unrecoverable_.insert(task);
    log_warn("engine", "lineage: task {} unrecoverable (an input can never be recomputed)", task);
  }
}

Engine::Completion Engine::conclude_recovery(const Attempt& attempt, AttemptResult result,
                                             double start, double end) {
  Completion completion;
  const TaskId task = attempt.task;
  const std::size_t node = static_cast<std::size_t>(attempt.placement.node);
  TaskRecord& record = graph_.task(task);
  resources_.release(attempt.placement);
  --running_;
  --record.running_attempts;
  health_.on_conclusion(node);

  const auto it = recovery_.find(task);
  if (it == recovery_.end()) return completion;  // job withdrawn while in flight
  RecoveryJob& job = it->second;
  job.inflight = false;

  emit(trace::EventKind::TaskRun, &record, start, end,
       {.attempt = record.succeeded_attempt, .node = attempt.placement.node,
        .cores = &attempt.placement.cores, .gpus = &attempt.placement.gpus});

  if (result.success) {
    if (!resources_.node_down(node)) health_.record_success(node);
    // The recomputed outputs live where the recompute ran; commit clears
    // the lost flags, unblocking gated consumers and wait_on. Task state is
    // untouched — it was Done and stays Done with its original
    // terminal_seq; only the data came back.
    record.last_node = attempt.placement.node;
    commit_outputs(record, result);
    ++recoveries_done_;
    record.recovering = false;
    recovery_.erase(it);
    log_info("engine", "lineage: task {} '{}' recomputed on node {}", task, record.def.name,
             static_cast<int>(node));
    return completion;
  }

  if (result.data_lost) {
    // Its own input died again mid-recompute. Re-demand and retry without
    // charging the job unless the chain is now unrecoverable.
    bool chain_ok = true;
    for (const ParamBinding& b : record.bindings) {
      if (b.param.dir == Direction::Out) continue;
      if (!graph_.registry().version_lost(b.param.data, b.read_version)) continue;
      if (!demand_recovery(b.param.data, b.read_version, end)) chain_ok = false;
    }
    if (chain_ok) return completion;
  }

  if (!resources_.node_down(node) && health_.record_failure(node))
    emit(trace::EventKind::Quarantine, nullptr, end, end, {.node = attempt.placement.node});
  ++job.attempts;
  if (std::find(job.excluded_nodes.begin(), job.excluded_nodes.end(), attempt.placement.node) ==
      job.excluded_nodes.end())
    job.excluded_nodes.push_back(attempt.placement.node);
  if (job.attempts >= options_.fault_policy.max_attempts) {
    recovery_.erase(it);
    record.recovering = false;
    unrecoverable_.insert(task);
    log_warn("engine", "lineage: recovery of task {} abandoned after {} attempts", task,
             options_.fault_policy.max_attempts);
    return completion;
  }
  // If the exclusion list now covers every live node, the failures are
  // transient rather than node-specific: reset it so the remaining budget
  // can still land somewhere.
  bool any_allowed = false;
  for (std::size_t n = 0; n < resources_.node_count() && !any_allowed; ++n) {
    if (std::find(job.excluded_nodes.begin(), job.excluded_nodes.end(), static_cast<int>(n)) !=
        job.excluded_nodes.end())
      continue;
    any_allowed = resources_.could_fit(n, record.implementation_constraint(record.active_variant));
  }
  if (!any_allowed) job.excluded_nodes.clear();
  return completion;
}

Engine::VersionStatus Engine::request_version(DataId data, std::uint32_t version, double now) {
  DataRegistry& registry = graph_.registry();
  if (registry.has_value(data, version)) return VersionStatus::Available;
  if (registry.version_lost(data, version)) {
    const TaskId producer = registry.producer(data, version);
    if (producer != kNoTask && unrecoverable_.contains(producer))
      return VersionStatus::Unrecoverable;
    return demand_recovery(data, version, now) ? VersionStatus::Recovering
                                               : VersionStatus::Unrecoverable;
  }
  return VersionStatus::Recovering;  // producer has not committed yet
}

bool Engine::inputs_ready(const TaskRecord& record, double now, bool& doomed) {
  bool ready = true;
  for (const ParamBinding& b : record.bindings) {
    if (b.param.dir == Direction::Out) continue;
    if (!graph_.registry().version_lost(b.param.data, b.read_version)) continue;
    ready = false;
    if (!demand_recovery(b.param.data, b.read_version, now)) doomed = true;
  }
  return ready;
}

void Engine::check_input_liveness(const TaskRecord& record) {
  const DataRegistry& registry = graph_.registry();
  for (const ParamBinding& b : record.bindings) {
    if (b.param.dir == Direction::Out) continue;
    if (registry.available_everywhere(b.param.data, b.read_version)) continue;
    const std::set<int> locs = registry.locations(b.param.data, b.read_version);
    if (locs.empty()) continue;  // main-program data, staged on demand
    bool live = false;
    for (int n : locs)
      if (n >= 0 && !resources_.node_down(static_cast<std::size_t>(n))) live = true;
    if (!live) {
      ++lineage_violations_;
      log_warn("engine", "invariant violation: task {} dispatched with no live replica of d{}v{}",
               record.id, b.param.data, b.read_version);
    }
  }
}

bool Engine::reap_infeasible() {
  // Capacity that is scheduled to return is not gone: while a rejoin event
  // is pending, tasks wait for it instead of failing.
  if (node_up_pending()) return false;
  bool progressed = false;
  // With every node dead (and none returning), pending lineage recoveries
  // can never run — abandon them so barriers terminate.
  if (!recovery_.empty()) {
    bool any_live = false;
    for (std::size_t node = 0; node < resources_.node_count() && !any_live; ++node)
      any_live = !resources_.node_down(node);
    if (!any_live) {
      for (auto& [task, job] : recovery_) {
        graph_.task(task).recovering = false;
        unrecoverable_.insert(task);
      }
      recovery_.clear();
      progressed = true;
    }
  }
  // Collect first, in StudyId then readiness order, then fail in that
  // order: failing unlinks the task from the list being walked.
  std::vector<TaskId> infeasible;
  for (const auto& [study_id, study] : studies_) {
    for (TaskId id = study.head; id != kNoTask; id = graph_.task(id).ready_next)
      if (!feasible(graph_.task(id))) infeasible.push_back(id);
  }
  for (TaskId id : infeasible)
    end_task(graph_.task(id), TaskState::Failed, "no live node can satisfy the constraint");
  return progressed || !infeasible.empty();
}

bool Engine::task_terminal(TaskId task) const {
  const TaskState s = graph_.task(task).state;
  return s == TaskState::Done || s == TaskState::Failed || s == TaskState::Cancelled;
}

bool Engine::all_terminal() const { return terminal_ == graph_.size(); }

}  // namespace chpo::rt
