#include "runtime/runtime.hpp"

#include "runtime/study_session.hpp"
#include "runtime/thread_backend.hpp"
#include "support/log.hpp"

namespace chpo::rt {

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)),
      graph_(registry_),
      sink_(options_.tracing),
      engine_(graph_, options_.cluster,
              EngineOptions{.scheduler = options_.scheduler,
                            .fault_policy = options_.fault_policy,
                            .speculation = options_.speculation,
                            .node_health = options_.node_health,
                            .seed = options_.seed},
              options_.injector, sink_) {
  if (options_.cluster.nodes.empty())
    throw std::invalid_argument("Runtime: cluster has no nodes");
  // The constructing thread is the coordinator: every public entry point
  // below re-asserts the role with its own scope.
  EngineContextScope ctx(g_engine_ctx);
  engine_.set_terminal_listener(
      [this](TaskId task, TaskState state) { on_task_terminal(task, state); });
  if (options_.simulate)
    backend_ = std::make_unique<SimBackend>(engine_, options_.sim);
  else
    backend_ = std::make_unique<ThreadBackend>(engine_);
  log_info("runtime", "started: {} nodes, scheduler={}, backend={}", options_.cluster.nodes.size(),
           options_.scheduler, options_.simulate ? "sim" : "threads");
}

Runtime::~Runtime() {
  try {
    // A paused study's held ready tasks would stall the final barrier
    // forever: shutdown drains everything, so release every study first.
    {
      EngineContextScope ctx(g_engine_ctx);
      engine_.resume_all_studies();
    }
    barrier();
  } catch (const std::exception& e) {
    log_error("runtime", "exception while draining at shutdown: {}", e.what());
  }
}

Future Runtime::submit(const TaskDef& def, const std::vector<Param>& params) {
  return submit_study(kMainStudy, def, params, {});
}

Future Runtime::submit(const TaskDef& def, const std::vector<Param>& params,
                       CompletionCallback on_complete) {
  return submit_study(kMainStudy, def, params, std::move(on_complete));
}

Future Runtime::submit_study(StudyId study, const TaskDef& def, const std::vector<Param>& params,
                             CompletionCallback on_complete) {
  std::vector<BatchItem> items;
  items.push_back(BatchItem{.def = def, .params = params, .on_complete = std::move(on_complete)});
  return submit_study_batch(study, std::move(items)).front();
}

std::vector<Future> Runtime::submit_study_batch(StudyId study, std::vector<BatchItem> items) {
  EngineContextScope ctx(g_engine_ctx);
  if (!engine_.study_open(study))
    throw std::invalid_argument("Runtime: submit into unknown study " + std::to_string(study));
  std::vector<TaskId> ids;
  ids.reserve(items.size());
  // Phase 1: graph insertion + callback registration for the whole wave.
  // Callbacks must exist before admission (a task doomed at submission, or
  // with an unsatisfiable constraint, turns terminal inside on_submitted
  // and must still fire), and inserting everything first lets
  // intra-batch dependencies resolve no matter how admission reorders
  // terminal transitions.
  for (BatchItem& item : items) {
    const TaskId id = graph_.add_task(std::move(item.def), item.params, study);
    if (item.on_complete) callbacks_[id] = std::move(item.on_complete);
    ids.push_back(id);
  }
  // Phase 2: admit the wave in submission order, then one notification
  // flush for all of it. Admission is per task either way, so a wave and
  // the same tasks submitted one by one schedule bit-identically.
  const double now = backend_->now();
  for (const TaskId id : ids) engine_.on_submitted(id, now);
  engine_.flush_notifications();
  std::vector<Future> futures;
  futures.reserve(ids.size());
  for (const TaskId id : ids) futures.push_back(graph_.task(id).result);
  return futures;
}

StudySession Runtime::open_study(StudyOptions study) {
  EngineContextScope ctx(g_engine_ctx);
  const StudyId id = engine_.open_study(
      std::move(study.name), StudyPolicy{.weight = study.weight, .max_running = study.max_running});
  const std::string& name = engine_.study_name(id);
  sink_.record(trace::Event{.kind = trace::EventKind::StudyOpen,
                            .study = id,
                            .task_name = name,
                            .t_start = backend_->now(),
                            .t_end = backend_->now()});
  log_info("runtime", "study {} '{}' opened (weight={}, max_running={})", id, name, study.weight,
           study.max_running);
  return StudySession(this, id);
}

StudySession Runtime::main_study() { return StudySession(this, kMainStudy); }

const std::string& Runtime::study_name(StudyId study) const {
  if (!engine_.study_open(study))
    throw std::invalid_argument("Runtime: unknown study " + std::to_string(study));
  return engine_.study_name(study);
}

void Runtime::set_study_paused(StudyId study, bool paused) {
  study_name(study);  // validate
  EngineContextScope ctx(g_engine_ctx);
  engine_.set_study_paused(study, paused);
  sink_.record(trace::Event{
      .kind = paused ? trace::EventKind::StudyPause : trace::EventKind::StudyResume,
      .study = study,
      .task_name = study_name(study),
      .t_start = backend_->now(),
      .t_end = backend_->now()});
}

bool Runtime::is_study_paused(StudyId study) const { return engine_.study_paused(study); }

std::size_t Runtime::cancel_study_tasks(StudyId study) {
  study_name(study);  // validate
  EngineContextScope ctx(g_engine_ctx);
  const std::size_t cancelled = engine_.cancel_study(study, backend_->now());
  // Pending tasks (and their dependents) turned terminal inside
  // cancel_study; deliver their notifications before returning.
  engine_.flush_notifications();
  return cancelled;
}

void Runtime::study_barrier(StudyId study) {
  study_name(study);  // validate
  EngineContextScope ctx(g_engine_ctx);
  if (engine_.study_quiescent(study)) return;
  backend_->drive([this, study] { return engine_.study_quiescent(study); });
}

void Runtime::on_task_terminal(TaskId task, TaskState state) {
  // Notifications fire in terminal_seq order. A task tracked after it
  // turned terminal, but before its notification fired, is queued already.
  if (tracked_.contains(task) && (tracked_done_.empty() || tracked_done_.back() != task))
    tracked_done_.push_back(task);
  const auto it = callbacks_.find(task);
  if (it == callbacks_.end()) return;
  CompletionCallback callback = std::move(it->second);
  callbacks_.erase(it);  // erase first: the callback may submit new tasks
  // By value: the callback may submit, and the record the future lives in
  // can move when the graph grows.
  const Future result = graph_.task(task).result;
  callback(result, state);
}

std::any Runtime::wait_on(const Future& future) {
  if (future.producer == kNoTask) throw std::invalid_argument("wait_on: empty future");
  EngineContextScope ctx(g_engine_ctx);
  backend_->drive([this, &future] { return engine_.task_terminal(future.producer); });
  graph_.task(future.producer).synced = true;
  sink_.record(trace::Event{.kind = trace::EventKind::Sync,
                            .task_id = future.producer,
                            .t_start = backend_->now(),
                            .t_end = backend_->now()});
  const TaskRecord& record = graph_.task(future.producer);
  if (record.state != TaskState::Done)
    throw TaskFailedError(future.producer, record.failure_reason);
  // The producer is Done, but its output may have been lost with a node
  // since it committed. Demand lineage recovery and drive the backend until
  // the version is recommitted (or proven unrecoverable: the chain reaches
  // a permanently failed producer or every node is gone).
  auto status = engine_.request_version(future.data, future.version, backend_->now());
  if (status == Engine::VersionStatus::Recovering) {
    backend_->drive([this, &future, &status] {
      // Evaluated from inside the drive loop, which holds the capability
      // behind the std::function boundary.
      assert_engine_context();
      status = engine_.request_version(future.data, future.version, backend_->now());
      return status != Engine::VersionStatus::Recovering;
    });
  }
  if (status == Engine::VersionStatus::Unrecoverable)
    throw TaskFailedError(future.producer, "output lost with node " +
                                               std::to_string(record.last_node) +
                                               " and could not be recovered through lineage");
  return graph_.registry().value(future.data, future.version);
}

void Runtime::track(const Future& future) {
  if (future.producer == kNoTask) throw std::invalid_argument("track: empty future");
  // Already terminal (e.g. doomed at submission): queue it at once;
  // otherwise on_task_terminal queues it when it lands.
  if (tracked_.insert(future.producer).second && graph_.task(future.producer).terminal_seq != 0)
    tracked_done_.push_back(future.producer);
}

Future Runtime::next_completion(double deadline) {
  if (tracked_.empty()) throw std::invalid_argument("next_completion: nothing tracked");
  EngineContextScope ctx(g_engine_ctx);
  if (tracked_done_.empty())
    backend_->drive([this] { return !tracked_done_.empty(); }, deadline);
  if (tracked_done_.empty()) return Future{};  // timed out
  const TaskId task = tracked_done_.front();
  tracked_done_.pop_front();
  tracked_.erase(task);
  TaskRecord& record = graph_.task(task);
  record.synced = true;
  sink_.record(trace::Event{.kind = trace::EventKind::WaitAny,
                            .task_id = task,
                            .study = record.study,
                            .t_start = backend_->now(),
                            .t_end = backend_->now()});
  return record.result;
}

StudyProgress Runtime::study_progress(StudyId study) const {
  StudyProgress progress;
  for (const TaskId id : engine_.study_tasks(study)) {
    ++progress.total;
    switch (graph_.task(id).state) {
      case TaskState::WaitingDeps: ++progress.waiting; break;
      case TaskState::Ready: ++progress.ready; break;
      case TaskState::Running: ++progress.running; break;
      case TaskState::Done: ++progress.done; break;
      case TaskState::Failed: ++progress.failed; break;
      case TaskState::Cancelled: ++progress.cancelled; break;
    }
  }
  return progress;
}

void Runtime::release_study(StudyId study) {
  if (study == kMainStudy)
    throw std::invalid_argument("Runtime: the main study cannot be released");
  study_name(study);  // validate
  EngineContextScope ctx(g_engine_ctx);
  // Attempts a kill abandoned may still be running: the engine keeps the
  // study's record until they land.
  engine_.release_study(study);
}

bool Runtime::wait_all_for(double seconds) {
  if (graph_.empty()) return true;
  EngineContextScope ctx(g_engine_ctx);
  return backend_->drive([this] { return engine_.quiescent(); }, backend_->now() + seconds);
}

bool Runtime::cancel(const Future& future) {
  if (future.producer == kNoTask) throw std::invalid_argument("cancel: empty future");
  // Untrack first: the cancel below may turn the task terminal, and a
  // finished-but-undelivered one leaves the queue too.
  if (tracked_.erase(future.producer) != 0) std::erase(tracked_done_, future.producer);
  EngineContextScope ctx(g_engine_ctx);
  const bool cancelled = engine_.cancel(future.producer, backend_->now());
  // A pending task (and its dependents) turned terminal inside cancel();
  // their callbacks fire before this returns.
  engine_.flush_notifications();
  return cancelled;
}

void Runtime::barrier() {
  if (graph_.empty()) return;
  EngineContextScope ctx(g_engine_ctx);
  // quiescent, not just all_terminal: a barrier also waits out pending
  // lineage recoveries, so data lost to a node death is recomputed first.
  backend_->drive([this] { return engine_.quiescent(); });
}

std::size_t Runtime::add_node(const cluster::NodeSpec& node) {
  options_.cluster.nodes.push_back(node);
  const std::size_t index = engine_.resources().add_node(node);
  log_info("runtime", "elastic growth: node {} '{}' added ({} cpus, {} gpus)", index, node.name,
           node.cpus, node.gpus);
  return index;
}

}  // namespace chpo::rt
