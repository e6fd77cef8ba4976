// StudySession — a study-scoped view of one shared Runtime.
//
// The HPO layer never sees rt::Runtime& anymore (chpo_lint enforces it):
// drivers receive this handle instead, so N concurrent studies can
// multiplex one engine. Tasks submitted through a session carry the
// session's StudyId, so a completion can be routed back to its study by
// that tag, and cancel_all() tears down exactly this study's in-flight
// work — a neighbouring study never observes another's early stop, kill,
// or fault.
//
// The handle is a cheap copyable (Runtime*, StudyId) pair. It does not own
// the Runtime: whoever built the Runtime (an application, optimize(), or
// service::StudyManager) must keep it alive for as long as any session
// handle is in use. All calls happen on the coordinator thread, exactly
// like direct Runtime calls — sessions make ownership *logical*, not
// concurrent (the engine stays single-thread confined).
#pragma once

#include <any>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace chpo::rt {

class StudySession {
 public:
  /// Invalid handle; assign from Runtime::open_study()/main_study().
  StudySession() = default;

  StudyId id() const { return id_; }
  bool valid() const { return runtime_ != nullptr; }
  const std::string& name() const { return runtime_->study_name(id_); }

  /// Submit a task tagged with this study; see Runtime::submit.
  Future submit(const TaskDef& def, const std::vector<Param>& params = {}) {
    return runtime_->submit_study(id_, def, params, {});
  }
  Future submit(const TaskDef& def, const std::vector<Param>& params,
                Runtime::CompletionCallback on_complete) {
    return runtime_->submit_study(id_, def, params, std::move(on_complete));
  }

  /// Submit a wave of tasks tagged with this study in one engine
  /// round-trip (one coordinator context, one admission pass, one
  /// notification flush). Semantically identical to calling submit() per
  /// item in order; returns the futures in item order. This is the fast
  /// path for HPO generations: admission cost is amortized across the
  /// whole wave of trials.
  std::vector<Future> submit_batch(std::vector<Runtime::BatchItem> items) {
    return runtime_->submit_study_batch(id_, std::move(items));
  }

  /// Data registration is registry-global (studies may share inputs, e.g.
  /// one dataset feeding several studies); forwarded for convenience.
  template <typename T>
  DataId share(T value, std::uint64_t bytes = 64, std::string label = {}) {
    return runtime_->share(std::move(value), bytes, std::move(label));
  }
  template <typename T>
  DataId share_local(T value, std::uint64_t bytes = 64, std::string label = {}) {
    return runtime_->share_local(std::move(value), bytes, std::move(label));
  }

  template <typename T>
  const T& peek(DataId data) {
    return runtime_->peek<T>(data);
  }

  std::any wait_on(const Future& future) { return runtime_->wait_on(future); }
  template <typename T>
  T wait_on_as(const Future& future) {
    return runtime_->wait_on_as<T>(future);
  }

  /// Per-state task counts of this study (service status snapshots).
  StudyProgress progress() const { return runtime_->study_progress(id_); }

  /// Cancel `future`'s producer and untrack it; see Runtime::cancel.
  bool cancel(const Future& future) { return runtime_->cancel(future); }

  /// Hand a trial's future to the runtime's tracked-completion queue; see
  /// Runtime::track.
  void track(const Future& future) { runtime_->track(future); }
  /// Next tracked completion of the whole runtime, whichever study tracked
  /// it (route by the task's study tag); empty Future once `deadline`
  /// passes. See Runtime::next_completion.
  Future next_completion(double deadline = -1.0) { return runtime_->next_completion(deadline); }

  /// Cancel every non-terminal task of this study (kill / early stop).
  /// Returns how many tasks were newly cancelled; other studies' work is
  /// untouched by construction (the engine filters on the study tag).
  std::size_t cancel_all() { return runtime_->cancel_study_tasks(id_); }

  /// Hold / release this study's ready queue at the engine's fair-share
  /// seam. Pausing never aborts in-flight attempts: they finish and
  /// commit, and their completions are still delivered.
  void pause() { runtime_->set_study_paused(id_, true); }
  void resume() { runtime_->set_study_paused(id_, false); }
  bool paused() const { return runtime_->is_study_paused(id_); }

  /// Block until every task of this study is terminal (per-study barrier;
  /// other studies' pending work does not gate it).
  void barrier() { runtime_->study_barrier(id_); }

  double now() const { return runtime_->now(); }
  bool simulated() const { return runtime_->simulated(); }
  const TaskGraph& graph() const { return runtime_->graph(); }
  const trace::TraceSink& trace() const { return runtime_->trace(); }
  trace::TraceSink& trace() { return runtime_->trace(); }
  std::uint64_t lineage_violations() const { return runtime_->lineage_violations(); }
  const cluster::ClusterSpec& cluster_spec() const { return runtime_->cluster_spec(); }

 private:
  friend class Runtime;
  StudySession(Runtime* runtime, StudyId id) : runtime_(runtime), id_(id) {}

  Runtime* runtime_ = nullptr;
  StudyId id_ = kMainStudy;
};

}  // namespace chpo::rt
