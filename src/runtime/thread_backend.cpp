#include "runtime/thread_backend.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

namespace chpo::rt {

namespace {

std::size_t pool_size_for(const ResourceState& resources) {
  // Peak concurrency: every task needs >= 1 core or >= 1 GPU slot.
  std::size_t total = 0;
  const auto& spec = resources.spec();
  for (std::size_t i = 0; i < spec.nodes.size(); ++i)
    total += spec.usable_cpus(i) + spec.usable_gpus(i);
  return std::clamp<std::size_t>(total, 1, 256);
}

}  // namespace

ThreadBackend::ThreadBackend(Engine& engine)
    : engine_(engine),
      pool_(std::make_unique<StealPool>(pool_size_for(engine.resources()),
                                        &ThreadBackend::run_job, this)) {}

void ThreadBackend::launch(const Dispatch& dispatch) {
  // Timeouts are enforced by the coordinator: the engine reaps the attempt
  // at its deadline (Engine::on_wakeup) while the body is still running,
  // and this worker's eventual completion is then dropped as stale. The
  // body snapshot is taken here, on the coordinator, so the worker never
  // reads the TaskRecord the coordinator may mutate behind its back.
  StealPool::Job job;
  job.body = engine_.prepare_body(dispatch.task);
  job.placement = dispatch.placement;
  job.attempt_id = dispatch.attempt_id;
  job.start = now();
  pool_->submit(std::move(job));
}

void ThreadBackend::run_job(void* ctx, StealPool::Job&& job) {
  auto* self = static_cast<ThreadBackend*>(ctx);
  AttemptResult result = self->engine_.execute_prepared(job.body, job.placement, false);
  const double end = self->now();
  CompletionMsg msg{.attempt_id = job.attempt_id,
                    .task = job.body.task,
                    .result = std::move(result),
                    .start = job.start,
                    .end = end};
  {
    MutexLock lock(self->mutex_);
    self->completions_.push_back(std::move(msg));
  }
  self->cv_.notify_one();
}

bool ThreadBackend::done(TaskId target) const {
  // A barrier also waits out pending lineage recoveries (quiescent), so
  // data lost to a node death is recomputed before control returns.
  return target == kNoTask ? engine_.quiescent() : engine_.task_terminal(target);
}

bool ThreadBackend::drive(const std::function<bool()>& finished, double deadline) {
  engine_.flush_notifications();
  std::vector<CompletionMsg> batch;  // reused across rounds
  while (!finished()) {
    if (deadline >= 0.0 && now() >= deadline) return false;

    // Timed engine duties first: reap overdue attempts, promote backoff
    // retries, launch speculative duplicates. Reaping can turn tasks
    // terminal, so flush before re-checking the target.
    for (const Dispatch& d : engine_.on_wakeup(now())) launch(d);
    for (const Dispatch& d : engine_.schedule(now())) launch(d);
    engine_.flush_notifications();

    if (finished()) return true;

    const std::optional<double> wake = engine_.next_wakeup(now());

    if (engine_.running_count() == 0) {
      // Nothing is running and nothing could be placed: a pending timed
      // duty (backoff retry), constraints turned infeasible (node deaths),
      // or a genuine deadlock.
      if (engine_.reap_infeasible()) {
        engine_.flush_notifications();
        continue;
      }
      if (finished()) return true;
      // Nothing can complete before the wakeup (or, with no wakeup, before
      // some caller changes the picture — e.g. resumes a paused study):
      // sleep up to the wakeup or the deadline, whichever is first. Only
      // an unbounded wait with nothing pending is a genuine deadlock.
      if (!wake && deadline < 0.0)
        throw std::runtime_error("ThreadBackend: no runnable tasks but target not finished");
      double until = wake ? *wake : deadline;
      const bool deadline_first = deadline >= 0.0 && deadline <= until;
      if (deadline_first) until = deadline;
      const double seconds = until - now();
      if (seconds > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      if (deadline_first) return false;
      continue;
    }

    batch.clear();
    {
      MutexLock lock(mutex_);
      double limit = std::numeric_limits<double>::infinity();
      if (deadline >= 0.0) limit = deadline;
      if (wake && *wake < limit) limit = *wake;
      // Condition re-checks are written as explicit while loops (not
      // predicate lambdas) so the thread-safety analysis sees every
      // completions_ access under the held MutexLock.
      if (limit == std::numeric_limits<double>::infinity()) {
        while (completions_.empty()) cv_.wait(mutex_);
      } else {
        while (completions_.empty()) {
          // Absolute limit: recompute the remaining budget after every
          // spurious wakeup, give up once it is spent.
          const double seconds = limit - now();
          if (seconds <= 0.0) break;
          if (cv_.wait_for(mutex_, std::chrono::duration<double>(seconds)) ==
              std::cv_status::timeout)
            break;
        }
        if (completions_.empty()) {
          if (deadline >= 0.0 && now() >= deadline)
            return false;  // deadline hit with attempts still in flight
          // else: woke for an engine duty — loop back to on_wakeup.
        }
      }
      // Coalesce: drain *everything* queued so one coordinator round-trip
      // retires the whole wave (one lock hold, one notification flush)
      // instead of one message per lock acquisition.
      while (!completions_.empty()) {
        batch.push_back(std::move(completions_.front()));
        completions_.pop_front();
      }
    }
    if (batch.empty()) continue;
    for (CompletionMsg& msg : batch) {
      Engine::Completion completion =
          engine_.complete_attempt(msg.attempt_id, std::move(msg.result), msg.start, msg.end);
      if (completion.retry) launch(*completion.retry);
    }
    // Safe point: the engine holds no record references here, so queued
    // terminal notifications (and their user callbacks) can fire.
    engine_.flush_notifications();
  }
  return true;
}

void ThreadBackend::run_until(TaskId target) {
  drive([this, target] { return done(target); }, /*deadline=*/-1.0);
}

void ThreadBackend::run_until_any(std::span<const TaskId> targets) {
  drive(
      [this, targets] {
        return std::any_of(targets.begin(), targets.end(),
                           [this](TaskId t) { return engine_.task_terminal(t); });
      },
      /*deadline=*/-1.0);
}

bool ThreadBackend::run_for(double seconds) {
  return drive([this] { return engine_.quiescent(); }, now() + seconds);
}

bool ThreadBackend::run_until_any_for(std::span<const TaskId> targets, double seconds) {
  auto any_done = [this, targets] {
    return std::any_of(targets.begin(), targets.end(),
                       [this](TaskId t) { return engine_.task_terminal(t); });
  };
  drive(any_done, now() + seconds);
  return any_done();
}

void ThreadBackend::run_until_condition(const std::function<bool()>& finished) {
  drive(finished, /*deadline=*/-1.0);
}

}  // namespace chpo::rt
