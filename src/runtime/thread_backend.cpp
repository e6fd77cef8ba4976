#include "runtime/thread_backend.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
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
    : Backend(engine),
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
  {
    MutexLock lock(self->mutex_);
    self->completions_.push_back({job.attempt_id, std::move(result), job.start, end});
  }
  self->cv_.notify_one();
}

void ThreadBackend::idle_until(double t) {
  const double seconds = t - now();
  if (seconds > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void ThreadBackend::collect(double deadline, std::optional<double> wake,
                            std::vector<Finished>& out) {
  double limit = std::numeric_limits<double>::infinity();
  if (deadline >= 0.0) limit = deadline;
  if (wake && *wake < limit) limit = *wake;
  MutexLock lock(mutex_);
  // Condition re-checks are written as explicit while loops (not predicate
  // lambdas) so the thread-safety analysis sees every completions_ access
  // under the held MutexLock.
  if (limit == std::numeric_limits<double>::infinity()) {
    while (completions_.empty()) cv_.wait(mutex_);
  } else {
    while (completions_.empty()) {
      // Absolute limit: recompute the remaining budget after every
      // spurious wakeup, give up once it is spent.
      const double seconds = limit - now();
      if (seconds <= 0.0) break;
      if (cv_.wait_for(mutex_, std::chrono::duration<double>(seconds)) == std::cv_status::timeout)
        break;
    }
  }
  while (!completions_.empty()) {
    out.push_back(std::move(completions_.front()));
    completions_.pop_front();
  }
}

}  // namespace chpo::rt
