// Threaded backend: real execution on host threads.
//
// Each dispatched task body runs on a worker thread from a sharded
// work-stealing pool sized to the cluster's total task concurrency (one
// queue per worker, dispatches sharded by placement node, idle workers
// steal). The coordinator (the thread inside Backend::drive) performs all engine
// mutations; workers only execute body snapshots and enqueue completion
// messages, so engine state needs no locking. Completions are drained in
// batches: one coordinator round-trip retires every message queued since
// the last one instead of one message per lock acquisition.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/steal_pool.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_annotations.hpp"

namespace chpo::rt {

class ThreadBackend : public Backend {
 public:
  explicit ThreadBackend(Engine& engine);

  /// Joins the worker pool before the mutex/condvar members are destroyed:
  /// a worker may still be inside cv_.notify_one() when drive returns,
  /// and default member-order destruction would tear the condvar down
  /// first (caught by TSan).
  ~ThreadBackend() override { pool_.reset(); }

  double now() const override { return clock_.elapsed_seconds(); }
  std::uint64_t steals() const override { return pool_ ? pool_->steals() : 0; }

 protected:
  /// Hands a body snapshot to the pool (workers read the registry
  /// directly, there is no staging to charge).
  void launch(const Dispatch& dispatch) override CHPO_REQUIRES(g_engine_ctx);
  bool in_flight() override CHPO_REQUIRES(g_engine_ctx) { return engine_.running_count() > 0; }
  void idle_until(double t) override;
  /// Waits on the completion queue until it is non-empty, the deadline or
  /// the engine's wakeup, then drains *everything* queued, so one
  /// coordinator round-trip retires the whole wave (one lock hold, one
  /// notification flush) instead of one message per lock acquisition.
  void collect(double deadline, std::optional<double> wake, std::vector<Finished>& out) override
      CHPO_REQUIRES(g_engine_ctx);

 private:
  /// StealPool sink: runs one body snapshot on a worker thread and queues
  /// the completion. A static function (not a capturing lambda) so the
  /// per-dispatch path never allocates a type-erased callable.
  static void run_job(void* ctx, StealPool::Job&& job);

  Stopwatch clock_;
  std::unique_ptr<StealPool> pool_;
  /// Guards the worker -> coordinator completion queue (the only state
  /// shared across threads on this backend; everything else is engine
  /// state confined to the coordinator via g_engine_ctx).
  Mutex mutex_{lockdep::kBackendCompletions};
  CondVar cv_;
  std::deque<Finished> completions_ CHPO_GUARDED_BY(mutex_);
};

}  // namespace chpo::rt
