// Sharded work-stealing executor for the threaded backend's dispatch path.
//
// A single-queue pool funnels every job through one mutex-guarded deque and
// a std::function allocation per submit; under a task storm that single lock
// and those per-dispatch allocations dominate the hot path. StealPool keeps
// one queue per worker — dispatches shard by placement node, so a node's
// tasks land together — and lets an idle worker steal from the back of any
// other queue. The common case is an uncontended push and pop on distinct
// mutexes, and the job payload is a plain struct moved through a function
// pointer sink: no type-erased callable is allocated per dispatch
// (enforced by chpo_lint's hot-path-std-function rule).
//
// Queue ownership protocol (see DESIGN.md "Scheduling"): the coordinator is
// the only producer; the owning worker consumes its queue front (oldest
// first), thieves take the back (newest first), so the contended ends stay
// apart. Stealing is always legal once a job is queued — by then the engine
// has already registered the attempt and charged the owning study, so *who*
// runs the body never affects fair-share, pause, or quota decisions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/types.hpp"
#include "support/thread_annotations.hpp"

namespace chpo::rt {

class StealPool {
 public:
  /// One dispatched attempt, snapshotted on the coordinator: everything a
  /// worker needs to run the body without touching engine state.
  struct Job {
    Engine::BodyJob body;
    Placement placement;
    std::uint64_t attempt_id = 0;
    double start = 0.0;
  };

  /// Jobs are handed to `sink(ctx, job)` on a worker thread. A plain
  /// function pointer keeps the per-dispatch path allocation-free.
  using Sink = void (*)(void* ctx, Job&& job);

  StealPool(std::size_t num_workers, Sink sink, void* ctx);
  StealPool(const StealPool&) = delete;
  StealPool& operator=(const StealPool&) = delete;

  /// Lets workers drain every queue, then joins them.
  ~StealPool();

  /// Enqueue a job on the shard owning its placement node (coordinator
  /// only).
  void submit(Job job);

  /// Jobs taken from another worker's queue so far.
  std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  std::size_t size() const { return workers_.size(); }

 private:
  /// One worker's deque. Heap-allocated so the Mutex address is stable
  /// across the owning vector's growth.
  struct WorkerQueue {
    Mutex mutex{lockdep::kStealShard};
    std::deque<Job> jobs CHPO_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t self) CHPO_EXCLUDES(park_mutex_);

  Sink sink_;
  void* ctx_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> steals_{0};

  /// Park protocol: a worker snapshots work_epoch_ *before* scanning every
  /// queue, and a submit bumps the epoch *after* pushing. A fruitless scan
  /// only parks while the epoch is unchanged, so a push that lands between
  /// scan and park always prevents (or ends) the wait — no missed wakeup.
  Mutex park_mutex_{lockdep::kStealPark};
  CondVar park_cv_;
  std::uint64_t work_epoch_ CHPO_GUARDED_BY(park_mutex_) = 0;
  bool stopping_ CHPO_GUARDED_BY(park_mutex_) = false;
};

}  // namespace chpo::rt
