// Completion-driven runtime API: the tracked-completion queue (track /
// next_completion), wait_all_for, cancel and per-submit completion
// callbacks, on both backends.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"

namespace chpo::rt {
namespace {

RuntimeOptions sim_cluster(std::size_t nodes = 1, unsigned cpus = 4) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "sim";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(nodes, node);
  opts.simulate = true;
  return opts;
}

RuntimeOptions thread_cluster(unsigned cpus = 4) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "t";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(1, node);
  return opts;
}

TaskDef timed(std::string name, double seconds, Constraint c = {.cpus = 1}) {
  TaskDef def;
  def.name = std::move(name);
  def.constraint = c;
  def.body = [](TaskContext&) { return std::any(1); };
  def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
  return def;
}

/// Track every future in `futures`, in order.
void track_all(Runtime& runtime, const std::vector<Future>& futures) {
  for (const Future& f : futures) runtime.track(f);
}

std::size_t wait_any_events(const Runtime& runtime) {
  std::size_t n = 0;
  for (const auto& e : runtime.trace().events())
    if (e.kind == trace::EventKind::WaitAny) ++n;
  return n;
}

TEST(NextCompletion, SimReturnsCompletionsOutOfSubmissionOrder) {
  // Skewed durations, submitted longest-first: the tracked queue must hand
  // them back shortest-first (completion order), not submission order.
  Runtime runtime(sim_cluster(1, 4));
  std::vector<Future> futures;
  for (const double seconds : {40.0, 30.0, 20.0, 10.0})
    futures.push_back(runtime.submit(timed("skew", seconds)));
  track_all(runtime, futures);

  std::vector<TaskId> completion_order;
  for (std::size_t i = 0; i < futures.size(); ++i)
    completion_order.push_back(runtime.next_completion().producer);
  // Reverse submission order: the 10s task (submitted last) finishes first.
  const std::vector<TaskId> expected{futures[3].producer, futures[2].producer,
                                     futures[1].producer, futures[0].producer};
  EXPECT_EQ(completion_order, expected);
  EXPECT_DOUBLE_EQ(runtime.now(), 40.0);
  // The sync pattern is visible in the trace.
  EXPECT_EQ(wait_any_events(runtime), 4u);
}

TEST(NextCompletion, SimStopsTheClockAtFirstCompletion) {
  Runtime runtime(sim_cluster(1, 4));
  const Future slow = runtime.submit(timed("slow", 100.0));
  const Future fast = runtime.submit(timed("fast", 5.0));
  track_all(runtime, {slow, fast});
  EXPECT_EQ(runtime.next_completion().producer, fast.producer);
  EXPECT_DOUBLE_EQ(runtime.now(), 5.0);  // did not wait for the 100s task
}

TEST(NextCompletion, ThreadBackendReturnsFastTaskFirst) {
  Runtime runtime(thread_cluster());
  TaskDef slow;
  slow.name = "slow";
  slow.body = [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return std::any(1);
  };
  TaskDef fast;
  fast.name = "fast";
  fast.body = [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return std::any(2);
  };
  const Future f_slow = runtime.submit(slow);
  const Future f_fast = runtime.submit(fast);
  track_all(runtime, {f_slow, f_fast});
  const Future first = runtime.next_completion();
  EXPECT_EQ(first.producer, f_fast.producer);
  EXPECT_EQ(runtime.wait_on_as<int>(first), 2);
}

TEST(NextCompletion, FailedTaskCountsAsCompletion) {
  RuntimeOptions opts = sim_cluster(1, 2);
  opts.fault_policy.max_attempts = 1;
  Runtime runtime(std::move(opts));
  TaskDef boom = timed("boom", 1.0);
  boom.body = [](TaskContext&) -> std::any { throw std::runtime_error("kaput"); };
  const Future ok = runtime.submit(timed("ok", 50.0));
  const Future bad = runtime.submit(boom);
  track_all(runtime, {ok, bad});
  const Future first = runtime.next_completion();
  EXPECT_EQ(first.producer, bad.producer);  // next_completion itself does not throw
  EXPECT_THROW(runtime.wait_on(first), TaskFailedError);
}

TEST(NextCompletion, ThrowsWhenNothingIsTracked) {
  Runtime runtime(sim_cluster());
  EXPECT_THROW(runtime.next_completion(), std::invalid_argument);
  EXPECT_THROW(runtime.track(Future{}), std::invalid_argument);
  // Submitted but never tracked: still nothing to wait for.
  const Future f = runtime.submit(timed("untracked", 1.0));
  EXPECT_THROW(runtime.next_completion(), std::invalid_argument);
  // Delivered tasks leave the queue.
  runtime.track(f);
  EXPECT_EQ(runtime.next_completion().producer, f.producer);
  EXPECT_THROW(runtime.next_completion(), std::invalid_argument);
}

TEST(Cancel, PendingTaskCancelsWithoutTouchingResources) {
  // One core: `running` occupies it, `pending` queues behind it, and
  // `dependent` consumes pending's future.
  Runtime runtime(sim_cluster(1, 1));
  const Future running = runtime.submit(timed("running", 20.0));
  const Future pending = runtime.submit(timed("pending", 5.0));
  const Future dependent =
      runtime.submit(timed("dependent", 5.0), {{pending.data, Direction::In}});

  // Make sure `running` actually started (clock moves, nothing finished).
  EXPECT_FALSE(runtime.wait_all_for(1.0));

  EXPECT_TRUE(runtime.cancel(pending));
  EXPECT_FALSE(runtime.cancel(pending));  // already terminal now
  runtime.barrier();

  // The cancelled task and its dependent never ran; the running task was
  // untouched and the cluster finished at its duration — no resources were
  // held or leaked by the cancelled pair.
  EXPECT_EQ(runtime.graph().task(pending.producer).state, TaskState::Cancelled);
  EXPECT_EQ(runtime.graph().task(dependent.producer).state, TaskState::Cancelled);
  EXPECT_EQ(runtime.graph().task(running.producer).state, TaskState::Done);
  EXPECT_DOUBLE_EQ(runtime.now(), 20.0);
  EXPECT_THROW(runtime.wait_on(pending), TaskFailedError);
  EXPECT_THROW(runtime.wait_on(dependent), TaskFailedError);

  // The freed slot is immediately usable by new work.
  const Future after = runtime.submit(timed("after", 3.0));
  EXPECT_EQ(runtime.wait_on_as<int>(after), 1);
}

TEST(Cancel, RunningTaskIsAbandonedOnFinish) {
  Runtime runtime(sim_cluster(1, 1));
  const Future f = runtime.submit(timed("doomed", 50.0));
  EXPECT_FALSE(runtime.wait_all_for(10.0));  // task is now mid-attempt
  EXPECT_TRUE(runtime.cancel(f));
  runtime.barrier();
  // The attempt ran to its end (resources held until then) but the result
  // was discarded and the task ended Cancelled, not Done.
  EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Cancelled);
  EXPECT_DOUBLE_EQ(runtime.now(), 50.0);
  EXPECT_THROW(runtime.wait_on(f), TaskFailedError);
}

TEST(Cancel, SecondCancelOfRunningTaskReturnsFalse) {
  Runtime runtime(sim_cluster(1, 1));
  const Future f = runtime.submit(timed("doomed", 50.0));
  EXPECT_FALSE(runtime.wait_all_for(10.0));  // attempt in flight
  EXPECT_TRUE(runtime.cancel(f));
  // Abandoned but not yet terminal: a repeat cancel is a no-op, not a
  // second success, and records no second Cancel event.
  EXPECT_FALSE(runtime.cancel(f));
  runtime.barrier();
  EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Cancelled);
  std::size_t cancel_events = 0;
  for (const auto& e : runtime.trace().events())
    if (e.kind == trace::EventKind::Cancel) ++cancel_events;
  EXPECT_EQ(cancel_events, 1u);
}

TEST(Cancel, DependentSubmittedWhileCancelledAttemptRunsIsCancelled) {
  // The consumer arrives after the cancel but before the abandoned attempt
  // lands: the producer's output will never be committed, so the attempt's
  // end must doom the consumer instead of leaving it waiting for good.
  Runtime runtime(sim_cluster(1, 4));
  const Future producer = runtime.submit(timed("doomed", 5.0));
  EXPECT_FALSE(runtime.wait_all_for(1.0));  // attempt in flight
  EXPECT_TRUE(runtime.cancel(producer));
  const Future consumer = runtime.submit(timed("consumer", 1.0), {{producer.data, Direction::In}});
  runtime.barrier();
  EXPECT_EQ(runtime.graph().task(producer.producer).state, TaskState::Cancelled);
  EXPECT_EQ(runtime.graph().task(consumer.producer).state, TaskState::Cancelled);
  EXPECT_THROW(runtime.wait_on(consumer), TaskFailedError);
}

TEST(Cancel, TerminalTaskReturnsFalse) {
  Runtime runtime(sim_cluster());
  const Future f = runtime.submit(timed("t", 1.0));
  runtime.barrier();
  EXPECT_FALSE(runtime.cancel(f));
  EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Done);
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);  // result survives a late cancel
}

TEST(WaitAllFor, AdvancesExactlyToTheDeadline) {
  Runtime runtime(sim_cluster(1, 4));
  for (int i = 0; i < 3; ++i) runtime.submit(timed("w", 100.0));
  EXPECT_FALSE(runtime.wait_all_for(30.0));
  EXPECT_DOUBLE_EQ(runtime.now(), 30.0);
  EXPECT_TRUE(runtime.wait_all_for(1000.0));
  EXPECT_DOUBLE_EQ(runtime.now(), 100.0);
}

TEST(WaitAllFor, ZeroBudgetStartsNoWorkOnBothBackends) {
  // An already-expired deadline must not dispatch new tasks: the drive loop
  // checks its deadline before the scheduling round, for wait_all_for and
  // a bounded next_completion alike.
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    Runtime runtime(simulate ? sim_cluster(1, 4) : thread_cluster(2));
    const Future f = runtime.submit(timed("w", 10.0));
    EXPECT_FALSE(runtime.wait_all_for(0.0));
    runtime.track(f);
    EXPECT_EQ(runtime.next_completion(runtime.now()).producer, kNoTask);
    if (simulate) {
      EXPECT_DOUBLE_EQ(runtime.now(), 0.0);
    }
    EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Ready);
    std::size_t scheduled = 0;
    for (const auto& e : runtime.trace().events())
      if (e.kind == trace::EventKind::TaskSchedule) ++scheduled;
    EXPECT_EQ(scheduled, 0u);
  }
}

TEST(WaitAllFor, ThreadBackendHonoursWallDeadline) {
  Runtime runtime(thread_cluster(2));
  TaskDef sleepy;
  sleepy.name = "sleepy";
  sleepy.body = [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return std::any(1);
  };
  runtime.submit(sleepy);
  EXPECT_FALSE(runtime.wait_all_for(0.02));
  EXPECT_TRUE(runtime.wait_all_for(30.0));
}

TEST(NextCompletion, PausedOnlyStudyTimesOutOnBothBackends) {
  // The only outstanding task is held by a paused study: nothing runs and
  // nothing can be placed. A bounded wait must time out with an empty
  // future (the daemon's step slice relies on it), not report a deadlock.
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    Runtime runtime(simulate ? sim_cluster(1, 4) : thread_cluster(2));
    StudySession held = runtime.open_study({.name = "held"});
    held.pause();
    const Future f = held.submit(timed("held", 1.0));
    held.track(f);
    const double before = runtime.now();
    EXPECT_EQ(held.next_completion(before + 0.05).producer, kNoTask);
    EXPECT_GE(runtime.now() - before, 0.05 - 1e-9);
    EXPECT_EQ(held.progress().ready, 1u);
    held.resume();
    EXPECT_EQ(held.next_completion(runtime.now() + 30.0).producer, f.producer);
  }
}

TEST(Deadlock, UnboundedWaitOnPausedOnlyStudyThrowsOnBothBackends) {
  // The only task is held by a paused study and nothing else is pending:
  // an unbounded wait can never finish, so both backends leave the one
  // drive loop through the same deadlock error instead of blocking.
  std::vector<std::string> messages;
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    Runtime runtime(simulate ? sim_cluster(1, 4) : thread_cluster(2));
    StudySession held = runtime.open_study({.name = "held"});
    held.pause();
    const Future f = held.submit(timed("held", 1.0));
    try {
      runtime.wait_on(f);
      ADD_FAILURE() << "wait_on returned";
    } catch (const std::runtime_error& e) {
      messages.emplace_back(e.what());
    }
    runtime.track(f);
    EXPECT_THROW(runtime.next_completion(), std::runtime_error);
    EXPECT_EQ(held.progress().ready, 1u);
    held.resume();
    EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("no task can run"), std::string::npos) << messages[0];
}

TEST(Callbacks, FireOnCompletionWithFinalState) {
  Runtime runtime(sim_cluster(1, 4));
  std::vector<std::pair<TaskId, TaskState>> seen;
  for (const double seconds : {30.0, 10.0, 20.0})
    runtime.submit(timed("cb", seconds), {},
                   [&seen](const Future& f, TaskState s) { seen.emplace_back(f.producer, s); });
  runtime.barrier();
  ASSERT_EQ(seen.size(), 3u);
  for (const auto& [task, state] : seen) EXPECT_EQ(state, TaskState::Done);
  // Callbacks fired in completion order: 10s, 20s, 30s.
  EXPECT_EQ(seen[0].first, TaskId{1});
  EXPECT_EQ(seen[1].first, TaskId{2});
  EXPECT_EQ(seen[2].first, TaskId{0});
}

TEST(Callbacks, CancelledPendingTaskStillNotifies) {
  Runtime runtime(sim_cluster(1, 1));
  runtime.submit(timed("running", 20.0));
  bool fired = false;
  TaskState reported = TaskState::Running;
  const Future pending = runtime.submit(timed("pending", 5.0), {},
                                        [&](const Future&, TaskState s) {
                                          fired = true;
                                          reported = s;
                                        });
  runtime.cancel(pending);
  EXPECT_TRUE(fired);  // fired synchronously inside cancel()
  EXPECT_EQ(reported, TaskState::Cancelled);
}

TEST(Callbacks, ThreadBackendRunsCallbackOnCoordinator) {
  Runtime runtime(thread_cluster());
  std::vector<int> values;
  TaskDef def;
  def.name = "v";
  def.body = [](TaskContext&) { return std::any(41); };
  const Future f = runtime.submit(def, {}, [&](const Future& future, TaskState s) {
    ASSERT_EQ(s, TaskState::Done);
    values.push_back(1);
    (void)future;
  });
  runtime.barrier();
  EXPECT_EQ(values.size(), 1u);
  EXPECT_EQ(runtime.wait_on_as<int>(f), 41);
}

TEST(Callbacks, CallbackMaySubmitFollowUpWork) {
  // A completion callback submitting enough tasks to reallocate the
  // graph's record storage must not disturb the completion machinery that
  // fired it (regression: callbacks used to run inside engine mutation
  // paths holding TaskRecord references).
  Runtime runtime(sim_cluster(1, 4));
  std::vector<Future> spawned;
  const Future root = runtime.submit(timed("root", 5.0), {},
                                     [&](const Future& f, TaskState s) {
                                       EXPECT_EQ(s, TaskState::Done);
                                       EXPECT_NE(f.producer, kNoTask);
                                       for (int i = 0; i < 64; ++i)
                                         spawned.push_back(runtime.submit(timed("child", 1.0)));
                                     });
  // A dependent, so completing `root` walks its successor list.
  const Future dependent =
      runtime.submit(timed("dependent", 1.0), {{root.data, Direction::In}});
  runtime.barrier();
  ASSERT_EQ(spawned.size(), 64u);
  for (const Future& f : spawned)
    EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Done);
  EXPECT_EQ(runtime.graph().task(dependent.producer).state, TaskState::Done);
}

TEST(Callbacks, CallbackCancelsPendingWorkMidBarrier) {
  // Early-stop shape: the first finisher's callback cancels everything
  // still queued, and the barrier returns without running it.
  Runtime runtime(sim_cluster(1, 1));
  std::vector<Future> slow;
  runtime.submit(timed("fast", 5.0), {}, [&](const Future&, TaskState) {
    for (const Future& f : slow) runtime.cancel(f);
  });
  for (int i = 0; i < 3; ++i) slow.push_back(runtime.submit(timed("slow", 100.0)));
  runtime.barrier();
  EXPECT_DOUBLE_EQ(runtime.now(), 5.0);
  for (const Future& f : slow)
    EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Cancelled);
}

// ---------------------------------------------------------------------------
// Tracked-completion queue (track / next_completion), both backends
// ---------------------------------------------------------------------------

Runtime backend(bool simulate, unsigned cpus) {
  return Runtime(simulate ? sim_cluster(1, cpus) : thread_cluster(cpus));
}

/// A task lasting `units`: virtual seconds of cost on the simulator and
/// units x 40 ms of wall time on threads, so both backends finish a set of
/// such tasks in the same order.
TaskDef lasting(std::string name, int units) {
  TaskDef def = timed(std::move(name), units);
  def.body = [units](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40 * units));
    return std::any(1);
  };
  return def;
}

TEST(Completions, TrackedQueueDeliversTwoStudiesInTerminalOrder) {
  for (const bool simulate : {false, true}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    Runtime runtime = backend(simulate, 4);
    StudySession a = runtime.open_study({.name = "a"});
    StudySession b = runtime.open_study({.name = "b"});
    const Future a_slow = a.submit(lasting("a_slow", 5));
    const Future b_mid = b.submit(lasting("b_mid", 3));
    const Future a_fast = a.submit(lasting("a_fast", 1));
    a.submit(lasting("helper", 2));  // untracked: never delivered
    for (const Future& f : {a_slow, b_mid, a_fast}) runtime.track(f);

    // Either session pops the one runtime-wide queue.
    std::vector<TaskId> order;
    for (int i = 0; i < 3; ++i) order.push_back(b.next_completion().producer);
    EXPECT_EQ(order, (std::vector<TaskId>{a_fast.producer, b_mid.producer, a_slow.producer}));
    for (const TaskId t : order) EXPECT_TRUE(runtime.graph().task(t).synced);
    EXPECT_EQ(wait_any_events(runtime), 3u);
    EXPECT_THROW(runtime.next_completion(), std::invalid_argument);  // nothing tracked
  }
}

TEST(Completions, TrackedQueueDeliversATaskTrackedAfterItTurnedTerminal) {
  for (const bool simulate : {false, true}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    Runtime runtime = backend(simulate, 4);
    const Future early = runtime.submit(lasting("early", 1));
    const Future late = runtime.submit(lasting("late", 3));
    runtime.track(late);
    runtime.barrier();
    // Tracked after it turned terminal: appended at once, behind `late`.
    runtime.track(early);
    EXPECT_EQ(runtime.next_completion().producer, late.producer);
    EXPECT_EQ(runtime.next_completion().producer, early.producer);

    // Doomed at submission (no node has 64 cpus): terminal before track.
    const Future infeasible = runtime.submit(timed("infeasible", 1.0, {.cpus = 64}));
    EXPECT_NE(runtime.graph().task(infeasible.producer).terminal_seq, 0u);
    runtime.track(infeasible);
    EXPECT_EQ(runtime.next_completion().producer, infeasible.producer);
  }
}

TEST(Completions, TrackedQueueNeverDeliversACancelledTask) {
  for (const bool simulate : {false, true}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    // Two slots: `finished` and `running` start at once; `pending` and
    // `keeper` wait for a slot.
    Runtime runtime = backend(simulate, 2);
    const Future finished = runtime.submit(lasting("finished", 1));
    const Future running = runtime.submit(lasting("running", 8));
    const Future pending = runtime.submit(lasting("pending", 1));
    const Future keeper = runtime.submit(lasting("keeper", 2));
    for (const Future& f : {finished, running, pending, keeper}) runtime.track(f);

    EXPECT_TRUE(runtime.cancel(pending));  // still pending
    runtime.wait_on(finished);             // terminal, not yet delivered
    EXPECT_FALSE(runtime.cancel(finished));
    EXPECT_TRUE(runtime.cancel(running));  // abandon-on-finish

    EXPECT_EQ(runtime.next_completion().producer, keeper.producer);
    // The abandoned attempt is still running, but nobody waits for it.
    if (simulate) {
      EXPECT_DOUBLE_EQ(runtime.now(), 3.0);
    }
    EXPECT_EQ(runtime.graph().task(running.producer).state, TaskState::Running);
    EXPECT_THROW(runtime.next_completion(), std::invalid_argument);
    runtime.barrier();
    EXPECT_EQ(runtime.graph().task(running.producer).state, TaskState::Cancelled);
  }
}

TEST(Completions, TrackedQueueTimeoutReturnsEmptyAndRecordsNoWaitAny) {
  for (const bool simulate : {false, true}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    Runtime runtime = backend(simulate, 4);
    const Future f = runtime.submit(lasting("long", 4));
    runtime.track(f);
    const Future none = runtime.next_completion(runtime.now() + (simulate ? 1.0 : 0.02));
    EXPECT_EQ(none.producer, kNoTask);
    EXPECT_EQ(wait_any_events(runtime), 0u);
    EXPECT_FALSE(runtime.graph().task(f.producer).synced);
    EXPECT_EQ(runtime.next_completion().producer, f.producer);  // still tracked
    EXPECT_EQ(wait_any_events(runtime), 1u);
  }
}

}  // namespace
}  // namespace chpo::rt
