// Fault-tolerance tests: the paper's retry policy ("try the same node,
// then restart on another node"), node deaths, and cascading cancellation.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"

namespace chpo::rt {
namespace {

RuntimeOptions sim_nodes(std::size_t nodes, unsigned cpus = 2) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "n";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(nodes, node);
  opts.simulate = true;
  return opts;
}

TaskDef timed(std::string name, double seconds) {
  TaskDef def;
  def.name = std::move(name);
  def.constraint = {.cpus = 1};
  def.body = [](TaskContext&) { return std::any(1); };
  def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
  return def;
}

TEST(FaultInjector, ForcedFailuresAreConsumed) {
  FaultInjector injector;
  injector.force_task_failures(5, 2);
  EXPECT_TRUE(injector.should_fail(5, 1));
  EXPECT_TRUE(injector.should_fail(5, 2));
  EXPECT_FALSE(injector.should_fail(5, 3));
  EXPECT_FALSE(injector.should_fail(6, 1));
}

TEST(FaultInjector, ProbabilisticFailuresRoughlyMatchRate) {
  FaultInjector injector(123, 0.25);
  int failures = 0;
  for (int i = 0; i < 4000; ++i)
    if (injector.should_fail(static_cast<TaskId>(i), 1)) ++failures;
  EXPECT_NEAR(failures / 4000.0, 0.25, 0.03);
}

TEST(FaultTolerance, FirstRetryStaysOnSameNode) {
  RuntimeOptions opts = sim_nodes(3);
  opts.injector.force_task_failures(0, 1);
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("retry_same", 10.0));
  runtime.wait_on(f);
  const auto spans = runtime.analyze().spans();
  ASSERT_EQ(spans.size(), 2u);  // failed attempt + successful retry
  EXPECT_EQ(spans[0].node, spans[1].node);
  EXPECT_EQ(spans[1].attempt, 2);
}

TEST(FaultTolerance, SecondRetryMovesToAnotherNode) {
  RuntimeOptions opts = sim_nodes(3);
  opts.injector.force_task_failures(0, 2);
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("retry_other", 10.0));
  runtime.wait_on(f);
  const auto spans = runtime.analyze().spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].node, spans[1].node);  // same-node retry first
  EXPECT_NE(spans[2].node, spans[0].node);  // then another node
}

TEST(FaultTolerance, RetriesConsumeVirtualTime) {
  RuntimeOptions opts = sim_nodes(2);
  opts.injector.force_task_failures(0, 2);
  Runtime runtime(std::move(opts));
  runtime.submit(timed("expensive_failures", 10.0));
  runtime.barrier();
  EXPECT_DOUBLE_EQ(runtime.analyze().makespan(), 30.0);  // three 10 s attempts
}

TEST(FaultTolerance, ExhaustedAttemptsFailTask) {
  RuntimeOptions opts = sim_nodes(2);
  opts.fault_policy.max_attempts = 2;
  opts.injector.force_task_failures(0, 5);
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("doomed", 1.0));
  EXPECT_THROW(runtime.wait_on(f), TaskFailedError);
}

TEST(FaultTolerance, NodeDeathReschedulesRunningTasks) {
  RuntimeOptions opts = sim_nodes(2, 1);
  opts.injector.schedule_node_failure(0, 5.0);  // mid-flight
  Runtime runtime(std::move(opts));
  const Future a = runtime.submit(timed("victim", 10.0));   // node 0
  const Future b = runtime.submit(timed("survivor", 10.0));  // node 1
  EXPECT_EQ(runtime.wait_on_as<int>(a), 1);  // still completes
  EXPECT_EQ(runtime.wait_on_as<int>(b), 1);
  const auto spans = runtime.analyze().spans();
  // Victim ran twice: killed at 5 s, restarted on node 1 after it frees.
  ASSERT_EQ(spans.size(), 3u);
  const auto& final_run = spans.back();
  EXPECT_EQ(final_run.node, 1);
  EXPECT_DOUBLE_EQ(runtime.analyze().makespan(), 20.0);
}

TEST(FaultTolerance, NodeDeathBeforeAnyWork) {
  RuntimeOptions opts = sim_nodes(2, 1);
  opts.injector.schedule_node_failure(0, 0.0);
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("displaced", 10.0));
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
}

TEST(FaultTolerance, AllNodesDeadFailsPendingTasks) {
  // One 2-core node: "killed" and "pre" start at t=0, and every 2-core task
  // queues behind them until the node dies at t=5. Both studies' queues,
  // the paused one included, then fail in StudyId order and, within a
  // study, in readiness order: "late" became ready at t=1, after the main
  // study's other queued tasks though its id is lower.
  RuntimeOptions opts = sim_nodes(1, 2);
  opts.injector.schedule_node_failure(0, 5.0);
  opts.fault_policy.max_attempts = 5;
  Runtime runtime(std::move(opts));
  StudySession primary = runtime.main_study();
  StudySession held = runtime.open_study({.name = "held"});
  held.pause();
  const auto wide = [](std::string name) {
    TaskDef def = timed(std::move(name), 10.0);
    def.constraint.cpus = 2;
    return def;
  };
  const Future running = primary.submit(timed("killed", 10.0));
  const Future pre = primary.submit(timed("pre", 1.0));
  const Future late = primary.submit(wide("late"), {{pre.data, Direction::In}});
  const Future held_a = held.submit(wide("held_a"));
  const Future queued = primary.submit(wide("never_started"));
  const Future held_b = held.submit(wide("held_b"));
  const Future queued_b = primary.submit(wide("never_started_b"));

  runtime.barrier();
  EXPECT_EQ(runtime.graph().task(pre.producer).state, TaskState::Done);
  const std::vector<Future> expected_order = {queued, queued_b, late, held_a, held_b};
  std::uint64_t previous_seq = 0;
  for (const Future& f : expected_order) {
    const TaskRecord& record = runtime.graph().task(f.producer);
    EXPECT_EQ(record.state, TaskState::Failed) << record.def.name;
    EXPECT_EQ(record.failure_reason, "no live node can satisfy the constraint") << record.def.name;
    EXPECT_GT(record.terminal_seq, previous_seq) << record.def.name;
    previous_seq = record.terminal_seq;
  }
  EXPECT_THROW(runtime.wait_on(running), TaskFailedError);
  EXPECT_THROW(runtime.wait_on(queued), TaskFailedError);
}

TEST(FaultTolerance, RetryWaitsForAScheduledRejoin) {
  // The only node dies at t=5 with its rejoin already scheduled for t=20.
  // The retry of the killed task fits nowhere until then, but capacity
  // that will return is not gone: it waits and reruns from t=20.
  RuntimeOptions opts = sim_nodes(1, 1);
  opts.injector.schedule_node_failure(0, 5.0);
  opts.injector.schedule_node_recovery(0, 20.0);
  opts.fault_policy.max_attempts = 5;
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("survivor", 10.0));
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  EXPECT_EQ(runtime.graph().task(f.producer).state, TaskState::Done);
  EXPECT_DOUBLE_EQ(runtime.now(), 30.0);
}

TEST(FaultTolerance, FailureDoesNotAffectIndependentTasks) {
  RuntimeOptions opts = sim_nodes(2);
  opts.fault_policy.max_attempts = 1;
  opts.injector.force_task_failures(0, 1);
  Runtime runtime(std::move(opts));
  const Future bad = runtime.submit(timed("bad", 5.0));
  std::vector<Future> good;
  for (int i = 0; i < 6; ++i) good.push_back(runtime.submit(timed("good", 5.0)));
  EXPECT_THROW(runtime.wait_on(bad), TaskFailedError);
  for (auto& f : good) EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
}

TEST(FaultTolerance, CascadingCancellation) {
  RuntimeOptions opts = sim_nodes(1);
  opts.fault_policy.max_attempts = 1;
  opts.injector.force_task_failures(0, 1);
  Runtime runtime(std::move(opts));
  const Future root = runtime.submit(timed("root", 1.0));
  TaskDef mid_def = timed("mid", 1.0);
  const Future mid = runtime.submit(mid_def, {{root.data, Direction::In}});
  TaskDef leaf_def = timed("leaf", 1.0);
  const Future leaf = runtime.submit(leaf_def, {{mid.data, Direction::In}});
  EXPECT_THROW(runtime.wait_on(leaf), TaskFailedError);
  EXPECT_THROW(runtime.wait_on(mid), TaskFailedError);
}

TEST(Timeout, SimKillsAttemptAtDeadlineAndRetries) {
  RuntimeOptions opts = sim_nodes(2);
  Runtime runtime(std::move(opts));
  TaskDef def = timed("slow", 100.0);
  def.timeout_seconds = 10.0;
  const Future f = runtime.submit(def);
  // Every attempt times out at 10 s; 3 attempts exhaust the policy.
  EXPECT_THROW(runtime.wait_on(f), TaskFailedError);
  EXPECT_DOUBLE_EQ(runtime.now(), 30.0);
  EXPECT_EQ(runtime.analyze().failure_count(), 3u);
}

TEST(Timeout, FastTaskUnaffected) {
  RuntimeOptions opts = sim_nodes(1);
  Runtime runtime(std::move(opts));
  TaskDef def = timed("fast", 5.0);
  def.timeout_seconds = 10.0;
  const Future f = runtime.submit(def);
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  EXPECT_DOUBLE_EQ(runtime.now(), 5.0);
}

TEST(Timeout, ThreadBackendReapsHungTaskInFlight) {
  // A deliberately hung (sleeping) body must be reaped at its deadline,
  // not when it happens to return: with a 1.5 s sleep and a 30 ms timeout,
  // the failure has to surface long before the body wakes up.
  RuntimeOptions opts = sim_nodes(1);
  opts.simulate = false;
  opts.fault_policy.max_attempts = 1;
  Runtime runtime(std::move(opts));
  TaskDef def;
  def.name = "sleepy";
  def.timeout_seconds = 0.03;
  def.body = [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    return std::any(1);
  };
  const Future f = runtime.submit(def);
  EXPECT_THROW(runtime.wait_on(f), TaskFailedError);
  EXPECT_LT(runtime.now(), 1.0);  // decided at the deadline, not post-hoc
  // The worker is still inside the body; shutdown must drain it cleanly
  // and drop its stale completion (covered by the runtime destructor).
}

TEST(Timeout, ThreadBackendRetriesWhileHungAttemptStillRuns) {
  // Reap-and-retry: attempt 1 hangs past its deadline, the retry runs (and
  // succeeds) while the hung body is *still sleeping* on its worker thread.
  RuntimeOptions opts = sim_nodes(1);  // 2 cpus: a free slot exists for the retry
  opts.simulate = false;
  Runtime runtime(std::move(opts));
  TaskDef def;
  def.name = "hung_once";
  def.timeout_seconds = 0.03;
  def.body = [](TaskContext& ctx) {
    if (ctx.attempt() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    return std::any(ctx.attempt());
  };
  const Future f = runtime.submit(def);
  EXPECT_EQ(runtime.wait_on_as<int>(f), 2);
  EXPECT_LT(runtime.now(), 1.0);  // did not wait for the hung attempt
  EXPECT_GE(runtime.analyze().failure_count(), 1u);
}

TEST(Backoff, RetriesWaitOutExponentialDelays) {
  // Failures at t=10 and t=21: the first retry waits base=1 s (same node),
  // the second waits 2 s (resubmitted elsewhere). All on the virtual clock.
  RuntimeOptions opts = sim_nodes(2);
  opts.fault_policy.backoff_base_seconds = 1.0;
  opts.injector.force_task_failures(0, 2);
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("flaky", 10.0));
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  // [0,10] fail, +1 s, [11,21] fail, +2 s, [23,33] success.
  EXPECT_DOUBLE_EQ(runtime.now(), 33.0);
  int backoffs = 0;
  for (const auto& e : runtime.trace().events())
    backoffs += e.kind == trace::EventKind::Backoff;
  EXPECT_EQ(backoffs, 2);
}

TEST(Backoff, CancelDuringDelayWins) {
  // A task sitting out its backoff delay holds no resources and can be
  // cancelled before the retry ever launches.
  RuntimeOptions opts = sim_nodes(1);
  opts.fault_policy.backoff_base_seconds = 50.0;
  opts.injector.force_task_failures(0, 1);
  Runtime runtime(std::move(opts));
  const Future f = runtime.submit(timed("delayed", 10.0));
  EXPECT_FALSE(runtime.wait_all_for(20.0));  // failed at 10, retry due at 60
  EXPECT_TRUE(runtime.cancel(f));
  EXPECT_THROW(runtime.wait_on(f), TaskFailedError);
  EXPECT_LT(runtime.now(), 60.0);  // never waited for the delayed retry
}

TEST(Speculation, DuplicateAttemptRescuesStraggler) {
  // Three 10 s siblings establish the baseline; the fourth is stuck on a
  // node where it would take 500 s. At 2x the 0.75-quantile (t=20) a
  // duplicate lands on the other node and wins at t=30.
  RuntimeOptions opts = sim_nodes(2);
  opts.speculation.enabled = true;
  opts.speculation.min_observations = 3;
  opts.speculation.straggler_multiplier = 2.0;
  Runtime runtime(std::move(opts));
  TaskDef straggler = timed("job", 10.0);
  straggler.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.node == 0 ? 500.0 : 10.0;
  };
  const Future slow = runtime.submit(straggler);  // first-fit: node 0
  std::vector<Future> fast;
  for (int i = 0; i < 3; ++i) fast.push_back(runtime.submit(timed("job", 10.0)));
  runtime.barrier();
  EXPECT_DOUBLE_EQ(runtime.now(), 30.0);
  EXPECT_EQ(runtime.wait_on_as<int>(slow), 1);
  int detected = 0, launched = 0, won = 0;
  for (const auto& e : runtime.trace().events()) {
    detected += e.kind == trace::EventKind::StragglerDetected;
    launched += e.kind == trace::EventKind::SpeculativeLaunch;
    won += e.kind == trace::EventKind::SpeculativeWin;
  }
  EXPECT_EQ(detected, 1);
  EXPECT_EQ(launched, 1);
  EXPECT_EQ(won, 1);
}

TEST(Speculation, OriginalWinsAndLoserIsDiscarded) {
  // The straggler recovers on its own at t=25, before its duplicate (due
  // t=30) finishes: first terminal attempt wins, the duplicate's result is
  // discarded through the abandon-on-finish path.
  RuntimeOptions opts = sim_nodes(2);
  opts.speculation.enabled = true;
  opts.speculation.min_observations = 3;
  opts.speculation.straggler_multiplier = 2.0;
  Runtime runtime(std::move(opts));
  TaskDef straggler = timed("job", 10.0);
  straggler.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.node == 0 ? 25.0 : 10.0;
  };
  const Future slow = runtime.submit(straggler);
  for (int i = 0; i < 3; ++i) runtime.submit(timed("job", 10.0));
  runtime.barrier();
  EXPECT_DOUBLE_EQ(runtime.now(), 25.0);
  EXPECT_EQ(runtime.wait_on_as<int>(slow), 1);
  int launched = 0, won = 0;
  for (const auto& e : runtime.trace().events()) {
    launched += e.kind == trace::EventKind::SpeculativeLaunch;
    won += e.kind == trace::EventKind::SpeculativeWin;
  }
  EXPECT_EQ(launched, 1);
  EXPECT_EQ(won, 0);  // the original landed first
}

TEST(Speculation, AdaptiveTimeoutKillsUnboundedAttempt) {
  // No TaskDef timeout, but adaptive_timeout_multiplier=4 kills attempts
  // at 4x the observed quantile. The straggler's attempts keep timing out
  // until the policy exhausts (its cost on every node is 500 s).
  RuntimeOptions opts = sim_nodes(2);
  opts.speculation.enabled = true;
  opts.speculation.min_observations = 3;
  opts.speculation.adaptive_timeout_multiplier = 4.0;
  opts.speculation.max_duplicates = 0;   // isolate the timeout mechanism
  opts.fault_policy.max_attempts = 2;    // both attempts hit the 40 s deadline
  Runtime runtime(std::move(opts));
  // Stuck tasks need a whole node, so the second one can only dispatch
  // after every fast sibling has finished — by then the 3-sample baseline
  // (10 s) exists and the attempt gets a 4x10 = 40 s adaptive deadline.
  TaskDef stuck = timed("job", 500.0);
  stuck.constraint = {.cpus = 2};
  const Future f = runtime.submit(stuck);  // no baseline yet: runs the full 500 s
  for (int i = 0; i < 3; ++i) runtime.submit(timed("job", 10.0));
  runtime.submit(stuck);  // queued behind; every attempt times out at 40 s
  runtime.barrier();
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  EXPECT_GE(runtime.analyze().failure_count(), 1u);
  bool timed_out = false;
  for (const auto& e : runtime.trace().events())
    timed_out = timed_out || (e.kind == trace::EventKind::TaskFailure && e.task_id == 4);
  EXPECT_TRUE(timed_out);
  EXPECT_THROW(runtime.wait_on(runtime.graph().task(4).result), TaskFailedError);
}

TEST(FaultTolerance, ThreadBackendNodeExclusionWorksToo) {
  // Forced failures on the threaded backend follow the same policy.
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 2;
  opts.cluster = cluster::homogeneous(2, node);
  opts.injector.force_task_failures(0, 2);
  Runtime runtime(std::move(opts));
  TaskDef def;
  def.name = "which_node";
  def.body = [](TaskContext& ctx) { return std::any(ctx.node()); };
  const Future f = runtime.submit(def);
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);  // third attempt excluded node 0
}

}  // namespace
}  // namespace chpo::rt
