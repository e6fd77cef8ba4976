// Study-session and StudyManager tests: per-study task tagging and
// completion routing, cancellation isolation, engine fair-share/quota/
// pause at the scheduler seam, cooperative multi-study runs with
// different algorithms on both backends, kill mid-rung, early stop with
// finished-but-unrouted trials, pause/resume and crash-resume
// determinism, two-study isolation under fault injection (the chaos face
// of the multi-study contract), and a pinned hash of seeded
// manager-driven simulator schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "hpo/report.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"
#include "service/study_manager.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace chpo {
namespace {

rt::RuntimeOptions small_cluster(bool simulate, unsigned cpus = 4, std::size_t nodes = 2) {
  rt::RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "n";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(nodes, node);
  opts.simulate = simulate;
  return opts;
}

rt::TaskDef noop_task(double sim_cost = 1.0) {
  rt::TaskDef def;
  def.name = "noop";
  def.body = [](rt::TaskContext&) -> std::any { return 0; };
  def.cost = [sim_cost](const rt::Placement&, const cluster::NodeSpec&) { return sim_cost; };
  return def;
}

hpo::SearchSpace tiny_space() {
  return hpo::SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [2, 3],
    "batch_size": [16, 32]
  })");
}

// ---------------------------------------------------------------------------
// Session-level tagging, routing, isolation
// ---------------------------------------------------------------------------

TEST(StudySession, TasksCarryTheirStudyTagAndCompletionsRoutePerStudy) {
  for (const bool simulate : {false, true}) {
    rt::Runtime runtime(small_cluster(simulate));
    rt::StudySession a = runtime.open_study({.name = "alpha"});
    rt::StudySession b = runtime.open_study({.name = "beta"});
    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(a.name(), "alpha");

    std::vector<rt::Future> a_tasks, b_tasks;
    for (int i = 0; i < 3; ++i) a_tasks.push_back(a.submit(noop_task()));
    for (int i = 0; i < 2; ++i) b_tasks.push_back(b.submit(noop_task()));
    for (const rt::Future& f : a_tasks) a.track(f);
    for (const rt::Future& f : b_tasks) b.track(f);

    for (const rt::Future& f : a_tasks) EXPECT_EQ(runtime.graph().task(f.producer).study, a.id());
    for (const rt::Future& f : b_tasks) EXPECT_EQ(runtime.graph().task(f.producer).study, b.id());

    // One queue for the whole runtime; the study tag routes each entry.
    std::map<rt::StudyId, std::vector<rt::TaskId>> done;
    for (int i = 0; i < 5; ++i) {
      const rt::TaskId t = a.next_completion().producer;
      done[runtime.graph().task(t).study].push_back(t);
    }
    EXPECT_EQ(done[a.id()].size(), 3u);
    EXPECT_EQ(done[b.id()].size(), 2u);
    for (const rt::TaskId t : done[a.id()]) EXPECT_EQ(runtime.graph().task(t).study, a.id());
    for (const rt::TaskId t : done[b.id()]) EXPECT_EQ(runtime.graph().task(t).study, b.id());
  }
}

TEST(StudySession, CancelAllTearsDownExactlyOneStudy) {
  for (const bool simulate : {false, true}) {
    rt::Runtime runtime(small_cluster(simulate, /*cpus=*/1, /*nodes=*/1));
    rt::StudySession a = runtime.open_study({.name = "doomed"});
    rt::StudySession b = runtime.open_study({.name = "survivor"});

    // One slot: most of these stay Ready, so cancel_all has work to do.
    std::vector<rt::Future> a_tasks, b_tasks;
    for (int i = 0; i < 4; ++i) a_tasks.push_back(a.submit(noop_task()));
    for (int i = 0; i < 4; ++i) b_tasks.push_back(b.submit(noop_task()));

    const std::size_t cancelled = a.cancel_all();
    EXPECT_GT(cancelled, 0u);
    b.barrier();
    a.barrier();  // cancelled tasks are terminal too

    for (const rt::Future& f : b_tasks)
      EXPECT_EQ(runtime.graph().task(f.producer).state, rt::TaskState::Done)
          << "neighbour study lost task " << f.producer << " to a foreign cancel";
    std::size_t a_cancelled = 0;
    for (const rt::Future& f : a_tasks)
      if (runtime.graph().task(f.producer).state == rt::TaskState::Cancelled) ++a_cancelled;
    EXPECT_EQ(a_cancelled, cancelled);
    EXPECT_EQ(runtime.lineage_violations(), 0u);
  }
}

TEST(StudySession, PauseHoldsReadyTasksUntilResume) {
  rt::Runtime runtime(small_cluster(/*simulate=*/true));
  rt::StudySession held = runtime.open_study({.name = "held"});
  rt::StudySession flow = runtime.open_study({.name = "flow"});

  held.pause();
  EXPECT_TRUE(held.paused());
  const rt::Future parked = held.submit(noop_task());
  const rt::Future runs = flow.submit(noop_task());
  flow.barrier();

  EXPECT_EQ(runtime.graph().task(runs.producer).state, rt::TaskState::Done);
  EXPECT_EQ(runtime.graph().task(parked.producer).state, rt::TaskState::Ready)
      << "paused study's task was scheduled anyway";

  held.resume();
  held.barrier();
  EXPECT_EQ(runtime.graph().task(parked.producer).state, rt::TaskState::Done);
}

TEST(StudySession, FairShareWeightsSkewScheduling) {
  // One slot, weights 3:1 — the engine's weighted-deficit interleave must
  // grant the heavy study roughly three grants per light-study grant.
  rt::Runtime runtime(small_cluster(/*simulate=*/true, /*cpus=*/1, /*nodes=*/1));
  rt::StudySession heavy = runtime.open_study({.name = "heavy", .weight = 3.0});
  rt::StudySession light = runtime.open_study({.name = "light", .weight = 1.0});
  for (int i = 0; i < 8; ++i) heavy.submit(noop_task());
  for (int i = 0; i < 8; ++i) light.submit(noop_task());
  heavy.barrier();
  light.barrier();

  std::vector<rt::StudyId> schedule_order;
  for (const trace::Event& e : runtime.trace().events())
    if (e.kind == trace::EventKind::TaskSchedule) schedule_order.push_back(e.study);
  ASSERT_EQ(schedule_order.size(), 16u);
  const auto heavy_in_first8 = static_cast<std::size_t>(
      std::count(schedule_order.begin(), schedule_order.begin() + 8, heavy.id()));
  EXPECT_GE(heavy_in_first8, 5u) << "3:1 weights should front-load the heavy study";
}

TEST(StudySession, MaxRunningQuotaCapsConcurrency) {
  // 8 free cores but a quota of 2: TaskRun spans of the study must never
  // overlap more than 2 deep.
  rt::Runtime runtime(small_cluster(/*simulate=*/true, /*cpus=*/8, /*nodes=*/1));
  rt::StudySession capped = runtime.open_study({.name = "capped", .max_running = 2});
  for (int i = 0; i < 6; ++i) capped.submit(noop_task());
  capped.barrier();

  std::vector<std::pair<double, double>> spans;
  for (const trace::Event& e : runtime.trace().events())
    if (e.kind == trace::EventKind::TaskRun && e.study == capped.id())
      spans.emplace_back(e.t_start, e.t_end);
  ASSERT_EQ(spans.size(), 6u);
  for (const auto& [start, _] : spans) {
    int concurrent = 0;
    for (const auto& [s, t] : spans)
      if (s <= start && start < t) ++concurrent;
    EXPECT_LE(concurrent, 2) << "quota of 2 exceeded at t=" << start;
  }
}

// ---------------------------------------------------------------------------
// Per-study task index and study release
// ---------------------------------------------------------------------------

bool is_terminal(rt::TaskState state) {
  return state == rt::TaskState::Done || state == rt::TaskState::Failed ||
         state == rt::TaskState::Cancelled;
}

/// Brute-force oracle for Runtime::study_progress: a full-graph census.
rt::StudyProgress scanned_progress(const rt::Runtime& runtime, rt::StudyId study) {
  rt::StudyProgress p;
  const rt::TaskGraph& graph = runtime.graph();
  for (rt::TaskId id = 0; id < graph.size(); ++id) {
    const rt::TaskRecord& record = graph.task(id);
    if (record.study != study) continue;
    ++p.total;
    switch (record.state) {
      case rt::TaskState::WaitingDeps: ++p.waiting; break;
      case rt::TaskState::Ready: ++p.ready; break;
      case rt::TaskState::Running: ++p.running; break;
      case rt::TaskState::Done: ++p.done; break;
      case rt::TaskState::Failed: ++p.failed; break;
      case rt::TaskState::Cancelled: ++p.cancelled; break;
    }
  }
  return p;
}

void expect_same_progress(const rt::StudyProgress& got, const rt::StudyProgress& want) {
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.waiting, want.waiting);
  EXPECT_EQ(got.ready, want.ready);
  EXPECT_EQ(got.running, want.running);
  EXPECT_EQ(got.done, want.done);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.cancelled, want.cancelled);
}

/// Brute-force oracle for cancel_study: walk the whole graph in id order;
/// a task of the study counts iff it is still cancellable when reached —
/// not terminal, not abandoned, and not already doomed by an earlier
/// cancel's sweep over its pending dependents.
std::size_t scanned_cancel_count(const rt::Runtime& runtime, rt::StudyId study) {
  const rt::TaskGraph& graph = runtime.graph();
  std::vector<bool> doomed(graph.size(), false);
  std::function<void(rt::TaskId)> doom = [&](rt::TaskId task) {
    for (const rt::TaskId succ : graph.task(task).successors) {
      const rt::TaskState state = graph.task(succ).state;
      if (doomed[succ] || (state != rt::TaskState::WaitingDeps && state != rt::TaskState::Ready))
        continue;
      doomed[succ] = true;
      doom(succ);
    }
  };
  std::size_t count = 0;
  for (rt::TaskId id = 0; id < graph.size(); ++id) {
    const rt::TaskRecord& record = graph.task(id);
    if (record.study != study || doomed[id] || record.abandoned || is_terminal(record.state))
      continue;
    ++count;
    doom(id);
  }
  return count;
}

class StudyTaskIndex : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(StudyTaskIndex, ProgressAndCancelMatchAFullGraphScan) {
  const auto [simulate, seed] = GetParam();
  rt::RuntimeOptions opts = small_cluster(simulate, /*cpus=*/2, /*nodes=*/2);
  opts.fault_policy.max_attempts = 1;  // a failing body fails its task for good
  rt::Runtime runtime(std::move(opts));
  std::vector<rt::StudySession> studies;
  for (const char* name : {"a", "b", "c"}) studies.push_back(runtime.open_study({.name = name}));
  const auto check = [&] {
    for (const rt::StudySession& study : studies)
      expect_same_progress(runtime.study_progress(study.id()),
                           scanned_progress(runtime, study.id()));
  };

  Rng rng(seed);
  std::vector<rt::Future> submitted;
  for (int round = 0; round < 6; ++round) {
    // Interleaved submissions; inputs may come from any study's tasks.
    for (int i = 0; i < 12; ++i) {
      rt::TaskDef def = noop_task(rng.next_uniform(0.5, 2.0));
      const bool fails = rng.next_bool(0.15);
      def.body = [fails](rt::TaskContext&) -> std::any {
        if (fails) throw std::runtime_error("injected body failure");
        return 0;
      };
      std::vector<rt::Param> params;
      if (!submitted.empty() && rng.next_bool(0.6))
        params.push_back({submitted[rng.next_index(submitted.size())].data, rt::Direction::In});
      submitted.push_back(studies[rng.next_index(studies.size())].submit(def, params));
    }
    if (rng.next_bool(0.5)) runtime.cancel(submitted[rng.next_index(submitted.size())]);
    check();
    runtime.wait_all_for(simulate ? 1.5 : 0.002);
    check();
    if (round == 3) {
      rt::StudySession& victim = studies[rng.next_index(studies.size())];
      const std::size_t expected = scanned_cancel_count(runtime, victim.id());
      EXPECT_EQ(victim.cancel_all(), expected);
      check();
    }
  }
  for (rt::StudySession& study : studies) {
    const std::size_t expected = scanned_cancel_count(runtime, study.id());
    EXPECT_EQ(study.cancel_all(), expected);
  }
  runtime.barrier();
  check();
  EXPECT_EQ(runtime.lineage_violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, StudyTaskIndex,
                         ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 2u, 3u)));

TEST(ReleaseStudy, FreesTerminalTasksButNeverOneWithALiveConsumer) {
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    rt::Runtime runtime(small_cluster(simulate));
    rt::StudySession closed = runtime.open_study({.name = "closed"});
    rt::StudySession late = runtime.open_study({.name = "late"});
    const rt::Future shared = closed.submit(noop_task());
    const rt::Future alone = closed.submit(noop_task());
    closed.barrier();
    late.pause();  // keeps the consumer below live
    const rt::Future consumer = late.submit(noop_task(), {{shared.data, rt::Direction::In}});

    runtime.release_study(closed.id());
    const rt::TaskRecord& kept = runtime.graph().task(shared.producer);
    EXPECT_FALSE(kept.released);
    EXPECT_TRUE(static_cast<bool>(kept.def.body));
    const rt::TaskRecord& freed = runtime.graph().task(alone.producer);
    EXPECT_TRUE(freed.released);
    EXPECT_FALSE(static_cast<bool>(freed.def.body));
    EXPECT_FALSE(static_cast<bool>(freed.def.cost));
    EXPECT_EQ(runtime.study_progress(closed.id()).total, 0u);
    EXPECT_THROW(closed.submit(noop_task()), std::invalid_argument);
    EXPECT_THROW(runtime.release_study(closed.id()), std::invalid_argument);
    EXPECT_THROW(runtime.release_study(rt::kMainStudy), std::invalid_argument);

    // Records, values and futures outlive the release.
    EXPECT_EQ(runtime.wait_on_as<int>(alone), 0);
    late.resume();
    EXPECT_EQ(runtime.wait_on_as<int>(consumer), 0);
    EXPECT_EQ(runtime.lineage_violations(), 0u);
  }
}

TEST(ReleaseStudy, LineageDemandOnAReleasedTaskFailsTheConsumer) {
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "sim" : "threads");
    rt::RuntimeOptions opts = small_cluster(simulate, /*cpus=*/2, /*nodes=*/2);
    opts.cluster.has_parallel_fs = false;  // outputs live only on their node
    rt::Runtime runtime(std::move(opts));
    rt::StudySession closed = runtime.open_study({.name = "closed"});
    rt::StudySession late = runtime.open_study({.name = "late"});
    const rt::Future produced = closed.submit(noop_task());
    closed.barrier();
    runtime.release_study(closed.id());
    ASSERT_TRUE(runtime.graph().task(produced.producer).released);

    // Its only replica dies; a new consumer's lineage demand reaches a task
    // that can no longer run: the consumer fails instead of replaying it.
    const int node = runtime.graph().task(produced.producer).last_node;
    ASSERT_GE(node, 0);
    runtime.kill_node(static_cast<std::size_t>(node));
    const rt::Future consumer = late.submit(noop_task(), {{produced.data, rt::Direction::In}});
    EXPECT_THROW(runtime.wait_on(consumer), rt::TaskFailedError);
    EXPECT_EQ(runtime.graph().task(consumer.producer).state, rt::TaskState::Failed);
    EXPECT_THROW(runtime.wait_on(produced), rt::TaskFailedError);
    EXPECT_EQ(runtime.lineage_recoveries(), 0u);
    EXPECT_EQ(runtime.lineage_violations(), 0u);
  }
}

TEST(ReleaseStudy, KilledStudyFinishesReleasingWhenItsAbandonedAttemptLands) {
  rt::Runtime runtime(small_cluster(/*simulate=*/true, /*cpus=*/1, /*nodes=*/1));
  rt::StudySession killed = runtime.open_study({.name = "killed"});
  rt::StudySession other = runtime.open_study({.name = "other"});
  std::vector<rt::Future> tasks;
  for (int i = 0; i < 3; ++i) tasks.push_back(killed.submit(noop_task(5.0)));
  other.submit(noop_task(1.0));
  runtime.wait_all_for(1.0);
  ASSERT_EQ(killed.progress().running, 1u);

  killed.cancel_all();  // the running attempt is abandoned on finish
  runtime.release_study(killed.id());
  // The index stays until the straggler lands; its record keeps its body.
  EXPECT_EQ(runtime.study_progress(killed.id()).running, 1u);
  EXPECT_FALSE(runtime.graph().task(tasks[0].producer).released);

  runtime.barrier();
  EXPECT_EQ(runtime.graph().task(tasks[0].producer).state, rt::TaskState::Cancelled);
  EXPECT_EQ(runtime.study_progress(killed.id()).total, 0u);
  for (const rt::Future& f : tasks) EXPECT_TRUE(runtime.graph().task(f.producer).released);
}

// ---------------------------------------------------------------------------
// StudyManager: concurrent studies, lifecycle, determinism
// ---------------------------------------------------------------------------

service::StudySpec point_spec(const std::string& name, const std::string& algorithm,
                              std::size_t budget, std::uint64_t seed) {
  service::StudySpec spec;
  spec.name = name;
  spec.algorithm = algorithm;
  spec.space = tiny_space();
  spec.budget = budget;
  spec.driver.epoch_cap = 1;
  spec.driver.seed = seed;
  return spec;
}

TEST(StudyManager, TwoStudiesWithDifferentAlgorithmsShareOneRuntime) {
  for (const bool simulate : {false, true}) {
    const ml::Dataset dataset = ml::make_mnist_like(80, 20, 1);
    service::ManagerOptions options;
    options.runtime = small_cluster(simulate);
    service::StudyManager manager(std::move(options), dataset);

    service::StudySpec grid = point_spec("grid", "grid", 0, 5);
    if (simulate) grid.driver.workload = ml::mnist_paper_model();
    service::StudySpec random = point_spec("random", "random", 5, 7);
    if (simulate) random.driver.workload = ml::mnist_paper_model();
    const rt::StudyId g = manager.submit(std::move(grid));
    const rt::StudyId r = manager.submit(std::move(random));
    manager.run_all();

    EXPECT_EQ(manager.state(g), service::StudyState::Finished);
    EXPECT_EQ(manager.state(r), service::StudyState::Finished);
    EXPECT_EQ(manager.outcome(g).trials.size(), 8u);  // full grid
    EXPECT_EQ(manager.outcome(r).trials.size(), 5u);
    ASSERT_NE(manager.outcome(g).best(), nullptr);
    ASSERT_NE(manager.outcome(r).best(), nullptr);
    EXPECT_EQ(manager.leaked_completions(), 0u);
    EXPECT_EQ(manager.lineage_violations(), 0u);
  }
}

TEST(StudyManager, KillMidRungCancelsOnlyThatStudy) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 2);
  service::ManagerOptions options;
  options.runtime = small_cluster(/*simulate=*/true, /*cpus=*/4, /*nodes=*/1);
  service::StudyManager manager(std::move(options), dataset);

  service::StudySpec halving = point_spec("halving", "halving", 0, 11);
  halving.driver.workload = ml::mnist_paper_model();
  halving.halving.initial_configs = 6;
  halving.halving.initial_epochs = 1;
  halving.halving.max_epochs = 4;
  service::StudySpec random = point_spec("random", "random", 6, 13);
  random.driver.workload = ml::mnist_paper_model();
  const rt::StudyId h = manager.submit(std::move(halving));
  const rt::StudyId r = manager.submit(std::move(random));

  // Drive a few completions so the halving study is genuinely mid-rung,
  // then kill it while trials are still in flight.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(manager.step());
  ASSERT_EQ(manager.state(h), service::StudyState::Running);
  manager.kill(h);
  EXPECT_EQ(manager.state(h), service::StudyState::Killed);
  manager.run_all();

  EXPECT_EQ(manager.state(r), service::StudyState::Finished);
  EXPECT_EQ(manager.outcome(r).trials.size(), 6u);
  for (const hpo::Trial& t : manager.outcome(r).trials)
    EXPECT_FALSE(t.failed) << "survivor study trial " << t.index << " was damaged by the kill";
  // The killed study kept whatever completed before the kill.
  EXPECT_LT(manager.outcome(h).trials.size(), 18u);
  EXPECT_EQ(manager.leaked_completions(), 0u);
  EXPECT_EQ(manager.lineage_violations(), 0u);
}

TEST(StudyManager, StopOnAccuracyDropsFinishedButUnroutedTrials) {
  // Trials can finish while the manager is not consuming completions: here
  // the plotter's final plot waits for a slot inside resume(), and the
  // stopper's three equal trials all land during that wait. The first one
  // routed crosses the threshold; the early stop must drop the other two
  // from the completion queue. Otherwise the steps that wait for the
  // keeper's long trial deliver them to a pump that no longer holds them.
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 8);
  service::ManagerOptions options;
  options.runtime = small_cluster(/*simulate=*/true, /*cpus=*/4, /*nodes=*/1);
  service::StudyManager manager(std::move(options), dataset);

  const auto one_config = [](const std::string& name, const std::string& space,
                             std::uint64_t seed) {
    service::StudySpec spec = point_spec(name, "grid", 0, seed);
    spec.space = hpo::SearchSpace::from_json_text(space);
    spec.driver.workload = ml::mnist_paper_model();
    return spec;
  };
  service::StudySpec plotter = one_config(
      "plotter", R"({"learning_rate": [0.01], "num_epochs": [1], "batch_size": [16]})", 37);
  plotter.driver.visualise = true;
  service::StudySpec stopper = one_config(
      "stopper", R"({"learning_rate": [0.01, 0.02, 0.05], "num_epochs": [3], "batch_size": [16]})",
      31);
  stopper.driver.stop_on_accuracy = 1e-9;  // any successful trial stops it
  const rt::StudyId p = manager.submit(std::move(plotter));
  const rt::StudyId s = manager.submit(std::move(stopper));
  const rt::StudyId k = manager.submit(one_config(
      "keeper", R"({"learning_rate": [0.01], "num_epochs": [8], "batch_size": [16]})", 41));

  // Admit all; the plotter's short trial and the stopper's three start.
  ASSERT_EQ(manager.step_for(1.0), service::StudyManager::StepOutcome::Idle);
  // Consume the plotter's trial while it is paused, so its plot is only
  // submitted at resume(), when every slot is taken.
  manager.pause(p);
  ASSERT_TRUE(manager.step());
  ASSERT_EQ(manager.state(p), service::StudyState::Paused);
  ASSERT_EQ(manager.stats().completions_routed, 1u);
  manager.resume(p);  // finishes the plotter; its plot outlasts the stopper's trials
  ASSERT_EQ(manager.state(p), service::StudyState::Finished);
  EXPECT_FALSE(manager.outcome(p).report.empty());
  ASSERT_EQ(manager.progress(s).done, 3u);  // all finished, none routed yet

  manager.run_all();
  ASSERT_EQ(manager.state(s), service::StudyState::Finished);
  EXPECT_TRUE(manager.outcome(s).stopped_early);
  EXPECT_EQ(manager.outcome(s).trials.size(), 1u);
  EXPECT_EQ(manager.state(k), service::StudyState::Finished);
  EXPECT_EQ(manager.stats().completions_routed, 3u);  // plotter, stopper, keeper
  EXPECT_EQ(manager.leaked_completions(), 0u);
}

struct BestSnapshot {
  double accuracy = -1.0;
  std::string config;
  std::size_t trials = 0;
};

TEST(StudyManager, PauseResumeReproducesBestBitIdentically) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 3);

  const auto run_once = [&](bool with_pause, BestSnapshot& out) {
    service::ManagerOptions options;
    options.runtime = small_cluster(/*simulate=*/false);
    service::StudyManager manager(std::move(options), dataset);
    const rt::StudyId id = manager.submit(point_spec("solo", "random", 6, 17));
    if (with_pause) {
      ASSERT_TRUE(manager.step());
      manager.pause(id);
      // Paused: in-flight completions still drain, no refills happen.
      while (manager.state(id) == service::StudyState::Paused && manager.step()) {
      }
      manager.resume(id);
    }
    manager.run_all();
    ASSERT_EQ(manager.state(id), service::StudyState::Finished);
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    ASSERT_NE(outcome.best(), nullptr);
    out.accuracy = outcome.best()->result.final_val_accuracy;
    out.config = hpo::config_brief(outcome.best()->config);
    out.trials = outcome.trials.size();
  };

  BestSnapshot plain, interrupted;
  run_once(false, plain);
  run_once(true, interrupted);
  EXPECT_EQ(interrupted.trials, plain.trials);
  EXPECT_EQ(interrupted.config, plain.config);
  EXPECT_EQ(interrupted.accuracy, plain.accuracy)
      << "pause/resume changed the search result";
}

TEST(StudyManager, CrashResumeReplaysCheckpointBitIdentically) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 4);
  const std::string checkpoint = testing::TempDir() + "study_resume.json";
  std::remove(checkpoint.c_str());

  // Grid: every config is unique, so config-keyed checkpoint replay is
  // exact. (Random search may draw duplicates, and a duplicate replays the
  // first occurrence's result instead of retraining — by design.)
  service::StudySpec spec = point_spec("resumable", "grid", 0, 19);
  spec.driver.checkpoint_path = checkpoint;

  // Uninterrupted reference run (fresh checkpoint).
  double reference_best = 0.0;
  std::string reference_config;
  {
    service::ManagerOptions options;
    options.runtime = small_cluster(false);
    service::StudyManager manager(std::move(options), dataset);
    const rt::StudyId id = manager.submit(spec);
    manager.run_all();
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    ASSERT_NE(outcome.best(), nullptr);
    reference_best = outcome.best()->result.final_val_accuracy;
    reference_config = hpo::config_brief(outcome.best()->config);
  }
  std::remove(checkpoint.c_str());

  // "Crash": consume a couple of completions, then drop the manager on the
  // floor — only the checkpointed prefix survives.
  {
    service::ManagerOptions options;
    options.runtime = small_cluster(false);
    service::StudyManager manager(std::move(options), dataset);
    manager.submit(spec);
    ASSERT_TRUE(manager.step());
    ASSERT_TRUE(manager.step());
  }

  // Fresh manager, same spec: replays the checkpoint, runs the rest.
  {
    service::ManagerOptions options;
    options.runtime = small_cluster(false);
    service::StudyManager manager(std::move(options), dataset);
    const rt::StudyId id = manager.submit(spec);
    manager.run_all();
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    EXPECT_EQ(outcome.trials.size(), 8u);  // full grid
    const auto replayed =
        std::count_if(outcome.trials.begin(), outcome.trials.end(),
                      [](const hpo::Trial& t) { return t.attempts == 0; });
    EXPECT_GE(replayed, 1) << "nothing was replayed from the checkpoint";
    ASSERT_NE(outcome.best(), nullptr);
    EXPECT_EQ(outcome.best()->result.final_val_accuracy, reference_best);
    EXPECT_EQ(hpo::config_brief(outcome.best()->config), reference_config);
  }
  std::remove(checkpoint.c_str());
}

// ---------------------------------------------------------------------------
// Chaos: two studies under fault injection stay isolated
// ---------------------------------------------------------------------------

TEST(StudyManager, TwoStudyIsolationUnderFaultInjection) {
  for (const bool simulate : {false, true}) {
    const ml::Dataset dataset = ml::make_mnist_like(80, 20, 6);
    service::ManagerOptions options;
    options.runtime = small_cluster(simulate);
    // Probabilistic per-attempt failures; retries must absorb them.
    options.runtime.injector = rt::FaultInjector(99, /*task_failure_prob=*/0.15);
    options.runtime.fault_policy.max_attempts = 6;
    service::StudyManager manager(std::move(options), dataset);

    service::StudySpec a = point_spec("chaos-random", "random", 5, 23);
    service::StudySpec b = point_spec("chaos-grid", "grid", 0, 29);
    if (simulate) {
      a.driver.workload = ml::mnist_paper_model();
      b.driver.workload = ml::mnist_paper_model();
    }
    const rt::StudyId ra = manager.submit(std::move(a));
    const rt::StudyId rb = manager.submit(std::move(b));
    manager.run_all();

    EXPECT_EQ(manager.state(ra), service::StudyState::Finished);
    EXPECT_EQ(manager.state(rb), service::StudyState::Finished);
    EXPECT_EQ(manager.outcome(ra).trials.size(), 5u);
    EXPECT_EQ(manager.outcome(rb).trials.size(), 8u);
    EXPECT_EQ(manager.leaked_completions(), 0u)
        << "a completion crossed studies under fault injection";
    EXPECT_EQ(manager.lineage_violations(), 0u);

    // Retries happened *somewhere* (otherwise the injector was a no-op and
    // this test proves nothing) and every retry stayed inside its study.
    std::size_t retries = 0;
    std::set<rt::StudyId> retry_studies;
    for (const trace::Event& e : manager.trace().events())
      if (e.kind == trace::EventKind::TaskRetry) {
        ++retries;
        retry_studies.insert(e.study);
      }
    EXPECT_GT(retries, 0u);
    for (const rt::StudyId s : retry_studies) EXPECT_TRUE(s == ra || s == rb);
  }
}


// ---------------------------------------------------------------------------
// Golden manager schedules: seeded multi-study programs on the simulator
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words, the hash GoldenSchedules pins (test_properties).
struct ScheduleHash {
  std::uint64_t value = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffU;
      value *= 1099511628211ULL;
    }
  }
  void add_time(double seconds) { add(static_cast<std::uint64_t>(std::llround(seconds * 1e9))); }
};

/// One seeded StudyManager program; `seed % 6` picks the scenario:
/// 0 grid with reuse + visualise beside a windowed random/tpe pair,
/// 1 halving beside hyperband, 2 stop_on_accuracy, 3 pause/resume plus a
/// kill mid-rung, 4 node churn with task failures, 5 step_for with small
/// budgets. Every lifecycle event, every step result and every trace
/// event goes into `hash`.
void run_golden_manager_program(std::uint64_t seed, ScheduleHash& hash) {
  Rng rng(seed * 104729 + 7);
  const int scenario = static_cast<int>(seed % 6);
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, seed + 1);
  const std::size_t nodes = scenario == 4 ? 3 : static_cast<std::size_t>(rng.next_int(1, 2));
  service::ManagerOptions options;
  options.runtime = small_cluster(/*simulate=*/true,
                                  static_cast<unsigned>(rng.next_int(2, 4)), nodes);
  options.runtime.seed = seed;
  if (rng.next_bool(0.3)) options.max_active = 1;
  if (scenario == 4) {
    rt::FaultInjector injector(seed, /*task_failure_prob=*/0.1);
    const double down = rng.next_uniform(5.0, 60.0);
    injector.schedule_node_failure(nodes - 1, down);
    injector.schedule_node_recovery(nodes - 1, down + rng.next_uniform(10.0, 90.0));
    options.runtime.injector = injector;
    options.runtime.fault_policy.max_attempts = 5;
  }
  service::StudyManager manager(std::move(options), dataset);
  manager.set_event_tap([&hash](const service::StudyEvent& e) {
    hash.add(static_cast<std::uint64_t>(e.kind));
    hash.add(e.study);
    hash.add(static_cast<std::uint64_t>(e.state));
    hash.add(e.trials_done);
    if (e.trial == nullptr) return;
    hash.add(static_cast<std::uint64_t>(e.trial->index));
    hash.add(e.trial->task);
    hash.add(e.trial->failed ? 1 : 0);
    hash.add(static_cast<std::uint64_t>(e.trial->attempts));
    hash.add_time(e.trial->result.final_val_accuracy);
  });

  const auto spec = [&](const std::string& algorithm, std::size_t budget) {
    service::StudySpec s = point_spec(algorithm, algorithm, budget, seed * 31 + budget);
    s.driver.workload = ml::mnist_paper_model();
    s.halving.initial_configs = static_cast<std::size_t>(rng.next_int(3, 6));
    s.halving.initial_epochs = 1;
    s.halving.max_epochs = 4;
    s.hyperband.max_epochs = 4;
    s.hyperband.eta = 2.0;
    return s;
  };
  std::vector<rt::StudyId> ids;
  switch (scenario) {
    case 0: {
      service::StudySpec grid = spec("grid", 0);
      grid.driver.reuse.enabled = true;
      grid.driver.visualise = true;
      service::StudySpec random = spec("random", 6);
      random.driver.parallel_suggestions = 3;
      service::StudySpec tpe = spec("tpe", 5);
      tpe.driver.parallel_suggestions = 2;
      ids = {manager.submit(std::move(grid)), manager.submit(std::move(random)),
             manager.submit(std::move(tpe))};
      break;
    }
    case 1: {
      service::StudySpec hyperband = spec("hyperband", 0);
      hyperband.driver.reuse.enabled = rng.next_bool(0.5);
      ids = {manager.submit(spec("halving", 0)), manager.submit(std::move(hyperband))};
      break;
    }
    case 2: {
      service::StudySpec stopper = spec("random", 8);
      stopper.driver.stop_on_accuracy = 0.05;
      stopper.driver.visualise = true;
      service::StudySpec grid = spec("grid", 0);
      grid.driver.stop_on_accuracy = rng.next_uniform(0.15, 0.3);
      ids = {manager.submit(std::move(stopper)), manager.submit(std::move(grid))};
      break;
    }
    case 4:
      ids = {manager.submit(spec("grid", 0)), manager.submit(spec("random", 6))};
      break;
    default:
      ids = {manager.submit(spec("halving", 0)), manager.submit(spec("random", 6)),
             manager.submit(spec("grid", 0))};
      break;
  }

  const auto note = [&hash, &manager](std::uint64_t step_result) {
    hash.add(step_result);
    hash.add_time(manager.now());
  };
  if (scenario == 3) {
    // Pause the random study early, kill the halving one mid-rung, resume.
    for (int i = 0; i < 2; ++i) note(manager.step() ? 1 : 0);
    manager.pause(ids[1]);
    for (int i = 0; i < 3; ++i) note(manager.step() ? 1 : 0);
    if (manager.state(ids[0]) == service::StudyState::Running) manager.kill(ids[0]);
    note(manager.step() ? 1 : 0);
    manager.resume(ids[1]);
  }
  if (scenario == 5) {
    // Bounded steps with budgets far below a trial's virtual length, and a
    // pause/resume of the grid study in between.
    for (int i = 0; manager.busy(); ++i) {
      if (i == 4) manager.pause(ids[2]);
      if (i == 9) manager.resume(ids[2]);
      note(static_cast<std::uint64_t>(manager.step_for(rng.next_uniform(0.0, 40.0))));
    }
    manager.resume(ids[2]);
  }
  while (manager.busy()) note(manager.step() ? 1 : 0);

  for (const rt::StudyId id : ids) {
    hash.add(static_cast<std::uint64_t>(manager.state(id)));
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    hash.add(outcome.trials.size());
    hash.add(static_cast<std::uint64_t>(outcome.best_index + 1));
    hash.add(outcome.stopped_early ? 1 : 0);
    hash.add(outcome.report.size());
  }
  const service::ManagerStats stats = manager.stats();
  hash.add(stats.completions_routed);
  hash.add(stats.leaked_completions);
  for (const trace::Event& e : manager.trace().events()) {
    hash.add(static_cast<std::uint64_t>(e.kind));
    hash.add(e.task_id);
    hash.add(e.study);
    hash.add(static_cast<std::uint64_t>(e.attempt));
    hash.add(static_cast<std::uint64_t>(e.node));
    hash.add(e.cores.size());
    for (const unsigned core : e.cores) hash.add(core);
    hash.add_time(e.t_start);
    hash.add_time(e.t_end);
  }
}

TEST(GoldenStudies, ManagerSchedulesMatchThePinnedHash) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);  // kills, failures and node deaths are by design
  ScheduleHash hash;
  for (std::uint64_t seed = 0; seed < 12; ++seed) run_golden_manager_program(seed, hash);
  set_log_level(before);
  EXPECT_EQ(hash.value, 4894869927058686360ULL)
      << "manager-driven simulator schedules changed";
}

}  // namespace
}  // namespace chpo
