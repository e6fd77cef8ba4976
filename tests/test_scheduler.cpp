// Unit tests for the scheduling policies.
#include <gtest/gtest.h>

#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_backend.hpp"

namespace chpo::rt {
namespace {

/// Candidates in the order given, for both policies. The placement tests
/// that use it hand over one task, or tasks whose readiness and rank
/// orders agree; the order itself is the engine's, tested through Engine
/// (EngineOrder below). Its demand bound is zero, so it never ends a
/// round early.
class ListSource final : public CandidateSource {
 public:
  explicit ListSource(std::vector<TaskId> ids) : ids_(std::move(ids)) {}
  std::optional<TaskId> next_by_readiness() override { return next(); }
  std::optional<TaskId> next_by_priority() override { return next(); }
  Constraint smallest_demand() const override { return Constraint{.cpus = 0}; }

 private:
  std::optional<TaskId> next() {
    if (next_ >= ids_.size()) return std::nullopt;
    return ids_[next_++];
  }
  std::vector<TaskId> ids_;
  std::size_t next_ = 0;
};

struct SchedulerFixture : ::testing::Test {
  SchedulerFixture() : graph(registry) {}

  TaskId add(const Constraint& c, bool priority = false) {
    TaskDef def;
    def.name = "t";
    def.constraint = c;
    def.priority = priority;
    return graph.add_task(def, {});
  }

  std::vector<Dispatch> schedule(Scheduler& sched, std::vector<TaskId> ready, ResourceState& rs) {
    ListSource source(std::move(ready));
    return sched.schedule(source, graph, rs);
  }

  DataRegistry registry;
  TaskGraph graph;
};

/// One task of engine_round: a 24-core task of `study`.
struct Queued {
  StudyId study = kMainStudy;
  bool priority = false;
};

/// The tasks an Engine running the named policy places in its first
/// scheduling round on one 48-core MareNostrum 4 node, as indices into
/// `tasks` (submitted in that order), which become ready in the order
/// `ready` lists them: the candidate order production hands its
/// scheduler.
std::vector<std::size_t> engine_round(const std::string& scheduler,
                                      const std::vector<Queued>& tasks,
                                      const std::vector<std::size_t>& ready) {
  DataRegistry registry;
  TaskGraph graph(registry);
  trace::TraceSink sink(/*enabled=*/false);
  Engine engine(graph, cluster::marenostrum4(1), EngineOptions{.scheduler = scheduler},
                FaultInjector{}, sink);
  EngineContextScope ctx(g_engine_ctx);
  engine.open_study("side", {});  // study 1 next to the main study
  std::vector<TaskId> ids;
  for (const Queued& task : tasks) {
    TaskDef def;
    def.name = "t";
    def.constraint = {.cpus = 24};
    def.priority = task.priority;
    ids.push_back(graph.add_task(def, {}, task.study));
  }
  for (const std::size_t index : ready) engine.on_submitted(ids[index], 0.0);
  std::vector<std::size_t> placed;
  for (const Dispatch& d : engine.schedule(0.0))
    placed.push_back(static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), d.task) - ids.begin()));
  return placed;
}

TEST(EngineOrder, FifoPlacesInSubmissionOrder) {
  // Third doesn't fit.
  EXPECT_EQ(engine_round("fifo", {{}, {}, {}}, {0, 1, 2}), (std::vector<std::size_t>{0, 1}));
}

TEST(EngineOrder, PrioritySchedulerJumpsQueue) {
  for (const char* scheduler : {"priority", "locality", "cost-aware"})
    EXPECT_EQ(engine_round(scheduler, {{}, {}, {.priority = true}}, {0, 1, 2}),
              (std::vector<std::size_t>{2, 0}))  // priority first
        << scheduler;
}

TEST(EngineOrder, MergesStudies) {
  // Two studies' ready queues (study 0: tasks 0 and 2; study 1: tasks 1
  // and 3, task 3 a priority one), task 2 ready before task 0. The ranked
  // policies merge them by (priority, id); Fifo interleaves the readiness
  // orders by fair share, lowest study first on a tie.
  const std::vector<Queued> tasks{{.study = 0}, {.study = 1}, {.study = 0}, {1, true}};
  EXPECT_EQ(engine_round("priority", tasks, {2, 0, 1, 3}), (std::vector<std::size_t>{3, 0}));
  EXPECT_EQ(engine_round("fifo", tasks, {2, 0, 1, 3}), (std::vector<std::size_t>{2, 1}));
}

TEST_F(SchedulerFixture, FillsMultipleNodes) {
  ResourceState rs(cluster::marenostrum4(3));
  std::vector<TaskId> ready;
  for (int i = 0; i < 3; ++i) ready.push_back(add({.cpus = 48}));
  PriorityScheduler sched;
  const auto dispatches = schedule(sched, ready, rs);
  ASSERT_EQ(dispatches.size(), 3u);
  // One node-filling task each.
  std::vector<int> nodes;
  for (const auto& d : dispatches) nodes.push_back(d.placement.node);
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<int>{0, 1, 2}));
}

TEST_F(SchedulerFixture, RespectsExcludedNodes) {
  ResourceState rs(cluster::marenostrum4(2));
  const TaskId t = add({.cpus = 1});
  graph.task(t).excluded_nodes.push_back(0);
  PriorityScheduler sched;
  const auto dispatches = schedule(sched, {t}, rs);
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].placement.node, 1);
}

TEST_F(SchedulerFixture, AllNodesExcludedMeansNoPlacement) {
  ResourceState rs(cluster::marenostrum4(1));
  const TaskId t = add({.cpus = 1});
  graph.task(t).excluded_nodes.push_back(0);
  PriorityScheduler sched;
  EXPECT_TRUE(schedule(sched, {t}, rs).empty());
}

TEST_F(SchedulerFixture, LocalitySchedulerPrefersDataHolder) {
  cluster::ClusterSpec spec = cluster::marenostrum4(3);
  spec.has_parallel_fs = false;
  ResourceState rs(spec);
  // A large input written by a producer task; its output lands on node 2.
  const DataId big = registry.register_data(std::any(1), 1 << 30, "big", /*everywhere=*/false);
  TaskDef producer_def;
  producer_def.name = "producer";
  const TaskId producer = graph.add_task(producer_def, {{big, Direction::Out}});
  registry.commit(big, 1, std::any(2), /*node=*/2);
  graph.task(producer).state = TaskState::Done;

  TaskDef def;
  def.name = "consumer";
  def.constraint = {.cpus = 1};
  const TaskId t = graph.add_task(def, {{big, Direction::In}});
  // Mark the producer dependency as satisfied for this scheduling test.
  graph.task(t).deps_remaining = 0;

  LocalityScheduler sched;
  const auto dispatches = schedule(sched, {t}, rs);
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].placement.node, 2);
}

TEST_F(SchedulerFixture, LocalityFallsBackToFirstFit) {
  ResourceState rs(cluster::marenostrum4(2));
  const TaskId t = add({.cpus = 1});  // no inputs at all
  LocalityScheduler sched;
  const auto dispatches = schedule(sched, {t}, rs);
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].placement.node, 0);
}

TEST_F(SchedulerFixture, FactoryByName) {
  EXPECT_EQ(make_scheduler("fifo")->name(), "fifo");
  EXPECT_EQ(make_scheduler("priority")->name(), "priority");
  EXPECT_EQ(make_scheduler("locality")->name(), "locality");
  EXPECT_EQ(make_scheduler("cost-aware")->name(), "cost-aware");
  EXPECT_THROW(make_scheduler("nope"), std::invalid_argument);
}

TEST_F(SchedulerFixture, CostAwarePicksFastestNode) {
  // Heterogeneous rates: the cost model makes node 1 (fast) 4x cheaper.
  cluster::ClusterSpec spec;
  cluster::NodeSpec slow;
  slow.name = "slow";
  slow.cpus = 4;
  slow.core_rate = 0.5;
  cluster::NodeSpec fast = slow;
  fast.name = "fast";
  fast.core_rate = 2.0;
  spec.nodes = {slow, fast};
  ResourceState rs(spec);

  TaskDef def;
  def.name = "t";
  def.constraint = {.cpus = 1};
  def.cost = [](const Placement&, const cluster::NodeSpec& node) { return 100.0 / node.core_rate; };
  const TaskId t = graph.add_task(def, {});
  CostAwareScheduler sched;
  const auto dispatches = schedule(sched, {t}, rs);
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].placement.node, 1);  // first-fit would pick node 0
}

TEST_F(SchedulerFixture, CostAwareDefersSlowFallbackWhileFastIsBusy) {
  cluster::ClusterSpec spec;
  cluster::NodeSpec node;
  node.name = "gpuish";
  node.cpus = 8;
  node.gpus = 1;
  node.gpu_rate = 30.0;
  spec.nodes = {node};
  ResourceState rs(spec);
  // Occupy the GPU.
  const auto held = rs.try_allocate(0, Constraint{.gpus = 1});
  ASSERT_TRUE(held);

  TaskDef def;
  def.name = "t";
  def.constraint = {.cpus = 1, .gpus = 1};
  def.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.gpu_count() > 0 ? 10.0 : 100.0;  // fallback 10x slower
  };
  TaskVariant cpu;
  cpu.constraint = {.cpus = 4};
  def.variants.push_back(std::move(cpu));
  const TaskId t = graph.add_task(def, {});

  CostAwareScheduler sched;
  // GPU busy, CPU fallback 10x worse than best possible: defer.
  EXPECT_TRUE(schedule(sched, {t}, rs).empty());
  // Once the GPU frees, the primary implementation is taken.
  rs.release(*held);
  const auto dispatches = schedule(sched, {t}, rs);
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].variant, -1);
  EXPECT_EQ(dispatches[0].placement.gpus.size(), 1u);
}

TEST_F(SchedulerFixture, CostAwareSpillsWhenFallbackIsCompetitive) {
  cluster::ClusterSpec spec;
  cluster::NodeSpec node;
  node.name = "gpuish";
  node.cpus = 8;
  node.gpus = 1;
  node.gpu_rate = 30.0;
  spec.nodes = {node};
  ResourceState rs(spec);
  const auto held = rs.try_allocate(0, Constraint{.gpus = 1});

  TaskDef def;
  def.name = "t";
  def.constraint = {.cpus = 1, .gpus = 1};
  def.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.gpu_count() > 0 ? 10.0 : 15.0;  // fallback only 1.5x slower
  };
  TaskVariant cpu;
  cpu.constraint = {.cpus = 4};
  def.variants.push_back(std::move(cpu));
  const TaskId t = graph.add_task(def, {});
  CostAwareScheduler sched;
  const auto dispatches = schedule(sched, {t}, rs);
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].variant, 0);  // took the CPU fallback
  rs.release(*held);
}

TEST_F(SchedulerFixture, CostAwareWithoutCostModelsActsLikeFirstFit) {
  ResourceState rs(cluster::marenostrum4(2));
  const TaskId a = add({.cpus = 1});
  const TaskId b = add({.cpus = 1});
  CostAwareScheduler sched;
  const auto dispatches = schedule(sched, {a, b}, rs);
  ASSERT_EQ(dispatches.size(), 2u);
  EXPECT_EQ(dispatches[0].placement.node, 0);
  EXPECT_EQ(dispatches[1].placement.node, 0);
}

TEST_F(SchedulerFixture, GridOf27OnHalfNodeStarts24) {
  // The Figure 5 shape: 24 usable cores, 27 single-core tasks.
  cluster::ClusterSpec spec = cluster::marenostrum4(1);
  spec.worker_placement = cluster::WorkerPlacement::SharedCores;
  spec.worker_cores = 24;
  ResourceState rs(spec);
  std::vector<TaskId> ready;
  for (int i = 0; i < 27; ++i) ready.push_back(add({.cpus = 1}));
  PriorityScheduler sched;
  const auto dispatches = schedule(sched, ready, rs);
  EXPECT_EQ(dispatches.size(), 24u);
}

// ---------------------------------------------------------------------------
// Round cost: a scheduling round reads the ready queues only as far as its
// placements need, so the entries examined per placed task stay flat as
// the queue grows. A round that walked every queued entry would examine
// O(N / slots) entries per task.
// ---------------------------------------------------------------------------

/// A storm's task and node sizes.
struct StormShape {
  unsigned node_cpus = 4;
  unsigned task_cpus = 1;
};

/// Ready entries Engine::schedule examined per task for a simulated storm
/// of `tasks` no-op tasks over `studies` studies (one wave each, as
/// bench_engine_throughput submits them) on 2 nodes. With four studies
/// the last one runs under a max_running quota.
double visits_per_task(const std::string& scheduler, StormShape shape, int studies, int tasks) {
  DataRegistry registry;
  TaskGraph graph(registry);
  trace::TraceSink sink(/*enabled=*/false);
  cluster::NodeSpec node;
  node.cpus = shape.node_cpus;
  Engine engine(graph, cluster::homogeneous(2, node), EngineOptions{.scheduler = scheduler},
                FaultInjector{}, sink);
  SimBackend backend(engine);
  EngineContextScope ctx(g_engine_ctx);
  for (int s = 1; s < studies; ++s)
    engine.open_study({}, StudyPolicy{.max_running = s == studies - 1 ? 3 : 0});
  TaskDef def;
  def.name = "tiny";
  def.constraint = {.cpus = shape.task_cpus};
  for (int s = 0; s < studies; ++s) {
    std::vector<TaskId> wave;
    for (int i = s; i < tasks; i += studies)
      wave.push_back(graph.add_task(def, {}, static_cast<StudyId>(s)));
    for (const TaskId id : wave) engine.on_submitted(id, backend.now());
  }
  backend.drive([&] { return engine.quiescent(); });
  EXPECT_EQ(graph.tasks_in_state(TaskState::Done).size(), static_cast<std::size_t>(tasks));
  return static_cast<double>(engine.ready_visits()) / tasks;
}

TEST(ReadyQueue, RoundCostIsIndependentOfQueueLength) {
  // 1-core tasks fill the nodes exactly. 2-core tasks on 3-core nodes
  // leave one core free on each: every candidate still queued could use
  // it were it smaller, so only the demand bound stops the round.
  for (const StormShape shape : {StormShape{4, 1}, StormShape{3, 2}})
    for (const std::string scheduler : {"fifo", "priority", "cost-aware"})
      for (const int studies : {1, 4}) {
        const double small = visits_per_task(scheduler, shape, studies, 2000);
        const double large = visits_per_task(scheduler, shape, studies, 32000);
        EXPECT_GT(small, 0.0);
        EXPECT_LE(large, 2.0 * small)
            << scheduler << ", " << studies << " studies, " << shape.task_cpus << "-core tasks on "
            << shape.node_cpus << "-core nodes: " << small << " entries per task at 2k tasks, "
            << large << " at 32k";
      }
}

}  // namespace
}  // namespace chpo::rt
