// Unit tests for the dynamic task graph and its DOT export (Figure 3).
#include <gtest/gtest.h>

#include "runtime/graph.hpp"

namespace chpo::rt {
namespace {

TaskDef named(const std::string& name) {
  TaskDef def;
  def.name = name;
  return def;
}

TEST(TaskGraph, IndependentTasksAreReady) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const DataId cfg = reg.register_data(std::any(1));
  const TaskId a = graph.add_task(named("experiment"), {{cfg, Direction::In}});
  const TaskId b = graph.add_task(named("experiment"), {{cfg, Direction::In}});
  EXPECT_EQ(graph.task(a).state, TaskState::Ready);
  EXPECT_EQ(graph.task(b).state, TaskState::Ready);
  EXPECT_TRUE(graph.task(a).predecessors.empty());
  EXPECT_TRUE(graph.task(b).predecessors.empty());
}

TEST(TaskGraph, ChainThroughFutureDatum) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const TaskId producer = graph.add_task(named("produce"), {});
  const Future f = graph.task(producer).result;
  const TaskId consumer = graph.add_task(named("consume"), {{f.data, Direction::In}});
  EXPECT_EQ(graph.task(consumer).state, TaskState::WaitingDeps);
  ASSERT_EQ(graph.task(consumer).predecessors.size(), 1u);
  EXPECT_EQ(graph.task(consumer).predecessors[0], producer);
  EXPECT_EQ(graph.task(producer).successors[0], consumer);
}

TEST(TaskGraph, ImplicitResultDatumRegistered) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const TaskId t = graph.add_task(named("experiment"), {});
  const Future f = graph.task(t).result;
  EXPECT_EQ(f.producer, t);
  EXPECT_EQ(f.version, 1u);
  EXPECT_EQ(reg.producer(f.data, f.version), t);
}

TEST(TaskGraph, FanInDependencies) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const TaskId a = graph.add_task(named("a"), {});
  const TaskId b = graph.add_task(named("b"), {});
  const TaskId c = graph.add_task(
      named("c"), {{graph.task(a).result.data, Direction::In},
                   {graph.task(b).result.data, Direction::In}});
  EXPECT_EQ(graph.task(c).deps_remaining, 2u);
  EXPECT_EQ(graph.critical_path_length(), 2u);
}

TEST(TaskGraph, InOutSerialisesChain) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const DataId state = reg.register_data(std::any(0));
  const TaskId a = graph.add_task(named("step"), {{state, Direction::InOut}});
  const TaskId b = graph.add_task(named("step"), {{state, Direction::InOut}});
  const TaskId c = graph.add_task(named("step"), {{state, Direction::InOut}});
  EXPECT_EQ(graph.task(b).predecessors, std::vector<TaskId>{a});
  EXPECT_EQ(graph.task(c).predecessors, std::vector<TaskId>{b});
  EXPECT_EQ(graph.critical_path_length(), 3u);
  EXPECT_TRUE(graph.is_acyclic());
}

TEST(TaskGraph, HpoShapeIsEmbarrassinglyParallel) {
  // 27 experiments reading one shared config datum: no cross edges.
  DataRegistry reg;
  TaskGraph graph(reg);
  const DataId dataset = reg.register_data(std::any(1), 1 << 20);
  for (int i = 0; i < 27; ++i) graph.add_task(named("experiment"), {{dataset, Direction::In}});
  EXPECT_EQ(graph.size(), 27u);
  EXPECT_EQ(graph.critical_path_length(), 1u);
  EXPECT_EQ(graph.tasks_in_state(TaskState::Ready).size(), 27u);
}

TEST(TaskGraph, DotExportContainsVersionLabels) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const TaskId producer = graph.add_task(named("experiment"), {});
  const Future f = graph.task(producer).result;
  graph.add_task(named("visualisation"), {{f.data, Direction::In}});
  graph.task(producer).synced = true;  // as a wait on `f` would
  const std::string dot = graph.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  // Data edge labelled d{datum}v{version}, as in the paper's Figure 3.
  EXPECT_NE(dot.find("d" + std::to_string(f.data) + "v1"), std::string::npos);
  EXPECT_NE(dot.find("sync"), std::string::npos);
}

TEST(TaskGraph, DotMarksPureOrderingEdgesDashed) {
  DataRegistry reg;
  TaskGraph graph(reg);
  const DataId d = reg.register_data();
  graph.add_task(named("w1"), {{d, Direction::Out}});
  graph.add_task(named("w2"), {{d, Direction::Out}});  // WAW, no data flow
  const std::string dot = graph.to_dot();
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(TaskGraph, UnknownTaskThrows) {
  DataRegistry reg;
  TaskGraph graph(reg);
  EXPECT_THROW(graph.task(0), std::out_of_range);
}

}  // namespace
}  // namespace chpo::rt
