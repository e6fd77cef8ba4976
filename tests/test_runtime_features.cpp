// Tests for study sessions as COMPSs task groups, elastic node growth, and
// the Chrome trace export.
#include <gtest/gtest.h>

#include <fstream>

#include "jsonlite/json.hpp"
#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"
#include "trace/chrome_writer.hpp"

namespace chpo::rt {
namespace {

RuntimeOptions sim(std::size_t nodes, unsigned cpus) {
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
  def.body = [](TaskContext&) { return std::any(1); };
  def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
  return def;
}

// A PyCOMPSs TaskGroup maps to a study session: its barrier is the
// group barrier and its progress tells whether every task succeeded.
bool all_done(const StudySession& study) {
  const StudyProgress progress = study.progress();
  return progress.done == progress.total;
}

TEST(StudyAsTaskGroup, BarrierWaitsOnlyItsStudy) {
  Runtime runtime(sim(1, 4));
  StudySession phase1 = runtime.open_study({.name = "phase1"});
  StudySession phase2 = runtime.open_study({.name = "phase2"});
  phase1.submit(timed("a", 10.0));
  phase1.submit(timed("b", 20.0));
  phase2.submit(timed("c", 100.0));
  phase1.barrier();
  // phase1 done at t=20; phase2 runs concurrently but we did not wait on it.
  EXPECT_GE(runtime.now(), 20.0);
  EXPECT_LT(runtime.now(), 100.0);
  EXPECT_TRUE(all_done(phase1));
  EXPECT_FALSE(all_done(phase2));  // still running
  runtime.barrier();
  EXPECT_TRUE(all_done(phase2));
}

TEST(StudyAsTaskGroup, EmptyStudyBarrierIsNoop) {
  Runtime runtime(sim(1, 2));
  StudySession nothing = runtime.open_study({.name = "nothing"});
  nothing.barrier();
  EXPECT_DOUBLE_EQ(runtime.now(), 0.0);
  EXPECT_TRUE(all_done(nothing));
}

TEST(StudyAsTaskGroup, ProgressReportsAFailure) {
  RuntimeOptions opts = sim(1, 2);
  opts.fault_policy.max_attempts = 1;
  opts.injector.force_task_failures(0, 1);
  Runtime runtime(std::move(opts));
  StudySession g = runtime.open_study({.name = "g"});
  g.submit(timed("bad", 1.0));
  g.submit(timed("good", 1.0));
  g.barrier();
  EXPECT_FALSE(all_done(g));
  EXPECT_EQ(g.progress().failed, 1u);
}

TEST(Elasticity, QueuedTasksUseNewNode) {
  // 1 node, 2 cores, 4 long tasks: two queue. Adding a node mid-run lets
  // them start immediately instead of waiting a full wave.
  Runtime runtime(sim(1, 2));
  std::vector<Future> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(timed("t", 100.0)));
  // Nothing has run yet (lazy backend): grow the cluster before waiting.
  cluster::NodeSpec extra;
  extra.name = "elastic";
  extra.cpus = 2;
  const std::size_t index = runtime.add_node(extra);
  EXPECT_EQ(index, 1u);
  runtime.barrier();
  // With 4 cores total, all 4 tasks overlap: makespan 100, not 200.
  EXPECT_DOUBLE_EQ(runtime.analyze().makespan(), 100.0);
  EXPECT_EQ(runtime.analyze().nodes_used(), 2u);
}

TEST(Elasticity, NewNodeSatisfiesPreviouslyImpossibleQueue) {
  // A task wider than any existing node stays queued (not failed) as long
  // as something else is in flight; growth then places it. To avoid the
  // fail-fast feasibility check, the wide task fits node sizes that exist
  // but are busy.
  Runtime runtime(sim(2, 4));
  runtime.submit(timed("filler1", 50.0));
  TaskDef wide = timed("wide", 10.0);
  wide.constraint = {.cpus = 4, .nodes = 2};  // needs both nodes
  const Future f = runtime.submit(wide);
  cluster::NodeSpec extra;
  extra.name = "elastic";
  extra.cpus = 4;
  runtime.add_node(extra);
  runtime.wait_on(f);
  // Wide task ran at t=0 using node 1 + the elastic node 2.
  EXPECT_DOUBLE_EQ(runtime.now(), 10.0);
}

TEST(Elasticity, ThreadBackendUsesGrownNode) {
  RuntimeOptions opts = sim(1, 1);
  opts.simulate = false;
  Runtime runtime(std::move(opts));
  cluster::NodeSpec extra;
  extra.name = "elastic";
  extra.cpus = 1;
  runtime.add_node(extra);
  TaskDef def;
  def.name = "where";
  def.constraint = {.cpus = 1};
  def.body = [](TaskContext& ctx) { return std::any(ctx.node()); };
  // Two tasks; with two single-core nodes, one lands on each.
  const Future a = runtime.submit(def);
  const Future b = runtime.submit(def);
  const int na = runtime.wait_on_as<int>(a);
  const int nb = runtime.wait_on_as<int>(b);
  EXPECT_NE(na, nb);
}

TEST(ChromeTrace, SerializesSpansAndInstants) {
  Runtime runtime(sim(1, 2));
  runtime.submit(timed("experiment", 5.0));
  runtime.barrier();
  const std::string text = trace::to_chrome_trace(runtime.trace().events());
  const json::Value doc = json::parse(text);
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_GE(events.size(), 3u);  // submit + schedule + run
  bool has_span = false, has_instant = false;
  for (const auto& e : events) {
    if (e.at("ph").as_string() == "X") {
      has_span = true;
      EXPECT_DOUBLE_EQ(e.at("dur").as_double(), 5e6);  // 5 s in us
      EXPECT_NE(e.at("name").as_string().find("experiment"), std::string::npos);
    }
    if (e.at("ph").as_string() == "i") has_instant = true;
  }
  EXPECT_TRUE(has_span);
  EXPECT_TRUE(has_instant);
}

TEST(ChromeTrace, WritesParsableFile) {
  Runtime runtime(sim(1, 2));
  runtime.submit(timed("t", 1.0));
  runtime.barrier();
  const std::string path = "/tmp/chpo_chrome_trace.json";
  trace::write_chrome_trace(path, runtime.trace().events());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NO_THROW(json::parse(ss.str()));
  std::remove(path.c_str());
}

TEST(ChromeTrace, EmptyTraceIsValidJson) {
  EXPECT_NO_THROW(json::parse(trace::to_chrome_trace({})));
}

}  // namespace
}  // namespace chpo::rt
