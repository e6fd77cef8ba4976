// Property-based tests: parameterized sweeps over schedulers, cluster
// shapes, seeds and task mixes asserting the runtime's core invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "hpo/algorithms.hpp"
#include "jsonlite/json.hpp"
#include "hpo/tpe.hpp"
#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"
#include "support/log.hpp"

namespace chpo {
namespace {

using rt::Constraint;
using rt::Direction;
using rt::Future;
using rt::Placement;
using rt::Runtime;
using rt::RuntimeOptions;
using rt::TaskContext;
using rt::TaskDef;

// ---------------------------------------------------------------------
// Invariant 1: no core of any node is ever occupied by two tasks at once,
// for every scheduler policy, cluster shape and random task mix.
// ---------------------------------------------------------------------

struct SchedulingCase {
  const char* scheduler;
  std::size_t nodes;
  unsigned cpus;
  std::uint64_t seed;
};

class SchedulerInvariants : public ::testing::TestWithParam<SchedulingCase> {};

TEST_P(SchedulerInvariants, NoCoreOversubscriptionAndAllTasksFinish) {
  const SchedulingCase param = GetParam();
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "p";
  node.cpus = param.cpus;
  opts.cluster = cluster::homogeneous(param.nodes, node);
  opts.scheduler = param.scheduler;
  opts.simulate = true;
  Runtime runtime(std::move(opts));

  Rng rng(param.seed);
  const int n_tasks = 40;
  for (int i = 0; i < n_tasks; ++i) {
    TaskDef def;
    def.name = "mix";
    def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, param.cpus))};
    def.priority = rng.next_bool(0.2);
    def.body = [](TaskContext&) { return std::any(1); };
    const double seconds = rng.next_uniform(1.0, 20.0);
    def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
    runtime.submit(def);
  }
  runtime.barrier();

  const auto events = runtime.trace().events();
  // Collect (node, core) busy intervals and check pairwise disjointness.
  std::map<std::pair<int, unsigned>, std::vector<std::pair<double, double>>> intervals;
  std::size_t runs = 0;
  for (const auto& e : events) {
    if (e.kind != trace::EventKind::TaskRun) continue;
    ++runs;
    for (unsigned core : e.cores)
      intervals[{e.node, core}].emplace_back(e.t_start, e.t_end);
  }
  EXPECT_EQ(runs, static_cast<std::size_t>(n_tasks));
  for (auto& [key, spans] : intervals) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first + 1e-12)
          << "core " << key.second << " of node " << key.first << " double-booked";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyClusterSweep, SchedulerInvariants,
    ::testing::Values(SchedulingCase{"fifo", 1, 4, 1}, SchedulingCase{"fifo", 3, 8, 2},
                      SchedulingCase{"priority", 1, 4, 3}, SchedulingCase{"priority", 4, 16, 4},
                      SchedulingCase{"priority", 2, 2, 5}, SchedulingCase{"locality", 2, 8, 6},
                      SchedulingCase{"locality", 5, 4, 7}, SchedulingCase{"fifo", 2, 48, 8},
                      SchedulingCase{"priority", 8, 8, 9}, SchedulingCase{"locality", 1, 16, 10}));

// ---------------------------------------------------------------------
// Invariant 2: execution order always respects dependencies — for random
// DAGs, every task runs only after all of its predecessors finished.
// ---------------------------------------------------------------------

class DagOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagOrdering, PredecessorsAlwaysFinishFirst) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 4;
  opts.cluster = cluster::homogeneous(2, node);
  opts.simulate = true;
  Runtime runtime(std::move(opts));

  Rng rng(GetParam());
  std::vector<Future> futures;
  std::vector<std::vector<std::size_t>> predecessors;
  for (int i = 0; i < 30; ++i) {
    // Each task depends on up to 3 random earlier tasks.
    std::vector<rt::Param> params;
    std::vector<std::size_t> preds;
    if (!futures.empty()) {
      const int k = static_cast<int>(rng.next_int(0, 3));
      for (int j = 0; j < k; ++j) {
        const std::size_t p = rng.next_index(futures.size());
        params.push_back({futures[p].data, Direction::In});
        preds.push_back(p);
      }
    }
    TaskDef def;
    def.name = "dag";
    def.body = [](TaskContext&) { return std::any(1); };
    const double seconds = rng.next_uniform(0.5, 5.0);
    def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
    futures.push_back(runtime.submit(def, params));
    predecessors.push_back(std::move(preds));
  }
  runtime.barrier();

  // Map task id -> (start, end) from the trace.
  std::map<std::uint64_t, std::pair<double, double>> times;
  for (const auto& e : runtime.trace().events())
    if (e.kind == trace::EventKind::TaskRun) times[e.task_id] = {e.t_start, e.t_end};
  ASSERT_EQ(times.size(), futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i)
    for (std::size_t p : predecessors[i])
      EXPECT_GE(times[futures[i].producer].first, times[futures[p].producer].second - 1e-12)
          << "task " << i << " started before predecessor " << p << " ended";
}

INSTANTIATE_TEST_SUITE_P(RandomDags, DagOrdering, ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------
// Invariant 3: fault injection never loses or duplicates a result; any mix
// of transient failures still yields every task's value exactly once.
// ---------------------------------------------------------------------

class FaultSweep : public ::testing::TestWithParam<double> {};

TEST_P(FaultSweep, AllResultsSurviveTransientFailures) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 4;
  opts.cluster = cluster::homogeneous(3, node);
  opts.simulate = true;
  opts.fault_policy.max_attempts = 25;  // transient failures must not kill tasks
  opts.injector = rt::FaultInjector(GetParam() * 1e6, GetParam());
  Runtime runtime(std::move(opts));

  std::vector<Future> futures;
  for (int i = 0; i < 30; ++i) {
    TaskDef def;
    def.name = "value";
    def.body = [i](TaskContext&) { return std::any(i * 10); };
    futures.push_back(runtime.submit(def));
  }
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(runtime.wait_on_as<int>(futures[static_cast<std::size_t>(i)]), i * 10);
}

INSTANTIATE_TEST_SUITE_P(FailureRates, FaultSweep, ::testing::Values(0.0, 0.1, 0.3, 0.5));

// ---------------------------------------------------------------------
// Invariant 4: grid search enumerates exactly |d1| x |d2| x ... configs
// with no duplicates, for every space shape.
// ---------------------------------------------------------------------

class GridShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GridShapes, ExactCrossProduct) {
  const auto [a, b, c] = GetParam();
  hpo::SearchSpace space;
  json::Array va, vb;
  for (int i = 0; i < a; ++i) va.emplace_back(std::string("opt") + std::to_string(i));
  for (int i = 0; i < b; ++i) vb.emplace_back(i * 10);
  space.add_categorical("optimizer", va);
  space.add_categorical("num_epochs", vb);
  space.add_int("batch_exp", 0, c - 1);

  hpo::GridSearch grid(space);
  std::set<std::string> seen;
  while (auto config = grid.next()) seen.insert(json::serialize(*config));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(a * b * c));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 3, 3},
                                           std::tuple{2, 5, 1}, std::tuple{4, 1, 6},
                                           std::tuple{2, 2, 7}));

// ---------------------------------------------------------------------
// Invariant 5: DES makespan for n equal tasks on c cores is exactly
// ceil(n/c) * duration — the canonical queueing identity.
// ---------------------------------------------------------------------

class QueueingIdentity
    : public ::testing::TestWithParam<std::tuple<int /*tasks*/, unsigned /*cores*/>> {};

TEST_P(QueueingIdentity, WaveMakespan) {
  const auto [n_tasks, cores] = GetParam();
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = cores;
  opts.cluster = cluster::homogeneous(1, node);
  opts.simulate = true;
  Runtime runtime(std::move(opts));
  for (int i = 0; i < n_tasks; ++i) {
    TaskDef def;
    def.name = "wave";
    def.body = [](TaskContext&) { return std::any(); };
    def.cost = [](const Placement&, const cluster::NodeSpec&) { return 7.0; };
    runtime.submit(def);
  }
  runtime.barrier();
  const double waves = std::ceil(static_cast<double>(n_tasks) / cores);
  EXPECT_DOUBLE_EQ(runtime.analyze().makespan(), waves * 7.0);
}

INSTANTIATE_TEST_SUITE_P(Waves, QueueingIdentity,
                         ::testing::Values(std::tuple{1, 1u}, std::tuple{8, 4u},
                                           std::tuple{9, 4u}, std::tuple{27, 24u},
                                           std::tuple{27, 27u}, std::tuple{5, 8u}));

// ---------------------------------------------------------------------
// Invariant 6: @multinode tasks never share a core with anyone and always
// occupy exactly constraint.nodes distinct nodes.
// ---------------------------------------------------------------------

class MultinodeInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultinodeInvariants, SlicesAreDisjointAndComplete) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 8;
  opts.cluster = cluster::homogeneous(4, node);
  opts.simulate = true;
  Runtime runtime(std::move(opts));
  Rng rng(GetParam());
  std::vector<unsigned> wanted_nodes;
  for (int i = 0; i < 20; ++i) {
    TaskDef def;
    def.name = "mix";
    const unsigned nodes = static_cast<unsigned>(rng.next_int(1, 3));
    def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, 4)), .nodes = nodes};
    wanted_nodes.push_back(nodes);
    def.body = [](TaskContext& ctx) { return std::any(ctx.placement().node_count()); };
    const double seconds = rng.next_uniform(1.0, 5.0);
    def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
    runtime.submit(def);
  }
  runtime.barrier();

  // Each task id must appear on exactly `nodes` distinct nodes with
  // identical intervals, and no (node, core) is double-booked.
  std::map<std::uint64_t, std::set<int>> task_nodes;
  std::map<std::pair<int, unsigned>, std::vector<std::pair<double, double>>> intervals;
  for (const auto& e : runtime.trace().events()) {
    if (e.kind != trace::EventKind::TaskRun) continue;
    task_nodes[e.task_id].insert(e.node);
    for (unsigned core : e.cores) intervals[{e.node, core}].emplace_back(e.t_start, e.t_end);
  }
  ASSERT_EQ(task_nodes.size(), wanted_nodes.size());
  for (const auto& [task, nodes] : task_nodes)
    EXPECT_EQ(nodes.size(), wanted_nodes[task]) << "task " << task;
  for (auto& [key, spans] : intervals) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultinodeInvariants, ::testing::Range<std::uint64_t>(40, 46));

// ---------------------------------------------------------------------
// Invariant 7: every model-based algorithm only ever proposes configs
// inside the declared domains, whatever scores it observes.
// ---------------------------------------------------------------------

class ProposalsInDomain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProposalsInDomain, GpAndTpeRespectDomains) {
  hpo::SearchSpace space;
  space.add_categorical("optimizer", {json::Value("Adam"), json::Value("SGD")});
  space.add_float("lr", 1e-5, 1e-1, /*log=*/true);
  space.add_int("hidden", 8, 128);

  Rng score_rng(GetParam() * 13 + 1);
  const auto check = [&](hpo::SearchAlgorithm& algorithm) {
    while (auto c = algorithm.next()) {
      const std::string opt = hpo::config_string(*c, "optimizer");
      EXPECT_TRUE(opt == "Adam" || opt == "SGD");
      const double lr = hpo::config_double(*c, "lr");
      EXPECT_GE(lr, 1e-5);
      EXPECT_LE(lr, 1e-1);
      const auto hidden = hpo::config_int(*c, "hidden");
      EXPECT_GE(hidden, 8);
      EXPECT_LE(hidden, 128);
      // Adversarial scores: extremes and NaN-free noise.
      algorithm.tell(*c, score_rng.next_bool(0.1) ? 1e6 : score_rng.next_double());
    }
  };
  hpo::GpBayesOpt gp(space, {.max_evals = 15, .n_init = 3, .seed = GetParam()});
  check(gp);
  hpo::TpeSearch tpe(space, {.max_evals = 15, .n_init = 3, .seed = GetParam()});
  check(tpe);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProposalsInDomain, ::testing::Range<std::uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Invariant 8: sim and thread backends compute identical values for the
// same seeded program.
// ---------------------------------------------------------------------

class BackendEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendEquivalence, SameValuesOnBothBackends) {
  const auto program = [&](bool simulate) {
    RuntimeOptions opts;
    cluster::NodeSpec node;
    node.cpus = 4;
    opts.cluster = cluster::homogeneous(2, node);
    opts.simulate = simulate;
    opts.seed = GetParam();
    Runtime runtime(std::move(opts));
    std::vector<Future> stage1;
    for (int i = 0; i < 6; ++i) {
      TaskDef def;
      def.name = "rng_task";
      def.body = [](TaskContext& ctx) {
        return std::any(static_cast<long>(ctx.rng().next_int(0, 1000000)));
      };
      stage1.push_back(runtime.submit(def));
    }
    long total = 0;
    for (auto& f : stage1) total += runtime.wait_on_as<long>(f);
    return total;
  };
  EXPECT_EQ(program(false), program(true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range<std::uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Invariant 9: JSON serialization round-trips arbitrary generated values.
// ---------------------------------------------------------------------

namespace {

json::Value random_json(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.next_int(0, depth > 0 ? 6 : 4));
  switch (kind) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.next_bool(0.5));
    case 2: return json::Value(rng.next_int(-1000000, 1000000));
    case 3: return json::Value(rng.next_uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      const auto len = rng.next_index(12);
      for (std::size_t i = 0; i < len; ++i)
        s.push_back(static_cast<char>(rng.next_int(32, 126)));
      return json::Value(std::move(s));
    }
    case 5: {
      json::Array arr;
      const auto len = rng.next_index(4);
      for (std::size_t i = 0; i < len; ++i) arr.push_back(random_json(rng, depth - 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Value obj;
      const auto len = rng.next_index(4);
      for (std::size_t i = 0; i < len; ++i)
        obj.set("k" + std::to_string(i), random_json(rng, depth - 1));
      if (obj.is_null()) obj.set("k", json::Value(1));  // keep it an object
      return obj;
    }
  }
}

}  // namespace

class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, SerializeParseIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const json::Value original = random_json(rng, 3);
    const json::Value compact = json::parse(json::serialize(original));
    EXPECT_EQ(compact, original);
    const json::Value pretty = json::parse(json::serialize_pretty(original));
    EXPECT_EQ(pretty, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range<std::uint64_t>(500, 506));

// ---------------------------------------------------------------------
// Invariant 10: RNG uniformity — chi-square on byte buckets stays within
// generous bounds across seeds (a smoke test against regressions).
// ---------------------------------------------------------------------

class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, ChiSquareWithinBounds) {
  Rng rng(GetParam());
  constexpr int kBuckets = 64;
  constexpr int kDraws = 64 * 500;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i)
    ++counts[static_cast<std::size_t>(rng.next_index(kBuckets))];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 63 dof: mean 63, std ~11.2. |z| < 5 is a very generous regression band.
  EXPECT_GT(chi2, 63.0 - 5 * 11.3);
  EXPECT_LT(chi2, 63.0 + 5 * 11.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformity, ::testing::Range<std::uint64_t>(900, 906));

// ---------------------------------------------------------------------
// Invariant 11: graph + engine scale — a 1000-task mixed DAG completes
// with every constraint honoured (smoke against quadratic blowups too).
// ---------------------------------------------------------------------

TEST(Stress, ThousandTaskDag) {
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 16;
  opts.cluster = cluster::homogeneous(4, node);
  opts.simulate = true;
  Runtime runtime(std::move(opts));
  Rng rng(4242);
  std::vector<Future> futures;
  long expected_sum = 0;
  for (int i = 0; i < 1000; ++i) {
    std::vector<rt::Param> params;
    if (!futures.empty() && rng.next_bool(0.3))
      params.push_back({futures[rng.next_index(futures.size())].data, Direction::In});
    TaskDef def;
    def.name = "stress";
    def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, 4))};
    def.body = [i](TaskContext&) { return std::any(static_cast<long>(i)); };
    def.cost = [](const Placement&, const cluster::NodeSpec&) { return 0.5; };
    futures.push_back(runtime.submit(def, params));
    expected_sum += i;
  }
  long sum = 0;
  for (auto& f : futures) sum += runtime.wait_on_as<long>(f);
  EXPECT_EQ(sum, expected_sum);
  EXPECT_EQ(runtime.analyze().task_count(), 1000u);
}

// ---------------------------------------------------------------------
// FaultInjector / FaultPolicy / SpeculationPolicy properties: forced-
// failure accounting, backoff monotonicity and cap, straggler threshold
// gating, and duplicate placement restrictions.
// ---------------------------------------------------------------------

class ForcedFailureAccounting : public ::testing::TestWithParam<int> {};

TEST_P(ForcedFailureAccounting, EveryForcedFailureIsConsumedExactlyOnce) {
  const int forced = GetParam();
  rt::FaultInjector injector;
  injector.force_task_failures(7, forced);
  int observed = 0;
  for (int attempt = 1; attempt <= forced + 5; ++attempt)
    observed += injector.should_fail(7, attempt) ? 1 : 0;
  EXPECT_EQ(observed, forced);                // consumed exactly, then clean
  EXPECT_FALSE(injector.should_fail(7, 99));  // stays exhausted
  EXPECT_FALSE(injector.should_fail(8, 1));   // other tasks untouched
}

INSTANTIATE_TEST_SUITE_P(Counts, ForcedFailureAccounting, ::testing::Values(0, 1, 2, 3, 7));

TEST_P(ForcedFailureAccounting, RuntimeAttemptsMatchForcedFailures) {
  // End-to-end accounting: n forced failures cost exactly n+1 attempts
  // (while n+1 <= max_attempts).
  const int forced = GetParam();
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 2;
  opts.cluster = cluster::homogeneous(2, node);
  opts.simulate = true;
  opts.fault_policy.max_attempts = forced + 2;
  opts.injector.force_task_failures(0, forced);
  Runtime runtime(std::move(opts));
  TaskDef def;
  def.name = "accounted";
  def.body = [](TaskContext&) { return std::any(1); };
  const Future f = runtime.submit(def);
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  EXPECT_EQ(runtime.graph().task(f.producer).attempts_made, forced + 1);
  EXPECT_EQ(runtime.analyze().failure_count(), static_cast<std::size_t>(forced));
}

TEST(BackoffProperties, DelaysAreMonotoneAndCapped) {
  rt::FaultPolicy policy;
  policy.backoff_base_seconds = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_seconds = 3.0;
  double previous = 0.0;
  for (int n = 1; n <= 20; ++n) {
    const double delay = policy.retry_delay(n);
    EXPECT_GE(delay, previous) << "backoff must be monotone at attempt " << n;
    EXPECT_LE(delay, policy.backoff_max_seconds) << "backoff must respect the cap";
    previous = delay;
  }
  EXPECT_DOUBLE_EQ(policy.retry_delay(1), 0.5);
  EXPECT_DOUBLE_EQ(policy.retry_delay(2), 1.0);
  EXPECT_DOUBLE_EQ(policy.retry_delay(20), 3.0);  // capped
}

TEST(BackoffProperties, DisabledByDefaultAndForNonPositiveBase) {
  rt::FaultPolicy defaults;
  EXPECT_DOUBLE_EQ(defaults.retry_delay(1), 0.0);  // paper behaviour
  rt::FaultPolicy off;
  off.backoff_base_seconds = -1.0;
  for (int n = 1; n < 5; ++n) EXPECT_DOUBLE_EQ(off.retry_delay(n), 0.0);
}

TEST(SpeculationProperties, ThresholdNeverFiresBelowTwoObservations) {
  rt::SpeculationPolicy policy;
  policy.enabled = true;
  policy.min_observations = 1;  // hostile setting: must still clamp to 2
  rt::SpeculationTracker tracker(policy);
  EXPECT_FALSE(tracker.straggler_threshold("t").has_value());
  tracker.record("t", 10.0);
  EXPECT_FALSE(tracker.straggler_threshold("t").has_value());
  tracker.record("t", 12.0);
  EXPECT_TRUE(tracker.straggler_threshold("t").has_value());
  EXPECT_FALSE(tracker.straggler_threshold("other").has_value());
}

TEST(SpeculationProperties, ThresholdScalesWithQuantile) {
  rt::SpeculationPolicy policy;
  policy.quantile = 0.5;
  policy.straggler_multiplier = 3.0;
  policy.min_observations = 2;
  rt::SpeculationTracker tracker(policy);
  for (double d : {1.0, 2.0, 3.0, 4.0}) tracker.record("t", d);
  ASSERT_TRUE(tracker.baseline("t").has_value());
  EXPECT_DOUBLE_EQ(*tracker.baseline("t"), 3.0);  // index 0.5*4=2 of sorted
  EXPECT_DOUBLE_EQ(*tracker.straggler_threshold("t"), 9.0);
  EXPECT_EQ(tracker.observations("t"), 4u);
}

TEST(SpeculationProperties, BaselineMatchesTheSortedQuantileAfterEverySample) {
  // The tracker keeps a two-heap split instead of a sorted vector; its
  // baseline must still be the sorted samples' element at
  // min(n - 1, floor(q * n)), ties and out-of-order arrivals included.
  for (const double q : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    rt::SpeculationPolicy policy;
    policy.quantile = q;
    policy.min_observations = 2;
    rt::SpeculationTracker tracker(policy);
    Rng rng(static_cast<std::uint64_t>(q * 100) + 5);
    std::vector<double> sorted;
    for (int i = 0; i < 300; ++i) {
      const double seconds = rng.next_bool(0.2) ? 1.0 : rng.next_uniform(0.0, 10.0);
      tracker.record("t", seconds);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), seconds), seconds);
      if (sorted.size() < 2) continue;
      const std::size_t index = std::min(
          sorted.size() - 1, static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
      ASSERT_TRUE(tracker.baseline("t").has_value());
      ASSERT_EQ(*tracker.baseline("t"), sorted[index]) << "q " << q << ", " << sorted.size();
    }
  }
}

TEST(SpeculationProperties, DuplicateNeverPlacedOnBlacklistedOrOriginalNode) {
  // 3 nodes x 1 cpu. The flaky task fails once on node 0 — with
  // same_node_retries=0 the failure blacklists that node — then straggles
  // on node 1 (300 s). The duplicate must land on node 2, the only node
  // that is neither blacklisted nor the straggler's own.
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 1;
  opts.cluster = cluster::homogeneous(3, node);
  opts.simulate = true;
  opts.fault_policy.same_node_retries = 0;
  opts.speculation.enabled = true;
  opts.speculation.min_observations = 2;
  opts.speculation.straggler_multiplier = 2.0;
  opts.injector.force_task_failures(0, 1);
  Runtime runtime(std::move(opts));

  TaskDef flaky;
  flaky.name = "job";
  flaky.constraint = {.cpus = 1};
  flaky.body = [](TaskContext&) { return std::any(1); };
  flaky.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.node == 1 ? 300.0 : 10.0;
  };
  TaskDef quick;
  quick.name = "job";
  quick.constraint = {.cpus = 1};
  quick.body = [](TaskContext&) { return std::any(1); };
  quick.cost = [](const Placement&, const cluster::NodeSpec&) { return 10.0; };

  const Future f = runtime.submit(flaky);  // first-fit: node 0
  for (int i = 0; i < 2; ++i) runtime.submit(quick);
  runtime.barrier();

  // Failed at 10 on node 0, rescheduled onto node 1 (straggles), duplicate
  // due at 10+20=30 on node 2, done at 40.
  EXPECT_EQ(runtime.wait_on_as<int>(f), 1);
  EXPECT_DOUBLE_EQ(runtime.now(), 40.0);
  const auto& record = runtime.graph().task(f.producer);
  EXPECT_NE(std::find(record.excluded_nodes.begin(), record.excluded_nodes.end(), 0),
            record.excluded_nodes.end());
  int speculative_node = -1, launches = 0;
  for (const auto& e : runtime.trace().events()) {
    if (e.kind != trace::EventKind::SpeculativeLaunch) continue;
    ++launches;
    speculative_node = e.node;
  }
  EXPECT_EQ(launches, 1);
  EXPECT_EQ(speculative_node, 2);  // not 0 (blacklisted), not 1 (original)
}

// ---------------------------------------------------------------------
// Invariant 12 (batch submission): a seeded random DAG submitted in
// waves through submit_batch satisfies the chaos invariants identically
// on both backends — every task reaches exactly one terminal state (the
// terminal_seq stamps form a permutation), no body observes an
// unfinished predecessor or a value other than its committed result,
// the tracked-completion queue yields strictly increasing completion
// order, and completions deliver exactly once through both channels (the
// queue and per-task callbacks).
// ---------------------------------------------------------------------

class BatchDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDeterminism, ChaosInvariantsHoldOnBothBackends) {
  constexpr int kWaves = 4;
  constexpr int kPerWave = 10;
  constexpr int kN = kWaves * kPerWave;
  for (const bool simulate : {true, false}) {
    SCOPED_TRACE(simulate ? "sim" : "thread");
    // Shared with task bodies, which may outlive this iteration's scope on
    // the threaded backend only via the runtime — keep them on the heap.
    auto finished = std::make_shared<std::vector<std::atomic<bool>>>(kN);
    auto order_violations = std::make_shared<std::atomic<int>>(0);
    auto data_violations = std::make_shared<std::atomic<int>>(0);
    std::vector<std::atomic<int>> fires(kN);
    std::vector<rt::TaskId> reported;  // callback order (coordinator thread only)

    RuntimeOptions opts;
    cluster::NodeSpec node;
    node.cpus = 4;
    opts.cluster = cluster::homogeneous(2, node);
    opts.simulate = simulate;
    opts.seed = GetParam();
    Runtime runtime(std::move(opts));

    Rng rng(GetParam() * 17 + 3);
    std::vector<Future> futures;
    for (int wave = 0; wave < kWaves; ++wave) {
      std::vector<Runtime::BatchItem> items;
      items.reserve(kPerWave);
      for (int i = 0; i < kPerWave; ++i) {
        const int id = wave * kPerWave + i;
        Runtime::BatchItem item;
        item.def.name = "batch";
        item.def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, 2))};
        const double seconds = rng.next_uniform(0.5, 4.0);
        item.def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
        // Depend on up to 3 tasks from earlier waves: some already Done by
        // the time this wave is admitted, some still pending — both edges
        // of the batch admission path.
        std::vector<std::size_t> preds;
        if (!futures.empty()) {
          const int k = static_cast<int>(rng.next_int(0, 3));
          for (int j = 0; j < k; ++j) {
            const std::size_t p = rng.next_index(futures.size());
            item.params.push_back({futures[p].data, rt::Direction::In});
            preds.push_back(p);
          }
        }
        item.def.body = [finished, order_violations, data_violations, preds,
                         id](TaskContext& ctx) -> std::any {
          for (std::size_t j = 0; j < preds.size(); ++j) {
            if (!(*finished)[preds[j]].load()) ++*order_violations;
            if (ctx.read<int>(j) != static_cast<int>(preds[j])) ++*data_violations;
          }
          (*finished)[static_cast<std::size_t>(id)].store(true);
          return std::any(id);
        };
        item.on_complete = [&fires, &reported](const Future& f, rt::TaskState) {
          ++fires[static_cast<std::size_t>(f.producer)];
          reported.push_back(f.producer);
        };
        items.push_back(std::move(item));
      }
      const std::vector<Future> wave_futures = runtime.submit_batch(std::move(items));
      for (const Future& f : wave_futures) runtime.track(f);
      futures.insert(futures.end(), wave_futures.begin(), wave_futures.end());
    }

    // Chaos invariant 3: the tracked queue yields completion order.
    std::vector<rt::TaskId> delivered;
    std::uint64_t last_seq = 0;
    while (delivered.size() < std::size_t(kN)) {
      const Future done = runtime.next_completion();
      const std::uint64_t seq = runtime.graph().task(done.producer).terminal_seq;
      EXPECT_GT(seq, last_seq) << "next_completion returned task " << done.producer
                               << " out of order";
      last_seq = seq;
      delivered.push_back(done.producer);
    }
    EXPECT_THROW(runtime.next_completion(), std::invalid_argument);
    runtime.barrier();

    // Chaos invariant 1: one terminal state each, terminal_seq permutation.
    std::set<std::uint64_t> seqs;
    for (int i = 0; i < kN; ++i) {
      const auto& record = runtime.graph().task(rt::TaskId(i));
      EXPECT_EQ(record.state, rt::TaskState::Done) << "task " << i;
      EXPECT_GE(record.terminal_seq, 1u);
      EXPECT_LE(record.terminal_seq, std::uint64_t(kN));
      seqs.insert(record.terminal_seq);
      EXPECT_EQ(runtime.wait_on_as<int>(futures[std::size_t(i)]), i);
    }
    EXPECT_EQ(seqs.size(), std::size_t(kN)) << "terminal_seq stamps collide";

    // Chaos invariant 2: dependency order and committed values held.
    EXPECT_EQ(order_violations->load(), 0);
    EXPECT_EQ(data_violations->load(), 0);

    // Chaos invariant 4: every completion delivered exactly once, through
    // the queue and through the callbacks alike.
    ASSERT_EQ(reported.size(), std::size_t(kN)) << "completions lost or duplicated";
    EXPECT_EQ(reported, delivered) << "callbacks and the queue disagree on completion order";
    std::sort(delivered.begin(), delivered.end());
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(delivered[std::size_t(i)], rt::TaskId(i));
      EXPECT_EQ(fires[std::size_t(i)].load(), 1) << "callback count for task " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDeterminism, ::testing::Range<std::uint64_t>(7000, 7006));

// ---------------------------------------------------------------------
// Invariant 13 (batch/sequential equivalence): on the simulator, a DAG
// submitted through submit_batch produces a bit-identical schedule to the
// same DAG submitted one task at a time — same placements, same cores,
// same virtual start/end instants. Batch admission is an amortization of
// per-task admission, never a semantic change.
// ---------------------------------------------------------------------

class BatchVsSequential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchVsSequential, SimSchedulesAreBitIdentical) {
  using ScheduleRow =
      std::tuple<int, std::uint64_t, int, double, double, std::vector<unsigned>>;
  const auto run = [&](bool batch) {
    RuntimeOptions opts;
    cluster::NodeSpec node;
    node.cpus = 4;
    opts.cluster = cluster::homogeneous(3, node);
    opts.simulate = true;
    opts.seed = GetParam();
    Runtime runtime(std::move(opts));

    Rng rng(GetParam() * 31 + 7);
    std::vector<Future> futures;
    for (int wave = 0; wave < 4; ++wave) {
      std::vector<Runtime::BatchItem> items;
      for (int i = 0; i < 10; ++i) {
        Runtime::BatchItem item;
        item.def.name = "wave";
        item.def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, 3))};
        item.def.priority = rng.next_bool(0.15);
        item.def.body = [](TaskContext&) { return std::any(1); };
        const double seconds = rng.next_uniform(1.0, 9.0);
        item.def.cost = [seconds](const Placement&, const cluster::NodeSpec&) { return seconds; };
        if (!futures.empty()) {
          const int k = static_cast<int>(rng.next_int(0, 2));
          for (int j = 0; j < k; ++j)
            item.params.push_back(
                {futures[rng.next_index(futures.size())].data, rt::Direction::In});
        }
        items.push_back(std::move(item));
      }
      if (batch) {
        const std::vector<Future> wave_futures = runtime.submit_batch(std::move(items));
        futures.insert(futures.end(), wave_futures.begin(), wave_futures.end());
      } else {
        for (const Runtime::BatchItem& item : items)
          futures.push_back(runtime.submit(item.def, item.params));
      }
    }
    runtime.barrier();

    std::vector<ScheduleRow> schedule;
    for (const auto& e : runtime.trace().events())
      if (e.kind == trace::EventKind::TaskSchedule || e.kind == trace::EventKind::TaskRun)
        schedule.emplace_back(static_cast<int>(e.kind), e.task_id, e.node, e.t_start, e.t_end,
                              e.cores);
    return schedule;
  };
  const std::vector<ScheduleRow> batched = run(true);
  const std::vector<ScheduleRow> sequential = run(false);
  ASSERT_EQ(batched.size(), sequential.size());
  EXPECT_EQ(batched, sequential);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchVsSequential, ::testing::Range<std::uint64_t>(7100, 7106));

// ---------------------------------------------------------------------
// Invariant 14 (golden simulator schedules): 60 seeded programs exercise
// every engine duty and every kind of wait the drive loop serves — random
// task failures, timeouts, backoff retries, speculation, a scheduled node
// outage, kill_node/revive_node, input staging and lineage recovery,
// pause/resume, cancellation, study barriers and progress, wait_on, the
// tracked-completion queue (unbounded and bounded next_completion) and
// wait_all_for deadlines (zero budgets included). Each program's trace
// (kind, task, study, attempt, node, cores, start/end to 1 ns) and every
// wait's answer and clock reading fold into one FNV-1a hash. The tests
// above compare two paths of one build; this constant pins the schedules
// themselves, so a change that shifts both paths at once still shows.
// ---------------------------------------------------------------------

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

/// Fold a trace into `hash`: kind, task, study, attempt, node, cores and
/// start/end to 1 ns for every event, plus its task name and gpus when
/// `every_field` is set. The pinned schedule hashes leave those two out.
void hash_trace(const std::vector<trace::Event>& events, ScheduleHash& hash, bool every_field) {
  for (const trace::Event& e : events) {
    hash.add(static_cast<std::uint64_t>(e.kind));
    hash.add(e.task_id);
    hash.add(e.study);
    hash.add(static_cast<std::uint64_t>(e.attempt));
    hash.add(static_cast<std::uint64_t>(e.node));
    hash.add(e.cores.size());
    for (const unsigned core : e.cores) hash.add(core);
    hash.add_time(e.t_start);
    hash.add_time(e.t_end);
    if (!every_field) continue;
    hash.add(e.task_name.size());
    for (const char c : e.task_name) hash.add(static_cast<unsigned char>(c));
    hash.add(e.gpus.size());
    for (const unsigned gpu : e.gpus) hash.add(gpu);
  }
}

void run_golden_program(std::uint64_t seed, ScheduleHash& hash) {
  Rng rng(seed * 7919 + 13);
  const auto nodes = static_cast<std::size_t>(rng.next_int(2, 4));
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = static_cast<unsigned>(rng.next_int(2, 4));
  opts.cluster = cluster::homogeneous(nodes, node);
  // Without a shared filesystem inputs are staged per node (a same-node
  // retry keeps them) and a killed node's outputs need lineage recovery.
  opts.cluster.has_parallel_fs = rng.next_bool(0.5);
  opts.simulate = true;
  opts.seed = seed;
  opts.fault_policy.max_attempts = 4;
  rt::FaultInjector injector(seed, rng.next_bool(0.5) ? 0.15 : 0.0);
  if (rng.next_bool(0.3)) {
    const double down = rng.next_uniform(2.0, 10.0);
    injector.schedule_node_failure(nodes - 1, down);
    injector.schedule_node_recovery(nodes - 1, down + rng.next_uniform(1.0, 8.0));
  }
  opts.injector = injector;
  if (rng.next_bool(0.4)) opts.fault_policy.backoff_base_seconds = 0.5;
  if (rng.next_bool(0.4)) {
    opts.speculation.enabled = true;
    opts.speculation.min_observations = 2;
  }
  Runtime runtime(std::move(opts));
  rt::StudySession main = runtime.main_study();
  rt::StudySession side = runtime.open_study({.name = "side", .weight = 2.0});
  // A study session is the task group: its barrier and progress stand in
  // for compss_barrier_group and the group's outcome.
  rt::StudySession group = runtime.open_study({.name = "group"});

  const auto note_wait = [&](rt::TaskId producer) {
    hash.add(producer);
    hash.add_time(runtime.now());
  };
  // Track the picks, then pop the runtime-wide queue: the front may be a
  // task tracked by an earlier pick. Never called with nothing tracked.
  const auto next_of = [&](rt::StudySession& study, const std::vector<Future>& pick,
                           double deadline) {
    for (const Future& f : pick) study.track(f);
    return study.next_completion(deadline).producer;
  };
  std::vector<Future> futures;
  std::vector<bool> killed(nodes, false);
  for (int round = 0; round < 6; ++round) {
    const int wave = static_cast<int>(rng.next_int(3, 8));
    for (int i = 0; i < wave; ++i) {
      TaskDef def;
      def.name = rng.next_bool(0.5) ? "short" : "long";
      def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, 2))};
      def.body = [](TaskContext&) { return std::any(1); };
      const double seconds = rng.next_uniform(0.5, 6.0);
      def.cost = [seconds](const Placement& p, const cluster::NodeSpec&) {
        return p.node == 1 ? 4.0 * seconds : seconds;
      };
      if (rng.next_bool(0.15)) def.timeout_seconds = rng.next_uniform(1.0, 8.0);
      std::vector<rt::Param> params;
      if (!futures.empty() && rng.next_bool(0.5))
        params.push_back({futures[rng.next_index(futures.size())].data, Direction::In});
      const int target = static_cast<int>(rng.next_int(0, 2));
      if (target == 0)
        futures.push_back(main.submit(def, params));
      else if (target == 1)
        futures.push_back(side.submit(def, params));
      else
        futures.push_back(group.submit(def, params));
    }
    for (int op = 0; op < 3; ++op) {
      std::vector<Future> pick;
      for (int k = 0; k < 3; ++k) pick.push_back(futures[rng.next_index(futures.size())]);
      const double budget = rng.next_bool(0.2) ? 0.0 : rng.next_uniform(0.0, 4.0);
      try {
        switch (rng.next_int(0, 10)) {
          case 0: note_wait(next_of(main, pick, runtime.now() + budget)); break;
          case 1: note_wait(runtime.wait_all_for(budget) ? 1 : 0); break;
          case 2: note_wait(next_of(main, pick, -1.0)); break;
          case 3:
            runtime.wait_on(pick[0]);
            note_wait(pick[0].producer);
            break;
          case 4: {
            const std::size_t victim = rng.next_index(nodes);
            const auto alive = std::count(killed.begin(), killed.end(), false);
            if (!killed[victim] && alive > 1) {
              runtime.kill_node(victim);
              killed[victim] = true;
            }
            break;
          }
          case 5:
            for (std::size_t n = 0; n < nodes; ++n)
              if (killed[n]) {
                runtime.revive_node(n);
                killed[n] = false;
              }
            break;
          case 6: side.paused() ? side.resume() : side.pause(); break;
          case 7: {
            group.barrier();
            const rt::StudyProgress progress = group.progress();
            note_wait(progress.done == progress.total ? 1 : 0);
            break;
          }
          case 8:
            side.barrier();
            note_wait(side.progress().terminal());
            break;
          case 9: note_wait(runtime.cancel(pick[0]) ? 1 : 0); break;
          default: note_wait(next_of(side, pick, side.now() + budget)); break;
        }
      } catch (const rt::TaskFailedError& e) {
        note_wait(e.task() + 1000000);
      } catch (const std::runtime_error&) {
        note_wait(2000000);  // an unbounded wait that cannot finish
      }
    }
  }
  side.resume();
  for (std::size_t n = 0; n < nodes; ++n)
    if (killed[n]) runtime.revive_node(n);
  runtime.barrier();
  note_wait(runtime.task_count());
  hash_trace(runtime.trace().events(), hash, /*every_field=*/false);
}

TEST(GoldenSchedules, SimulatorSchedulesMatchThePinnedHash) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);  // the programs fail, time out and kill by design
  ScheduleHash hash;
  for (std::uint64_t seed = 0; seed < 60; ++seed) run_golden_program(seed, hash);
  set_log_level(before);
  EXPECT_EQ(hash.value, 5322033816410204977ULL) << "simulated schedules changed";
}

// ---------------------------------------------------------------------
// Invariant 15 (golden scheduler matrix): the programs above run only the
// default priority scheduler with no quotas. These run every placement
// policy (fifo, priority, locality, cost-aware) over several studies with
// unequal fair-share weights, a max_running quota, pause/resume, priority
// tasks, DAG dependencies (so readiness order differs from id order),
// failures with backoff retries, cancellation, @implement variants and a
// node kill on a cluster without a shared filesystem (lineage recovery,
// i.e. the ready-queue walk's lineage gate). The hash uses the same trace
// fields as the golden schedules; it pins how each policy consumes the
// ready queues, so a change to the candidate order or membership shows.
// ---------------------------------------------------------------------

void run_scheduler_matrix_program(const std::string& scheduler, std::uint64_t seed,
                                  ScheduleHash& hash, bool every_field = false) {
  Rng rng(seed * 6151 + 29);
  const std::size_t nodes = 3;
  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = static_cast<unsigned>(rng.next_int(2, 4));
  opts.cluster = cluster::homogeneous(nodes, node);
  opts.cluster.has_parallel_fs = rng.next_bool(0.5);
  opts.scheduler = scheduler;
  opts.simulate = true;
  opts.seed = seed;
  opts.fault_policy.max_attempts = 4;
  opts.fault_policy.backoff_base_seconds = 0.5;
  opts.injector = rt::FaultInjector(seed, 0.12);
  Runtime runtime(std::move(opts));
  std::vector<rt::StudySession> studies = {
      runtime.main_study(),
      runtime.open_study({.name = "heavy", .weight = 3.0}),
      runtime.open_study({.name = "light", .weight = 0.5}),
      runtime.open_study({.name = "capped", .weight = 1.0, .max_running = 2}),
  };

  const auto note = [&](std::uint64_t value) {
    hash.add(value);
    hash.add_time(runtime.now());
  };
  std::vector<Future> futures;
  bool killed = false;
  for (int round = 0; round < 7; ++round) {
    const int wave = static_cast<int>(rng.next_int(5, 12));
    for (int i = 0; i < wave; ++i) {
      TaskDef def;
      def.name = rng.next_bool(0.5) ? "short" : "long";
      def.constraint = {.cpus = static_cast<unsigned>(rng.next_int(1, 2))};
      def.priority = rng.next_bool(0.15);
      def.body = [](TaskContext&) { return std::any(1); };
      const double seconds = rng.next_uniform(0.5, 5.0);
      def.cost = [seconds](const Placement& p, const cluster::NodeSpec&) {
        return p.node == 0 ? 3.0 * seconds : seconds;
      };
      if (rng.next_bool(0.2)) {
        rt::TaskVariant variant;
        variant.label = "wide";
        variant.constraint = {.cpus = def.constraint.cpus + 1};
        variant.cost = [seconds](const Placement&, const cluster::NodeSpec&) {
          return 0.4 * seconds;
        };
        def.variants.push_back(std::move(variant));
      }
      std::vector<rt::Param> params;
      if (!futures.empty() && rng.next_bool(0.45)) {
        const int k = static_cast<int>(rng.next_int(1, 2));
        for (int j = 0; j < k; ++j)
          params.push_back({futures[rng.next_index(futures.size())].data, Direction::In});
      }
      futures.push_back(studies[rng.next_index(studies.size())].submit(def, params));
    }
    for (int op = 0; op < 3; ++op) {
      const Future pick = futures[rng.next_index(futures.size())];
      try {
        switch (rng.next_int(0, 6)) {
          case 0: {
            const double budget = rng.next_uniform(0.0, 3.0);
            runtime.track(pick);
            note(runtime.next_completion(runtime.now() + budget).producer);
            break;
          }
          case 1: note(runtime.wait_all_for(rng.next_uniform(0.0, 3.0)) ? 1 : 0); break;
          case 2: {
            rt::StudySession& study = studies[1 + rng.next_index(studies.size() - 1)];
            study.paused() ? study.resume() : study.pause();
            note(study.id());
            break;
          }
          case 3: note(runtime.cancel(pick) ? 1 : 0); break;
          case 4:
            if (killed) {
              runtime.revive_node(nodes - 1);
            } else {
              runtime.kill_node(nodes - 1);
            }
            killed = !killed;
            note(killed ? 1 : 0);
            break;
          case 5: note(studies[3].progress().terminal()); break;
          default:
            runtime.wait_on(pick);
            note(pick.producer);
            break;
        }
      } catch (const rt::TaskFailedError& e) {
        note(e.task() + 1000000);
      } catch (const std::runtime_error&) {
        note(2000000);
      }
    }
  }
  for (rt::StudySession& study : studies)
    if (study.paused()) study.resume();
  if (killed) runtime.revive_node(nodes - 1);
  // Every program drains: a task submitted against a producer cancelled
  // mid-attempt is doomed when that attempt lands, not stranded.
  runtime.barrier();
  note(runtime.task_count());
  hash_trace(runtime.trace().events(), hash, every_field);
}

TEST(GoldenSchedules, SchedulerMatrixMatchesThePinnedHash) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);  // the programs fail, cancel and kill by design
  ScheduleHash hash;
  for (const std::string scheduler : {"fifo", "priority", "locality", "cost-aware"})
    for (std::uint64_t seed = 0; seed < 16; ++seed)
      run_scheduler_matrix_program(scheduler, seed, hash);
  set_log_level(before);
  EXPECT_EQ(hash.value, 10956210007677439803ULL) << "simulated schedules changed";
}

// The hashes above skip task names and gpus, so an event labelled with
// the wrong task, or a TaskRun that lost its gpus, would pass them. This
// one folds every trace::Event field over the same programs.
TEST(GoldenSchedules, SchedulerMatrixPinsEveryTraceField) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  ScheduleHash hash;
  for (const std::string scheduler : {"fifo", "priority", "locality", "cost-aware"})
    for (std::uint64_t seed = 0; seed < 16; ++seed)
      run_scheduler_matrix_program(scheduler, seed, hash, /*every_field=*/true);
  set_log_level(before);
  EXPECT_EQ(hash.value, 13886054309858999129ULL) << "trace events changed";
}



}  // namespace
}  // namespace chpo
