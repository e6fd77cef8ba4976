// Chaos/stress harness: seeded random DAGs driven on both backends under
// random fault injection, cancels, stragglers and (threaded) hung-attempt
// reaping, asserting the runtime's core invariants:
//
//   1. every task reaches exactly one terminal state, and the terminal_seq
//      stamps form a permutation of 1..N;
//   2. no dependent's body observes a predecessor that has not finished,
//      and every committed value a body reads is the producer's (no torn
//      or stale versions — INOUT chains advance monotonically);
//   3. consuming the tracked-completion queue yields tasks in completion
//      order (strictly increasing terminal_seq), every tracked task the
//      driver did not cancel exactly once;
//   4. no completion is lost or delivered twice — per-task callbacks fire
//      exactly once each, in completion order;
//   5. every datum consumed after a node loss has at least one live
//      location at read time (lineage recovery recommitted it before any
//      consumer ran) — the engine counts violations at dispatch.
//
// The DAG mixes roots, fan-out, fan-in and INOUT chains with varying
// constraints; the scenario mixes forced transient failures, one forced
// permanent failure, probabilistic injection, a couple of cancels, a
// kill/revive outage of node 1 on a no-PFS cluster (so sole-replica
// outputs die with it and lineage recovery must replay producers), and —
// per backend — speculation over a 6x-slow node (sim) or in-flight timeout
// reaping of hung first attempts (threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/trainer.hpp"
#include "reuse/result_cache.hpp"
#include "reuse/stage_key.hpp"
#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"

namespace chpo::rt {
namespace {

constexpr int kTasks = 32;
constexpr int kChains = 2;

/// Shared between task bodies and the checker; outlives the Runtime.
struct ChaosState {
  ChaosState() : body_finished(kTasks) {
    for (auto& chain : chain_seen) chain = std::vector<std::atomic<bool>>(kTasks);
  }
  std::atomic<int> order_violations{0};  ///< pred body not finished first
  std::atomic<int> data_violations{0};   ///< wrong committed value observed
  std::vector<std::atomic<bool>> body_finished;
  /// chain_seen[c][v]: some attempt of chain c read counter value v.
  std::array<std::vector<std::atomic<bool>>, kChains> chain_seen;
};

struct ChaosPlan {
  struct Spec {
    std::vector<TaskId> preds;  ///< futures read as IN params
    int chain = -1;             ///< >= 0: INOUT link of that chain
    unsigned cpus = 1;
    double cost = 1.0;     ///< sim seconds on a fast node
    bool hang_first = false;  ///< threads: first attempt overruns its timeout
  };
  std::vector<Spec> tasks;
  std::vector<TaskId> cancels;
};

ChaosPlan make_plan(std::uint64_t seed, bool simulate) {
  std::mt19937_64 rng(seed);
  ChaosPlan plan;
  plan.tasks.resize(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    auto& spec = plan.tasks[std::size_t(i)];
    spec.cpus = 1 + unsigned(rng() % 2);
    spec.cost = 5.0 + double(rng() % 11);
    if (i > 0 && rng() % 5 == 0) {
      spec.chain = int(rng() % kChains);
    } else if (i > 0) {
      const std::size_t fan = rng() % std::min<std::size_t>(3, std::size_t(i)) + (rng() % 2);
      std::set<TaskId> preds;
      for (std::size_t k = 0; k < fan; ++k) preds.insert(TaskId(rng() % std::uint64_t(i)));
      spec.preds.assign(preds.begin(), preds.end());
    }
    // Threads only: hung first attempts on a few IN-only tasks (reaping a
    // chain task would leave its abandoned body racing the chain datum).
    if (!simulate && spec.chain < 0 && rng() % 8 == 0) spec.hang_first = true;
  }
  for (int k = 0; k < 2; ++k) plan.cancels.push_back(TaskId(rng() % kTasks));
  return plan;
}

void run_chaos(std::uint64_t seed, bool simulate) {
  const ChaosPlan plan = make_plan(seed, simulate);
  auto state = std::make_shared<ChaosState>();

  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 4;
  opts.cluster = cluster::homogeneous(3, node);
  opts.simulate = simulate;
  opts.seed = seed;
  opts.injector = FaultInjector(seed, 0.04);
  std::mt19937_64 rng(seed * 7919);
  opts.injector.force_task_failures(TaskId(rng() % kTasks), 1);
  opts.injector.force_task_failures(TaskId(rng() % kTasks), 2);
  const TaskId doomed = TaskId(rng() % kTasks);
  opts.injector.force_task_failures(doomed, opts.fault_policy.max_attempts + 2);
  opts.fault_policy.backoff_base_seconds = simulate ? 1.0 : 0.001;
  // Elastic membership under load: node 1 dies mid-run and rejoins later.
  // Without a parallel FS its sole-replica outputs are lost with it, so
  // consumers exercise the lineage-recovery path (invariant 5).
  opts.cluster.has_parallel_fs = false;
  opts.injector.schedule_node_failure(1, simulate ? 10.0 : 0.04);
  opts.injector.schedule_node_recovery(1, simulate ? 25.0 : 0.12);
  if (simulate) {
    opts.speculation.enabled = true;
    opts.speculation.min_observations = 3;
    opts.speculation.straggler_multiplier = 2.0;
  }
  // Callback-captured state outlives the Runtime: on an early exit its
  // destructor's final barrier still fires the completion callbacks.
  std::vector<std::atomic<int>> fires(kTasks);
  std::vector<TaskId> reported;  // callback order (coordinator thread only)
  Runtime runtime(std::move(opts));

  std::vector<DataId> counters;
  for (int c = 0; c < kChains; ++c) counters.push_back(runtime.share<int>(0));
  std::vector<int> chain_of(kTasks, -1);

  std::vector<Future> futures;
  for (int i = 0; i < kTasks; ++i) {
    const auto& spec = plan.tasks[std::size_t(i)];
    chain_of[std::size_t(i)] = spec.chain;
    TaskDef def;
    def.name = "chaos";
    def.constraint = {.cpus = spec.cpus};
    if (simulate) {
      const double cost = spec.cost;
      def.cost = [cost](const Placement& p, const cluster::NodeSpec&) {
        return p.node == 0 ? cost * 6.0 : cost;  // node 0 straggles
      };
    }
    if (spec.hang_first) def.timeout_seconds = 0.05;

    std::vector<Param> params;
    const std::size_t n_preds = spec.preds.size();
    for (const TaskId pred : spec.preds)
      params.push_back({futures[std::size_t(pred)].data, Direction::In});
    if (spec.chain >= 0) params.push_back({counters[std::size_t(spec.chain)], Direction::InOut});

    const std::vector<TaskId> preds = spec.preds;
    const int chain_index = spec.chain;
    const bool hang_first = spec.hang_first;
    def.body = [state, preds, n_preds, chain_index, hang_first, i](TaskContext& ctx) -> std::any {
      for (std::size_t p = 0; p < n_preds; ++p) {
        if (!state->body_finished[std::size_t(preds[p])].load()) ++state->order_violations;
        if (ctx.read<int>(p) != int(preds[p])) ++state->data_violations;
      }
      if (chain_index >= 0) {
        const int c = ctx.read<int>(n_preds);
        if (c < 0 || c >= kTasks)
          ++state->data_violations;
        else
          state->chain_seen[std::size_t(chain_index)][std::size_t(c)].store(true);
        ctx.write(n_preds, c + 1);
      }
      if (!ctx.simulated()) {
        const bool hang = hang_first && ctx.attempt() == 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(hang ? 150 : 1));
      }
      state->body_finished[std::size_t(i)].store(true);
      return std::any(i);
    };
    futures.push_back(runtime.submit(def, params, [&fires, &reported](const Future& f, TaskState) {
      ++fires[std::size_t(f.producer)];
      reported.push_back(f.producer);
    }));
    runtime.track(futures.back());
  }

  // Cancelling untracks: the victims are never delivered (their dependents,
  // cancelled by the engine, still are).
  for (const TaskId victim : plan.cancels) runtime.cancel(futures[std::size_t(victim)]);
  const std::set<TaskId> victims(plan.cancels.begin(), plan.cancels.end());

  // Invariant 3: consuming the tracked queue yields strictly increasing
  // terminal_seq (completion order) and every non-victim exactly once.
  std::vector<TaskId> delivered;
  std::uint64_t last_seq = 0;
  while (delivered.size() < std::size_t(kTasks) - victims.size()) {
    const Future done = runtime.next_completion();
    const std::uint64_t seq = runtime.graph().task(done.producer).terminal_seq;
    EXPECT_GT(seq, last_seq) << "next_completion returned task " << done.producer
                             << " out of order";
    last_seq = seq;
    delivered.push_back(done.producer);
  }
  EXPECT_THROW(runtime.next_completion(), std::invalid_argument) << "victims still tracked";
  runtime.barrier();
  std::sort(delivered.begin(), delivered.end());
  std::vector<TaskId> expected_delivered;
  for (int i = 0; i < kTasks; ++i)
    if (!victims.contains(TaskId(i))) expected_delivered.push_back(TaskId(i));
  EXPECT_EQ(delivered, expected_delivered);

  // Invariant 1: one terminal state each; terminal_seq is a permutation.
  std::set<std::uint64_t> seqs;
  std::vector<int> done_per_chain(kChains, 0);
  for (int i = 0; i < kTasks; ++i) {
    const TaskRecord& record = runtime.graph().task(TaskId(i));
    const bool terminal = record.state == TaskState::Done || record.state == TaskState::Failed ||
                          record.state == TaskState::Cancelled;
    EXPECT_TRUE(terminal) << "task " << i << " not terminal";
    EXPECT_GE(record.terminal_seq, 1u);
    EXPECT_LE(record.terminal_seq, std::uint64_t(kTasks));
    seqs.insert(record.terminal_seq);
    if (record.state == TaskState::Done && chain_of[std::size_t(i)] >= 0)
      ++done_per_chain[std::size_t(chain_of[std::size_t(i)])];
  }
  EXPECT_EQ(seqs.size(), std::size_t(kTasks)) << "terminal_seq stamps collide";

  // Invariant 2: bodies never saw an unfinished predecessor or a value
  // other than the producer's committed one. A failed chain link cancels
  // everything behind it, so the Done links of a chain form a prefix and
  // must have observed exactly the counter values 0..D-1 (monotone, no
  // skips, no torn versions).
  EXPECT_EQ(state->order_violations.load(), 0);
  EXPECT_EQ(state->data_violations.load(), 0);
  for (int c = 0; c < kChains; ++c)
    for (int v = 0; v < done_per_chain[std::size_t(c)]; ++v)
      EXPECT_TRUE(state->chain_seen[std::size_t(c)][std::size_t(v)].load())
          << "chain " << c << " never observed counter value " << v;

  // Invariant 5: no task ever consumed a datum with zero live replicas —
  // every lost version was recommitted through lineage before its readers
  // dispatched. The engine checks each dispatch's inputs at placement time.
  EXPECT_EQ(runtime.lineage_violations(), 0u)
      << "a datum was consumed without a live location";
  if (simulate) {
    // The outage lands inside the virtual makespan deterministically.
    int node_down = 0;
    for (const auto& e : runtime.trace().events())
      node_down += e.kind == trace::EventKind::NodeDown;
    EXPECT_GE(node_down, 1);
  }

  // Invariant 4: every task's callback fired exactly once, in completion
  // order.
  ASSERT_EQ(reported.size(), std::size_t(kTasks)) << "completions lost or duplicated";
  for (std::size_t k = 1; k < reported.size(); ++k)
    EXPECT_LT(runtime.graph().task(reported[k - 1]).terminal_seq,
              runtime.graph().task(reported[k]).terminal_seq);
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(fires[std::size_t(i)].load(), 1) << "callback count for task " << i;
}

class ChaosTest : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ChaosTest, InvariantsHoldUnderFaultsCancelsAndStragglers) {
  const auto [seed, simulate] = GetParam();
  run_chaos(std::uint64_t(seed), simulate);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         testing::Combine(testing::Values(11, 23, 47, 61),
                                          testing::Bool()),
                         [](const testing::TestParamInfo<ChaosTest::ParamType>& info) {
                           return std::string(std::get<1>(info.param) ? "sim" : "threads") +
                                  "_seed" + std::to_string(std::get<0>(info.param));
                         });

// Work-stealing under multi-study churn: four studies batch-submit waves
// into the sharded ready queues while node 1 dies and rejoins (no-PFS, so
// lineage recovery is live) and speculation is armed. Workers whose shard
// runs dry must steal from loaded shards — the steal counter is asserted
// to move — and stealing must not break per-study completion routing:
// every callback fires exactly once and carries its own study's tag.
// The TSan CI job runs this file, so the steal path gets raced coverage.
TEST(ChaosStealing, FourStudiesChurnAndSpeculationKeepWorkersStealing) {
  constexpr int kStudies = 4;
  constexpr int kPerStudy = 40;

  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.cpus = 4;
  opts.cluster = cluster::homogeneous(3, node);
  opts.simulate = false;
  opts.seed = 97;
  opts.cluster.has_parallel_fs = false;
  opts.fault_policy.max_attempts = 8;
  opts.fault_policy.backoff_base_seconds = 0.001;
  opts.injector.schedule_node_failure(1, 0.04);
  opts.injector.schedule_node_recovery(1, 0.12);
  opts.speculation.enabled = true;
  opts.speculation.min_observations = 3;
  opts.speculation.straggler_multiplier = 4.0;
  // Declared before the Runtime, which fires callbacks until it is gone.
  std::array<std::vector<std::atomic<int>>, kStudies> fires;
  for (auto& per_task : fires) per_task = std::vector<std::atomic<int>>(kPerStudy);
  Runtime runtime(std::move(opts));

  std::vector<StudySession> sessions;
  sessions.push_back(runtime.main_study());
  for (int s = 1; s < kStudies; ++s)
    sessions.push_back(runtime.open_study({.name = "steal-" + std::to_string(s)}));

  std::array<std::vector<Future>, kStudies> futures;
  for (int s = 0; s < kStudies; ++s) {
    std::vector<Runtime::BatchItem> wave;
    wave.reserve(kPerStudy);
    for (int i = 0; i < kPerStudy; ++i) {
      Runtime::BatchItem item;
      item.def.name = "steal";
      item.def.constraint = {.cpus = 1};
      item.def.body = [s, i](TaskContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::any(s * kPerStudy + i);
      };
      item.on_complete = [&fires, s](const Future& f, TaskState) {
        ++fires[std::size_t(s)][std::size_t(f.producer) % kPerStudy];
      };
      wave.push_back(std::move(item));
    }
    futures[std::size_t(s)] = sessions[std::size_t(s)].submit_batch(std::move(wave));
  }

  for (StudySession& session : sessions) session.barrier();

  for (int s = 0; s < kStudies; ++s)
    for (int i = 0; i < kPerStudy; ++i) {
      EXPECT_EQ(runtime.wait_on_as<int>(futures[std::size_t(s)][std::size_t(i)]),
                s * kPerStudy + i);
      EXPECT_EQ(fires[std::size_t(s)][std::size_t(i)].load(), 1)
          << "study " << s << " task " << i << " callback count";
    }
  EXPECT_EQ(runtime.lineage_violations(), 0u);
  EXPECT_GT(runtime.worker_steals(), 0u)
      << "no worker ever stole — sharded queues never rebalanced";
}

// Reuse under concurrency: many worker threads race get/put on one shared
// ResultCache (the stage executor's setup when twin stages of different
// chains run in parallel, or speculation duplicates a stage). First-write-
// wins must hold, every reader must observe a fully committed snapshot,
// and TSan must stay green.
TEST(ChaosReuse, ConcurrentStageTasksShareOneCacheSafely) {
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, 77);

  reuse::ReusePolicy policy;
  policy.enabled = true;
  auto cache = std::make_shared<reuse::ResultCache>(policy);

  RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "chaos";
  node.cpus = 8;
  opts.cluster = cluster::homogeneous(1, node);
  Runtime runtime(std::move(opts));

  constexpr int kChainCount = 3;
  constexpr int kRacersPerChain = 6;
  std::vector<Future> futures;
  for (int i = 0; i < kChainCount * kRacersPerChain; ++i) {
    const int chain = i % kChainCount;
    TaskDef def;
    def.name = "stage";
    def.body = [&dataset, cache, chain](TaskContext&) -> std::any {
      ml::TrainConfig tc;
      tc.num_epochs = 2;
      tc.batch_size = 16;
      tc.learning_rate = 0.01f + 0.01f * static_cast<float>(chain);
      tc.seed = 101 + static_cast<std::uint64_t>(chain);
      const reuse::StageKey key{static_cast<std::uint64_t>(chain), 0xcafe};
      if (auto hit = cache->get_snapshot(key)) return hit->partial.final_val_accuracy;
      ml::TrainerSession session(dataset, tc);
      while (session.step_epoch()) {
      }
      auto snap = std::make_shared<const ml::TrainSnapshot>(session.snapshot());
      cache->put_snapshot(key, snap);
      return snap->partial.final_val_accuracy;
    };
    futures.push_back(runtime.submit(def, {}));
  }

  // Every racer of a chain must report the same accuracy regardless of
  // whether it computed or hit the cache (stage outputs are deterministic
  // functions of the key).
  std::array<double, kChainCount> expected{};
  std::array<bool, kChainCount> seen{};
  for (int i = 0; i < kChainCount * kRacersPerChain; ++i) {
    const int chain = i % kChainCount;
    const double acc = runtime.wait_on_as<double>(futures[std::size_t(i)]);
    if (!seen[std::size_t(chain)]) {
      expected[std::size_t(chain)] = acc;
      seen[std::size_t(chain)] = true;
    } else {
      EXPECT_EQ(acc, expected[std::size_t(chain)]) << "chain " << chain;
    }
  }

  const reuse::CacheStats stats = cache->stats();
  EXPECT_EQ(stats.puts + stats.duplicate_puts + stats.hits,
            std::size_t(kChainCount * kRacersPerChain));
  EXPECT_EQ(stats.puts, std::size_t(kChainCount));  // one winner per key
}

}  // namespace
}  // namespace chpo::rt
