// Tests for the one-call optimize() facade and trial checkpointing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "hpo/algorithms.hpp"
#include "hpo/checkpoint.hpp"
#include "hpo/optimize.hpp"
#include "jsonlite/record.hpp"

namespace chpo::hpo {
namespace {

constexpr const char* kSpace = R"({
  "optimizer": ["Adam", "SGD"],
  "num_epochs": [1, 2],
  "batch_size": [16]
})";

TEST(Optimize, GridRunsEverything) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 30, 1);
  const HpoOutcome outcome = optimize(dataset, kSpace, "grid", {.seed = 5});
  EXPECT_EQ(outcome.trials.size(), 4u);
  EXPECT_NE(outcome.best(), nullptr);
}

TEST(Optimize, RandomHonoursBudget) {
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, 2);
  const HpoOutcome outcome =
      optimize(dataset, kSpace, "random", {.budget = 3, .epoch_cap = 1, .seed = 5});
  EXPECT_EQ(outcome.trials.size(), 3u);
}

TEST(Optimize, ModelBasedAlgorithmsWork) {
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, 3);
  SearchSpace space;
  space.add_float("learning_rate", 1e-4, 1e-1, true);
  for (const char* algorithm : {"gp", "tpe"}) {
    const HpoOutcome outcome =
        optimize(dataset, space, algorithm, {.budget = 4, .epoch_cap = 1, .seed = 5});
    EXPECT_EQ(outcome.trials.size(), 4u) << algorithm;
  }
}

TEST(Optimize, StopOnAccuracy) {
  const ml::Dataset dataset = ml::make_mnist_like(300, 100, 4);
  OptimizeOptions options;
  options.stop_on_accuracy = 0.3;
  options.epoch_cap = 3;
  const HpoOutcome outcome = optimize(dataset, kSpace, "grid", options);
  EXPECT_TRUE(outcome.stopped_early);
}

TEST(Optimize, UnknownAlgorithmThrows) {
  const ml::Dataset dataset = ml::make_mnist_like(20, 10, 5);
  EXPECT_THROW(optimize(dataset, kSpace, "simulated-annealing", {}), std::invalid_argument);
  EXPECT_THROW(optimize(dataset, "not json", "grid", {}), json::JsonError);
}

// ------------------------------------------------------------ checkpoint

struct CheckpointFixture : ::testing::Test {
  void SetUp() override { path = "/tmp/chpo_checkpoint_test.json"; std::remove(path.c_str()); }
  void TearDown() override { std::remove(path.c_str()); }
  std::string path;
};

Trial make_trial(int index, const char* optimizer, double accuracy) {
  Trial trial;
  trial.index = index;
  trial.config.set("optimizer", json::Value(optimizer));
  trial.config.set("num_epochs", json::Value(2));
  ml::EpochStats e1{.epoch = 1, .train_loss = 1.5, .train_accuracy = 0.4, .val_accuracy = 0.5};
  ml::EpochStats e2{.epoch = 2, .train_loss = 0.9, .train_accuracy = 0.7, .val_accuracy = accuracy};
  trial.result.history = {e1, e2};
  trial.result.final_val_accuracy = accuracy;
  trial.result.best_val_accuracy = accuracy;
  trial.result.epochs_run = 2;
  return trial;
}

TEST_F(CheckpointFixture, RoundTripPreservesTrials) {
  std::vector<Trial> trials{make_trial(0, "Adam", 0.8), make_trial(1, "SGD", 0.7)};
  Trial failed;
  failed.index = 2;
  failed.config.set("optimizer", json::Value("RMSprop"));
  failed.failed = true;
  failed.failure_reason = "node failure";
  trials.push_back(failed);

  for (const Trial& t : trials) append_checkpoint(path, t);
  const std::vector<Trial> loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[0].result.final_val_accuracy, 0.8);
  EXPECT_EQ(loaded[0].result.history.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].result.history[1].train_loss, 0.9);
  EXPECT_EQ(json::serialize(loaded[1].config), json::serialize(trials[1].config));
  EXPECT_TRUE(loaded[2].failed);
  EXPECT_EQ(loaded[2].failure_reason, "node failure");
}

TEST_F(CheckpointFixture, MissingFileLoadsEmpty) {
  EXPECT_TRUE(load_checkpoint("/tmp/definitely_missing_checkpoint.json").empty());
}

TEST_F(CheckpointFixture, CorruptFileStartsFresh) {
  // A damaged checkpoint must never abort a run: it is logged and treated
  // as absent so the driver starts from scratch.
  {
    std::ofstream out(path);
    out << "{\"format\": \"something-else\"}";
  }
  EXPECT_TRUE(load_checkpoint(path).empty());
}

TEST_F(CheckpointFixture, FindCompletedMatchesByConfig) {
  const std::vector<Trial> trials{make_trial(0, "Adam", 0.8), make_trial(1, "SGD", 0.7)};
  const auto completed = completed_by_config(trials);
  Config probe;
  probe.set("optimizer", json::Value("SGD"));
  probe.set("num_epochs", json::Value(2));
  const auto hit = completed.find(json::serialize(probe));
  ASSERT_NE(hit, completed.end());
  EXPECT_DOUBLE_EQ(hit->second.final_val_accuracy, 0.7);
  probe.set("num_epochs", json::Value(3));
  EXPECT_EQ(completed.find(json::serialize(probe)), completed.end());

  // A config that failed, then completed twice (a resumed study retrains
  // what failed): the failure is skipped and the first completion is kept.
  Trial failed = make_trial(0, "Adam", 0.0);
  failed.failed = true;
  const auto repeated =
      completed_by_config({failed, make_trial(1, "Adam", 0.8), make_trial(2, "Adam", 0.6)});
  ASSERT_EQ(repeated.size(), 1u);
  EXPECT_DOUBLE_EQ(repeated.begin()->second.final_val_accuracy, 0.8);
}

TEST_F(CheckpointFixture, AppendWritesOneRecordPerTrial) {
  // O(1) checkpoint I/O per trial: each append grows the log by exactly
  // that trial's record, whatever the log already holds.
  std::uintmax_t size = 0;
  for (int i = 0; i < 5; ++i) {
    const Trial trial = make_trial(i, i % 2 == 0 ? "Adam" : "SGD", 0.5 + 0.05 * i);
    append_checkpoint(path, trial);
    const std::uintmax_t grown = std::filesystem::file_size(path);
    EXPECT_EQ(grown - size, json::encode_record(trial_to_json(trial)).size()) << "trial " << i;
    size = grown;
  }
  EXPECT_EQ(load_checkpoint(path).size(), 5u);
}

TEST_F(CheckpointFixture, DriverReplaysCheckpointedTrials) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 30, 6);
  const SearchSpace space = SearchSpace::from_json_text(kSpace);

  rt::RuntimeOptions rt_options;
  cluster::NodeSpec node;
  node.cpus = 2;
  rt_options.cluster = cluster::homogeneous(1, node);

  DriverOptions driver_options;
  driver_options.epoch_cap = 1;
  driver_options.checkpoint_path = path;

  // First run: everything trains, checkpoint written.
  HpoOutcome first;
  {
    rt::Runtime runtime(std::move(rt_options));
    HpoDriver driver(runtime.main_study(), dataset, driver_options);
    GridSearch grid(space);
    first = driver.run(grid);
  }
  ASSERT_EQ(first.trials.size(), 4u);
  EXPECT_TRUE(std::filesystem::exists(path));

  // Second run: all four configs replay; no tasks are submitted.
  rt::RuntimeOptions rt_options2;
  rt_options2.cluster = cluster::homogeneous(1, node);
  rt::Runtime runtime(std::move(rt_options2));
  HpoDriver driver(runtime.main_study(), dataset, driver_options);
  GridSearch grid(space);
  const HpoOutcome second = driver.run(grid);
  ASSERT_EQ(second.trials.size(), 4u);
  EXPECT_EQ(runtime.task_count(), 0u);  // nothing resubmitted
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(second.trials[i].result.final_val_accuracy,
                     first.trials[i].result.final_val_accuracy);
}

TEST_F(CheckpointFixture, PartialCheckpointOnlySkipsCompleted) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 30, 7);
  const SearchSpace space = SearchSpace::from_json_text(kSpace);
  const auto grid_configs = space.enumerate_grid();

  // Pretend only the first two configs finished before a crash.
  std::vector<Trial> partial;
  for (int i = 0; i < 2; ++i) {
    Trial t = make_trial(i, "x", 0.9);
    t.config = grid_configs[static_cast<std::size_t>(i)];
    partial.push_back(std::move(t));
  }
  for (const Trial& t : partial) append_checkpoint(path, t);

  cluster::NodeSpec node;
  node.cpus = 2;
  rt::RuntimeOptions rt_options;
  rt_options.cluster = cluster::homogeneous(1, node);
  rt::Runtime runtime(std::move(rt_options));
  DriverOptions driver_options;
  driver_options.epoch_cap = 1;
  driver_options.checkpoint_path = path;
  HpoDriver driver(runtime.main_study(), dataset, driver_options);
  GridSearch grid(space);
  const HpoOutcome outcome = driver.run(grid);
  ASSERT_EQ(outcome.trials.size(), 4u);
  EXPECT_EQ(runtime.task_count(), 2u);  // only the missing two trained
  EXPECT_DOUBLE_EQ(outcome.trials[0].result.final_val_accuracy, 0.9);  // replayed
  // Final checkpoint now holds all four.
  EXPECT_EQ(load_checkpoint(path).size(), 4u);
}

}  // namespace
}  // namespace chpo::hpo
