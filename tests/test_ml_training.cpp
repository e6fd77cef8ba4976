// Dataset generation and training-loop tests: learning actually happens,
// early stopping works, runs are reproducible.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "ml/dataset.hpp"
#include "ml/trainer.hpp"

namespace chpo::ml {
namespace {

TEST(Dataset, MnistLikeShape) {
  const Dataset ds = make_mnist_like(200, 50, 1);
  EXPECT_EQ(ds.channels, 1u);
  EXPECT_EQ(ds.height, 28u);
  EXPECT_EQ(ds.sample_features(), 784u);
  EXPECT_EQ(ds.train_size(), 200u);
  EXPECT_EQ(ds.test_size(), 50u);
  EXPECT_EQ(ds.train_x.dim(0), 200u);
}

TEST(Dataset, CifarLikeShape) {
  const Dataset ds = make_cifar_like(100, 20, 1);
  EXPECT_EQ(ds.channels, 3u);
  EXPECT_EQ(ds.sample_features(), 3u * 32 * 32);
}

TEST(Dataset, LabelsBalancedAndInRange) {
  const Dataset ds = make_mnist_like(500, 100, 2);
  std::vector<int> counts(10, 0);
  for (int y : ds.train_y) {
    ASSERT_GE(y, 0);
    ASSERT_LT(y, 10);
    ++counts[static_cast<std::size_t>(y)];
  }
  for (int c : counts) EXPECT_EQ(c, 50);
}

TEST(Dataset, SeededGenerationIsReproducible) {
  const Dataset a = make_mnist_like(50, 10, 7);
  const Dataset b = make_mnist_like(50, 10, 7);
  for (std::size_t i = 0; i < a.train_x.size(); ++i) EXPECT_EQ(a.train_x[i], b.train_x[i]);
  const Dataset c = make_mnist_like(50, 10, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.train_x.size() && !any_diff; ++i)
    any_diff = a.train_x[i] != c.train_x[i];
  EXPECT_TRUE(any_diff);
}

TEST(Dataset, DifficultyIncreasesNoise) {
  SyntheticSpec easy;
  easy.difficulty = 0.05;
  easy.seed = 3;
  SyntheticSpec hard = easy;
  hard.difficulty = 0.9;
  const Dataset de = make_synthetic(easy);
  const Dataset dh = make_synthetic(hard);
  // Same prototypes (same seed), so higher difficulty = higher variance.
  double var_e = 0, var_h = 0;
  for (std::size_t i = 0; i < de.train_x.size(); ++i) {
    var_e += de.train_x[i] * de.train_x[i];
    var_h += dh.train_x[i] * dh.train_x[i];
  }
  EXPECT_GT(var_h, var_e);
}

TEST(Training, ImprovesOverChanceOnEasyData) {
  const Dataset ds = make_mnist_like(600, 200, 11);
  TrainConfig config;
  config.optimizer = "Adam";
  config.num_epochs = 6;
  config.batch_size = 32;
  const TrainResult result = run_experiment(ds, config);
  EXPECT_GT(result.final_val_accuracy, 0.6);  // chance is 0.1
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_EQ(result.history.size(), 6u);
}

TEST(Training, LossDecreases) {
  const Dataset ds = make_mnist_like(400, 100, 12);
  TrainConfig config;
  config.num_epochs = 5;
  const TrainResult result = run_experiment(ds, config);
  EXPECT_LT(result.history.back().train_loss, result.history.front().train_loss);
}

TEST(Training, ReproducibleWithSameSeed) {
  const Dataset ds = make_mnist_like(200, 50, 13);
  TrainConfig config;
  config.num_epochs = 2;
  config.seed = 99;
  const TrainResult a = run_experiment(ds, config);
  const TrainResult b = run_experiment(ds, config);
  EXPECT_DOUBLE_EQ(a.final_val_accuracy, b.final_val_accuracy);
  EXPECT_DOUBLE_EQ(a.history[0].train_loss, b.history[0].train_loss);
}

TEST(Training, EarlyStopOnTargetAccuracy) {
  const Dataset ds = make_mnist_like(600, 200, 14);
  TrainConfig config;
  config.num_epochs = 50;
  config.target_accuracy = 0.5;  // easily reached long before 50 epochs
  const TrainResult result = run_experiment(ds, config);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.epochs_run, 50);
  EXPECT_GE(result.final_val_accuracy, 0.5);
}

TEST(Training, EarlyStopOnPatience) {
  const Dataset ds = make_mnist_like(100, 30, 15);
  TrainConfig config;
  config.num_epochs = 60;
  config.patience = 3;
  const TrainResult result = run_experiment(ds, config);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.epochs_run, 60);
}

TEST(Training, CifarHarderThanMnist) {
  // The Figures 7/8 contrast: identical budget, lower accuracy on the
  // CIFAR-like data.
  TrainConfig config;
  config.num_epochs = 4;
  config.batch_size = 32;
  const TrainResult mnist = run_experiment(make_mnist_like(400, 150, 16), config);
  const TrainResult cifar = run_experiment(make_cifar_like(400, 150, 16), config);
  EXPECT_GT(mnist.final_val_accuracy, cifar.final_val_accuracy);
}

TEST(Training, AllThreePaperOptimizersLearn) {
  const Dataset ds = make_mnist_like(400, 100, 17);
  for (const char* name : {"Adam", "SGD", "RMSprop"}) {
    TrainConfig config;
    config.optimizer = name;
    config.num_epochs = 5;
    const TrainResult result = run_experiment(ds, config);
    EXPECT_GT(result.final_val_accuracy, 0.4) << name;
  }
}

TEST(Training, InvalidConfigThrows) {
  const Dataset ds = make_mnist_like(50, 10, 18);
  TrainConfig config;
  config.num_epochs = 0;
  EXPECT_THROW(run_experiment(ds, config), std::invalid_argument);
  config.num_epochs = 1;
  config.batch_size = 0;
  EXPECT_THROW(run_experiment(ds, config), std::invalid_argument);
  config.batch_size = 32;
  config.optimizer = "nope";
  EXPECT_THROW(run_experiment(ds, config), std::invalid_argument);
}

TEST(Training, BatchLargerThanDatasetClamped) {
  const Dataset ds = make_mnist_like(40, 10, 19);
  TrainConfig config;
  config.num_epochs = 2;
  config.batch_size = 512;
  const TrainResult result = run_experiment(ds, config);
  EXPECT_EQ(result.epochs_run, 2);
}

TEST(Training, BestAccuracyTracksMaximum) {
  const Dataset ds = make_mnist_like(300, 100, 20);
  TrainConfig config;
  config.num_epochs = 5;
  const TrainResult result = run_experiment(ds, config);
  double best = 0;
  for (const auto& e : result.history) best = std::max(best, e.val_accuracy);
  EXPECT_DOUBLE_EQ(result.best_val_accuracy, best);
  EXPECT_GE(result.best_val_accuracy, result.final_val_accuracy);
}

TEST(Evaluate, PerfectModelScoresOne) {
  // A model evaluated on its own argmax targets scores 1.0 trivially:
  // instead check evaluate() against hand-labels on a tiny fixed model.
  Rng rng(21);
  Model mlp = make_mlp(4, {}, 2, rng);
  Tensor x({2, 4}, 0.5f);
  const Tensor logits = mlp.forward(x, false, 1);
  const auto predictions = argmax_rows(logits);
  EXPECT_DOUBLE_EQ(evaluate(mlp, x, predictions, 1), 1.0);
  // Flipping labels gives 0.
  std::vector<int> wrong = predictions;
  for (int& v : wrong) v = 1 - v;
  EXPECT_DOUBLE_EQ(evaluate(mlp, x, wrong, 1), 0.0);
}


// ---------------------------------------------------------------------
// Golden training: seeded runs must train to bit-identical weights and
// results. The kernels under the layers promise each output element the
// same summation order as the naive loops, so any reordering (or a
// skipped or duplicated term) changes this hash.
// ---------------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct TrainingHash {
  std::uint64_t value = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value ^= (v >> (8 * i)) & 0xffU;
      value *= 1099511628211ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const Tensor& t) {
    add(static_cast<std::uint64_t>(t.size()));
    for (std::size_t i = 0; i < t.size(); ++i) add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(t[i])));
  }
};

void hash_run(const Dataset& data, const TrainConfig& config, TrainingHash& hash) {
  TrainerSession session(data, config);
  while (session.step_epoch()) {
  }
  const TrainSnapshot snap = session.snapshot();
  for (const Tensor& w : snap.weights) hash.add(w);
  for (const LayerState& state : snap.layer_state)
    for (const Tensor& t : state.tensors) hash.add(t);
  const TrainResult& result = session.result();
  for (const EpochStats& e : result.history) {
    hash.add(static_cast<std::uint64_t>(e.epoch));
    hash.add(e.train_loss);
    hash.add(e.train_accuracy);
    hash.add(e.val_accuracy);
  }
  hash.add(result.final_val_accuracy);
  hash.add(result.best_val_accuracy);
  hash.add(static_cast<std::uint64_t>(result.epochs_run));
  hash.add(static_cast<std::uint64_t>(result.stopped_early));
}

TEST(GoldenTraining, SeededRunsMatchThePinnedHash) {
  const Dataset mnist = make_mnist_like(160, 48, 23);
  const Dataset cifar = make_cifar_like(48, 16, 24);
  TrainingHash hash;
  for (const std::string optimizer : {"SGD", "Adam", "RMSprop"}) {
    TrainConfig plain;
    plain.optimizer = optimizer;
    plain.num_epochs = 2;
    plain.batch_size = 20;
    plain.seed = 31;
    hash_run(mnist, plain, hash);

    // Two hidden layers with BatchNorm and Dropout, an odd batch, weight
    // decay, a schedule and a 4-thread budget (rows split across workers).
    TrainConfig deep = plain;
    deep.batch_norm = true;
    deep.dropout = 0.25f;
    deep.hidden_layers = 2;
    deep.hidden_units = 33;
    deep.batch_size = 17;
    deep.weight_decay = 1e-3f;
    deep.lr_schedule = "cosine";
    deep.threads = 4;
    hash_run(mnist, deep, hash);

    TrainConfig cnn = plain;
    cnn.num_epochs = 1;
    cnn.batch_size = 12;
    hash_run(cifar, cnn, hash);
  }
  EXPECT_EQ(hash.value, 14190627782089166156ULL) << "trained weights or results changed";
}

}  // namespace
}  // namespace chpo::ml
