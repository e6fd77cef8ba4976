// Cross-trial reuse subsystem: stage keys, snapshot IO, the result cache,
// the stage-tree planner, and end-to-end merged-vs-unmerged bit-identity
// through the HPO driver on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "hpo/checkpoint.hpp"
#include "hpo/driver.hpp"
#include "hpo/hyperband.hpp"
#include "jsonlite/record.hpp"
#include "ml/dataset.hpp"
#include "ml/trainer.hpp"
#include "reuse/planner.hpp"
#include "reuse/result_cache.hpp"
#include "reuse/snapshot_io.hpp"
#include "reuse/stage_key.hpp"

namespace chpo::reuse {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory removed at scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("chpo_reuse_" + tag + "_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

ml::TrainConfig base_config() {
  ml::TrainConfig tc;
  tc.optimizer = "Adam";
  tc.num_epochs = 4;
  tc.batch_size = 16;
  tc.learning_rate = 0.01f;
  tc.seed = 11;
  return tc;
}

// ------------------------------------------------------------ stage keys

TEST(StageKey, IdenticalConfigsHashIdentically) {
  const ml::TrainConfig a = base_config();
  const ml::TrainConfig b = base_config();
  EXPECT_EQ(train_content_hash(a), train_content_hash(b));
  const ml::Dataset data = ml::make_mnist_like(40, 16, 1);
  const StageKey dk = dataset_key(data);
  EXPECT_EQ(chain_key(dk, a), chain_key(dk, b));
  EXPECT_EQ(snapshot_key(chain_key(dk, a), 3), snapshot_key(chain_key(dk, b), 3));
}

TEST(StageKey, RelevantFieldChangesTheKey) {
  const ml::TrainConfig a = base_config();
  ml::TrainConfig lr = a;
  lr.learning_rate = 0.02f;
  ml::TrainConfig opt = a;
  opt.optimizer = "SGD";
  ml::TrainConfig width = a;
  width.hidden_units = 32;
  ml::TrainConfig wd = a;
  wd.weight_decay = 0.001f;
  EXPECT_NE(train_content_hash(a), train_content_hash(lr));
  EXPECT_NE(train_content_hash(a), train_content_hash(opt));
  EXPECT_NE(train_content_hash(a), train_content_hash(width));
  EXPECT_NE(train_content_hash(a), train_content_hash(wd));
}

TEST(StageKey, IrrelevantFieldsDoNotChangeTheKey) {
  const ml::TrainConfig a = base_config();
  ml::TrainConfig threads = a;
  threads.threads = 8;  // execution detail, not training content
  ml::TrainConfig budget = a;
  budget.num_epochs = 20;  // budget lives in the snapshot/result key, not the chain
  EXPECT_EQ(train_content_hash(a), train_content_hash(threads));
  EXPECT_EQ(train_content_hash(a), train_content_hash(budget));

  const ml::Dataset data = ml::make_mnist_like(40, 16, 1);
  const StageKey dk = dataset_key(data);
  EXPECT_EQ(chain_key(dk, a), chain_key(dk, budget));
}

TEST(StageKey, NonConstantScheduleSplitsBudgets) {
  // multiplier(epoch, total) depends on the total budget, so different
  // budgets are different trajectories and must not share a chain.
  ml::TrainConfig a = base_config();
  a.lr_schedule = "cosine";
  ml::TrainConfig b = a;
  b.num_epochs = 8;
  const ml::Dataset data = ml::make_mnist_like(40, 16, 1);
  const StageKey dk = dataset_key(data);
  EXPECT_NE(chain_key(dk, a), chain_key(dk, b));
}

TEST(StageKey, DerivedSeedSharedAcrossEpochVariants) {
  const ml::TrainConfig a = base_config();
  ml::TrainConfig b = a;
  b.num_epochs = 16;
  EXPECT_EQ(derive_seed(42, a), derive_seed(42, b));
  EXPECT_NE(derive_seed(42, a), derive_seed(43, a));
}

TEST(StageKey, DatasetIdentityMatters) {
  const ml::Dataset d1 = ml::make_mnist_like(40, 16, 1);
  const ml::Dataset d2 = ml::make_mnist_like(40, 16, 2);  // different seed
  EXPECT_EQ(dataset_key(d1), dataset_key(ml::make_mnist_like(40, 16, 1)));
  EXPECT_NE(dataset_key(d1), dataset_key(d2));
}

// -------------------------------------------------------- snapshot round trip

ml::TrainSnapshot make_snapshot(const ml::Dataset& data, const ml::TrainConfig& tc, int epochs) {
  ml::TrainerSession session(data, tc);
  for (int i = 0; i < epochs; ++i) session.step_epoch();
  return session.snapshot();
}

void expect_snapshot_eq(const ml::TrainSnapshot& a, const ml::TrainSnapshot& b) {
  EXPECT_EQ(a.epochs_done, b.epochs_done);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.epochs_since_best, b.epochs_since_best);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    ASSERT_EQ(a.weights[i].size(), b.weights[i].size());
    for (std::size_t j = 0; j < a.weights[i].size(); ++j)
      EXPECT_EQ(a.weights[i][j], b.weights[i][j]);
  }
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.shuffle_rng.s, b.shuffle_rng.s);
  ASSERT_EQ(a.partial.history.size(), b.partial.history.size());
  for (std::size_t i = 0; i < a.partial.history.size(); ++i) {
    EXPECT_EQ(a.partial.history[i].train_loss, b.partial.history[i].train_loss);
    EXPECT_EQ(a.partial.history[i].val_accuracy, b.partial.history[i].val_accuracy);
  }
  EXPECT_EQ(a.partial.final_val_accuracy, b.partial.final_val_accuracy);
  EXPECT_EQ(a.partial.stopped_early, b.partial.stopped_early);
}

TEST(SnapshotIo, BinaryRoundTripIsBitExact) {
  const ml::Dataset data = ml::make_mnist_like(60, 20, 3);
  ml::TrainConfig tc = base_config();
  tc.dropout = 0.1f;
  tc.batch_norm = true;
  const ml::TrainSnapshot snap = make_snapshot(data, tc, 2);
  const std::string bytes = serialize_snapshot(snap);
  const ml::TrainSnapshot back = deserialize_snapshot(bytes);
  expect_snapshot_eq(snap, back);
}

TEST(SnapshotIo, TruncationAtEveryPrefixThrowsNeverCrashes) {
  const ml::Dataset data = ml::make_mnist_like(40, 16, 4);
  const std::string bytes = serialize_snapshot(make_snapshot(data, base_config(), 1));
  // Every strict prefix must throw (strictly bounds-checked reader).
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{41},
                          bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(deserialize_snapshot(bytes.substr(0, cut)), std::runtime_error) << cut;
  }
  // Flipping the magic fails fast.
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5a);
  EXPECT_THROW(deserialize_snapshot(flipped), std::runtime_error);
  // Trailing garbage is rejected too.
  EXPECT_THROW(deserialize_snapshot(bytes + "x"), std::runtime_error);
}

// ------------------------------------------------------------ result cache

TEST(ResultCacheTest, HitMissAndFirstWriteWins) {
  ReusePolicy policy;
  policy.enabled = true;
  ResultCache cache(policy);
  const StageKey key{1, 2};

  EXPECT_EQ(cache.get_snapshot(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  const ml::Dataset data = ml::make_mnist_like(40, 16, 5);
  auto snap = std::make_shared<const ml::TrainSnapshot>(make_snapshot(data, base_config(), 1));
  EXPECT_TRUE(cache.put_snapshot(key, snap));
  // Speculative twin commits the same key: dropped, counted, not an error.
  EXPECT_FALSE(cache.put_snapshot(key, snap));
  EXPECT_EQ(cache.stats().duplicate_puts, 1u);

  EXPECT_NE(cache.get_snapshot(key), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Probes are silent: no hit/miss accounting.
  EXPECT_EQ(cache.probe_snapshot(StageKey{9, 9}), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  ml::TrainResult result;
  result.final_val_accuracy = 0.5;
  result.epochs_run = 4;
  EXPECT_TRUE(cache.put_result(StageKey{3, 4}, result));
  EXPECT_FALSE(cache.put_result(StageKey{3, 4}, result));
  const auto got = cache.get_result(StageKey{3, 4});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->final_val_accuracy, 0.5);
}

TEST(ResultCacheTest, MemoryLruEvictsOldestFirst) {
  const ml::Dataset data = ml::make_mnist_like(40, 16, 6);
  auto snap = std::make_shared<const ml::TrainSnapshot>(make_snapshot(data, base_config(), 1));
  const std::size_t one = snapshot_bytes(*snap);

  ReusePolicy policy;
  policy.enabled = true;
  policy.max_memory_bytes = one * 2 + one / 2;  // room for two entries
  ResultCache cache(policy);
  cache.put_snapshot(StageKey{1, 0}, snap);
  cache.put_snapshot(StageKey{2, 0}, snap);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Touch {1,0} so {2,0} is the least recently used.
  EXPECT_NE(cache.probe_snapshot(StageKey{1, 0}), nullptr);
  cache.put_snapshot(StageKey{3, 0}, snap);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_NE(cache.probe_snapshot(StageKey{1, 0}), nullptr);  // survived
  EXPECT_EQ(cache.probe_snapshot(StageKey{2, 0}), nullptr);  // evicted
}

TEST(ResultCacheTest, PersistsAcrossInstances) {
  TempDir dir("persist");
  const ml::Dataset data = ml::make_mnist_like(40, 16, 7);
  const ml::TrainSnapshot snap = make_snapshot(data, base_config(), 2);
  {
    ReusePolicy policy;
    policy.enabled = true;
    policy.cache_dir = dir.str();
    ResultCache cache(policy);
    cache.put_snapshot(StageKey{5, 6}, std::make_shared<const ml::TrainSnapshot>(snap));
    ml::TrainResult r;
    r.final_val_accuracy = 0.75;
    cache.put_result(StageKey{7, 8}, r);
    EXPECT_GT(cache.stats().bytes_written, 0u);
  }
  ReusePolicy policy;
  policy.enabled = true;
  policy.cache_dir = dir.str();
  ResultCache warm(policy);
  const auto loaded = warm.get_snapshot(StageKey{5, 6});
  ASSERT_NE(loaded, nullptr);
  expect_snapshot_eq(snap, *loaded);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  const auto result = warm.get_result(StageKey{7, 8});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->final_val_accuracy, 0.75);
}

TEST(ResultCacheTest, TruncatedDiskEntryIsAWarnedMissNotACrash) {
  TempDir dir("truncate");
  const ml::Dataset data = ml::make_mnist_like(40, 16, 8);
  ReusePolicy policy;
  policy.enabled = true;
  policy.cache_dir = dir.str();
  {
    ResultCache cache(policy);
    cache.put_snapshot(StageKey{11, 12},
                       std::make_shared<const ml::TrainSnapshot>(make_snapshot(data, base_config(), 1)));
  }
  // Truncate the .snap file mid-byte (simulates a crash mid-write that
  // somehow survived the atomic rename, or disk corruption).
  fs::path snap_file;
  for (const auto& e : fs::directory_iterator(dir.path))
    if (e.path().extension() == ".snap") snap_file = e.path();
  ASSERT_FALSE(snap_file.empty());
  const auto size = fs::file_size(snap_file);
  fs::resize_file(snap_file, size / 2 + 1);

  ResultCache reopened(policy);
  EXPECT_EQ(reopened.get_snapshot(StageKey{11, 12}), nullptr);  // warned miss
  EXPECT_EQ(reopened.stats().corrupt, 1u);
  EXPECT_EQ(reopened.stats().misses, 1u);
  EXPECT_FALSE(fs::exists(snap_file));  // dropped, will be recomputed
}

TEST(ResultCacheTest, GarbageResultJsonIsDropped) {
  TempDir dir("garbage");
  ReusePolicy policy;
  policy.enabled = true;
  policy.cache_dir = dir.str();
  {
    ResultCache cache(policy);
    ml::TrainResult r;
    r.final_val_accuracy = 0.9;
    cache.put_result(StageKey{20, 21}, r);
  }
  for (const auto& e : fs::directory_iterator(dir.path)) {
    std::ofstream out(e.path(), std::ios::trunc);
    out << "{not json";
  }
  ResultCache reopened(policy);
  EXPECT_FALSE(reopened.get_result(StageKey{20, 21}).has_value());
  EXPECT_EQ(reopened.stats().corrupt, 1u);
}

// --------------------------------------------------------- checkpoint file

TEST(CheckpointRobustness, CorruptCheckpointStartsFreshInsteadOfThrowing) {
  TempDir dir("ckpt");
  fs::create_directories(dir.path);
  const fs::path path = dir.path / "checkpoint.json";
  {
    // A whole-file JSON checkpoint from before the record log: not framed
    // as records, so it is a warned fresh start.
    std::ofstream out(path);
    out << "{\n  \"trials\": [\n    {\n      \"index\": 0\n    }\n  ]\n}\n";
  }
  EXPECT_TRUE(hpo::load_checkpoint(path.string()).empty());
  {
    std::ofstream out(path, std::ios::trunc);
    out << "total garbage";
  }
  EXPECT_TRUE(hpo::load_checkpoint(path.string()).empty());
}

hpo::Trial make_checkpoint_trial(int index) {
  hpo::Trial t;
  t.index = index;
  json::Value config;
  config.set("learning_rate", json::Value(0.01));
  config.set("num_epochs", json::Value(static_cast<std::int64_t>(4)));
  t.config = config;
  t.result.final_val_accuracy = 0.5 + 0.1 * index;
  t.result.best_val_accuracy = t.result.final_val_accuracy;
  t.result.epochs_run = 4;
  return t;
}

TEST(CheckpointRobustness, TruncationAtEveryPrefixNeverThrows) {
  // Mirror of SnapshotIo.TruncationAtEveryPrefixThrowsNeverCrashes for the
  // checkpoint log: a crash can leave any prefix of it on disk, and every
  // one of them must load without an exception or a crash, replaying
  // exactly the records whose line (newline included) survived the cut.
  TempDir dir("ckpt_prefix");
  fs::create_directories(dir.path);
  const fs::path path = dir.path / "checkpoint.json";
  const std::vector<hpo::Trial> trials = {make_checkpoint_trial(0), make_checkpoint_trial(1),
                                          make_checkpoint_trial(2)};
  for (const hpo::Trial& t : trials) hpo::append_checkpoint(path.string(), t);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(hpo::load_checkpoint(path.string()).size(), trials.size());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << bytes.substr(0, cut);
    }
    const auto whole_lines =
        static_cast<std::size_t>(std::count(bytes.begin(), bytes.begin() + cut, '\n'));
    std::vector<hpo::Trial> loaded;
    EXPECT_NO_THROW(loaded = hpo::load_checkpoint(path.string())) << "prefix " << cut;
    EXPECT_LE(loaded.size(), trials.size()) << "prefix " << cut;
    EXPECT_EQ(loaded.size(), whole_lines) << "prefix " << cut;
  }
}

TEST(CheckpointRobustness, TornTailIsCutSoLaterAppendsReplay) {
  // Without the cut, the next append would glue onto the torn half record
  // and be lost with it on the following load.
  TempDir dir("ckpt_torn");
  fs::create_directories(dir.path);
  const std::string path = (dir.path / "checkpoint.json").string();
  hpo::append_checkpoint(path, make_checkpoint_trial(0));
  hpo::append_checkpoint(path, make_checkpoint_trial(1));
  {
    const std::string record = json::encode_record(hpo::trial_to_json(make_checkpoint_trial(2)));
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << record.substr(0, record.size() / 2);  // a crash mid-append
  }
  EXPECT_EQ(hpo::load_checkpoint(path).size(), 2u);
  hpo::append_checkpoint(path, make_checkpoint_trial(2));
  const std::vector<hpo::Trial> loaded = hpo::load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[2].index, 2);
  EXPECT_DOUBLE_EQ(loaded[2].result.final_val_accuracy, 0.7);
}

TEST(CheckpointRobustness, DamagedTrialEntryIsSkippedIntactOnesSalvaged) {
  // Intact records, one of them not a trial: the other trials must replay
  // (the ResultCache policy — salvage what is intact, retrain the rest).
  TempDir dir("ckpt_salvage");
  fs::create_directories(dir.path);
  const fs::path path = dir.path / "checkpoint.json";
  {
    json::Value rotten;
    rotten.set("index", json::Value("rotten"));
    std::ofstream out(path, std::ios::binary);
    out << json::encode_record(hpo::trial_to_json(make_checkpoint_trial(0)))
        << json::encode_record(rotten)
        << json::encode_record(hpo::trial_to_json(make_checkpoint_trial(2)));
  }
  const std::vector<hpo::Trial> loaded = hpo::load_checkpoint(path.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].index, 0);
  EXPECT_EQ(loaded[1].index, 2);
  EXPECT_DOUBLE_EQ(loaded[1].result.final_val_accuracy, 0.7);
}

// ----------------------------------------------------- session bit identity

TEST(TrainerSessionReuse, SnapshotRestoreMatchesUninterruptedRun) {
  const ml::Dataset data = ml::make_mnist_like(120, 40, 9);
  ml::TrainConfig tc = base_config();
  tc.num_epochs = 5;
  tc.dropout = 0.2f;
  tc.batch_norm = true;

  ml::TrainerSession straight(data, tc);
  while (straight.step_epoch()) {
  }

  // Same run, interrupted at epoch 2 and resumed in a fresh session via a
  // serialized snapshot (the exact path a stage task takes).
  ml::TrainerSession first(data, tc);
  first.step_epoch();
  first.step_epoch();
  const std::string bytes = serialize_snapshot(first.snapshot());
  ml::TrainerSession resumed(data, tc);
  resumed.restore(deserialize_snapshot(bytes));
  while (resumed.step_epoch()) {
  }

  const ml::TrainResult& a = straight.result();
  const ml::TrainResult& b = resumed.result();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].train_loss, b.history[i].train_loss) << "epoch " << i;
    EXPECT_EQ(a.history[i].train_accuracy, b.history[i].train_accuracy) << "epoch " << i;
    EXPECT_EQ(a.history[i].val_accuracy, b.history[i].val_accuracy) << "epoch " << i;
  }
  EXPECT_EQ(a.final_val_accuracy, b.final_val_accuracy);
  EXPECT_EQ(a.best_val_accuracy, b.best_val_accuracy);
}

TEST(TrainerSessionReuse, SnapshotCrossesEpochBudgets) {
  // A rung promotion: snapshot taken under a 2-epoch budget, resumed under
  // a 6-epoch budget. Must equal a straight 6-epoch run (constant lr).
  const ml::Dataset data = ml::make_mnist_like(80, 30, 10);
  ml::TrainConfig small = base_config();
  small.num_epochs = 2;
  ml::TrainConfig big = small;
  big.num_epochs = 6;

  ml::TrainerSession rung1(data, small);
  while (rung1.step_epoch()) {
  }
  EXPECT_TRUE(rung1.finished());

  ml::TrainerSession rung2(data, big);
  rung2.restore(rung1.snapshot());
  EXPECT_FALSE(rung2.finished());  // bigger budget reopens the run
  while (rung2.step_epoch()) {
  }

  ml::TrainerSession straight(data, big);
  while (straight.step_epoch()) {
  }
  ASSERT_EQ(rung2.result().history.size(), straight.result().history.size());
  for (std::size_t i = 0; i < straight.result().history.size(); ++i)
    EXPECT_EQ(rung2.result().history[i].val_accuracy, straight.result().history[i].val_accuracy);
}

// ------------------------------------------------------------- planner

TEST(Planner, MergesSharedPrefixesAndSplitsAtBudgets) {
  ml::TrainConfig tc = base_config();
  std::vector<TrialRequest> trials;
  for (const int budget : {2, 4, 8}) {
    ml::TrainConfig c = tc;
    c.num_epochs = budget;
    trials.push_back({static_cast<int>(trials.size()), c});
  }
  ml::TrainConfig other = tc;
  other.learning_rate = 0.05f;
  other.num_epochs = 4;
  trials.push_back({3, other});

  const StageKey dk{1, 1};
  const auto chains = plan_chains(dk, trials, /*merge=*/true);
  ASSERT_EQ(chains.size(), 2u);

  const PlannedChain* shared = nullptr;
  for (const PlannedChain& c : chains)
    if (c.trials.size() == 3) shared = &c;
  ASSERT_NE(shared, nullptr);
  ASSERT_EQ(shared->segments.size(), 3u);
  EXPECT_EQ(shared->segments[0].begin_epoch, 0);
  EXPECT_EQ(shared->segments[0].end_epoch, 2);
  EXPECT_EQ(shared->segments[0].shared_by, 3u);
  EXPECT_EQ(shared->segments[1].end_epoch, 4);
  EXPECT_EQ(shared->segments[1].shared_by, 2u);
  EXPECT_EQ(shared->segments[2].end_epoch, 8);
  EXPECT_EQ(shared->segments[2].shared_by, 1u);
  EXPECT_EQ(shared->config.num_epochs, 8);

  // Unmerged: one chain per trial, nothing shared.
  const auto solo = plan_chains(dk, trials, /*merge=*/false);
  ASSERT_EQ(solo.size(), 4u);
  for (const PlannedChain& c : solo) {
    ASSERT_EQ(c.segments.size(), 1u);
    EXPECT_EQ(c.segments[0].shared_by, 1u);
  }
}

// ------------------------------------------- end-to-end driver bit identity

hpo::SearchSpace reuse_space() {
  return hpo::SearchSpace::from_json_text(R"({
    "learning_rate": [0.01, 0.05],
    "num_epochs": [2, 4],
    "batch_size": [16]
  })");
}

rt::RuntimeOptions thread_cluster(unsigned cpus = 4) {
  rt::RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "t";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(1, node);
  return opts;
}

hpo::HpoOutcome run_grid(const ml::Dataset& dataset, bool merge, const std::string& cache_dir,
                         const std::string& checkpoint = "") {
  rt::Runtime runtime(thread_cluster());
  hpo::DriverOptions options;
  options.epoch_divisor = 1;
  options.seed = 21;
  options.reuse.enabled = true;
  options.reuse.merge = merge;
  options.reuse.cache_dir = cache_dir;
  options.checkpoint_path = checkpoint;
  hpo::HpoDriver driver(runtime.main_study(), dataset, options);
  hpo::GridSearch grid(reuse_space());
  return driver.run(grid);
}

void expect_trials_bit_identical(const std::vector<hpo::Trial>& a,
                                 const std::vector<hpo::Trial>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    ASSERT_EQ(a[t].failed, b[t].failed);
    const ml::TrainResult& ra = a[t].result;
    const ml::TrainResult& rb = b[t].result;
    ASSERT_EQ(ra.history.size(), rb.history.size());
    for (std::size_t e = 0; e < ra.history.size(); ++e) {
      EXPECT_EQ(ra.history[e].train_loss, rb.history[e].train_loss);
      EXPECT_EQ(ra.history[e].train_accuracy, rb.history[e].train_accuracy);
      EXPECT_EQ(ra.history[e].val_accuracy, rb.history[e].val_accuracy);
    }
    EXPECT_EQ(ra.final_val_accuracy, rb.final_val_accuracy);
    EXPECT_EQ(ra.best_val_accuracy, rb.best_val_accuracy);
    EXPECT_EQ(ra.epochs_run, rb.epochs_run);
    EXPECT_EQ(ra.stopped_early, rb.stopped_early);
  }
}

TEST(DriverReuse, MergedGridBitIdenticalToUnmergedOnThreadBackend) {
  const ml::Dataset dataset = ml::make_mnist_like(120, 40, 12);
  const hpo::HpoOutcome unmerged = run_grid(dataset, /*merge=*/false, "");
  const hpo::HpoOutcome merged = run_grid(dataset, /*merge=*/true, "");
  ASSERT_EQ(unmerged.trials.size(), 4u);
  expect_trials_bit_identical(unmerged.trials, merged.trials);

  ASSERT_TRUE(merged.reuse.has_value());
  EXPECT_EQ(merged.reuse->chains, 2u);
  EXPECT_EQ(merged.reuse->shared_stages, 2u);
  EXPECT_LT(merged.reuse->planned_epochs, merged.reuse->naive_epochs);
  ASSERT_TRUE(unmerged.reuse.has_value());
  EXPECT_EQ(unmerged.reuse->shared_stages, 0u);
  EXPECT_EQ(unmerged.reuse->planned_epochs, unmerged.reuse->naive_epochs);
}

TEST(DriverReuse, WarmCacheReplaysEverythingWithoutTasks) {
  TempDir dir("warm");
  const ml::Dataset dataset = ml::make_mnist_like(120, 40, 13);
  const hpo::HpoOutcome cold = run_grid(dataset, true, dir.str());
  ASSERT_TRUE(cold.reuse.has_value());
  EXPECT_EQ(cold.reuse->replayed_trials, 0u);
  EXPECT_GT(cold.reuse->cache.bytes_written, 0u);

  const hpo::HpoOutcome warm = run_grid(dataset, true, dir.str());
  ASSERT_TRUE(warm.reuse.has_value());
  EXPECT_EQ(warm.reuse->replayed_trials, warm.trials.size());
  EXPECT_EQ(warm.reuse->stages, 0u);  // zero tasks submitted
  EXPECT_GE(warm.reuse->cache.hits, warm.trials.size());
  expect_trials_bit_identical(cold.trials, warm.trials);
  // Replayed trials consumed no runtime attempts.
  for (const hpo::Trial& t : warm.trials) EXPECT_EQ(t.attempts, 0);
}

TEST(DriverReuse, CacheServedTrialsAreCheckpointed) {
  // A trial the result cache serves is still a finished trial of this
  // study: it goes into the checkpoint log like a trained one, so a crash
  // after it does not lose it even when no trial trains afterwards.
  TempDir dir("warm_ckpt");
  const ml::Dataset dataset = ml::make_mnist_like(120, 40, 13);
  (void)run_grid(dataset, true, dir.str());
  const std::string checkpoint = (dir.path / "trials.ndjson").string();
  const hpo::HpoOutcome warm = run_grid(dataset, true, dir.str(), checkpoint);
  ASSERT_TRUE(warm.reuse.has_value());
  ASSERT_EQ(warm.reuse->replayed_trials, warm.trials.size());
  const std::vector<hpo::Trial> logged = hpo::load_checkpoint(checkpoint);
  ASSERT_EQ(logged.size(), warm.trials.size());
  expect_trials_bit_identical(warm.trials, logged);
}

TEST(DriverReuse, SimBackendPlansMergedGraph) {
  // Cost-only simulation: bodies never run, but the merged task graph and
  // its virtual makespan must reflect the stage tree.
  auto run_sim = [](bool merge) {
    const ml::Dataset dataset = ml::make_mnist_like(60, 20, 14);
    // One 4-core node + 4-cpu trials: tasks serialize, so the virtual
    // makespan tracks total planned work, not just the critical path.
    rt::RuntimeOptions opts = thread_cluster(4);
    opts.simulate = true;
    rt::Runtime runtime(std::move(opts));
    hpo::DriverOptions options;
    options.epoch_divisor = 1;
    options.workload = ml::mnist_paper_model();
    options.trial_constraint = {.cpus = 4};
    options.reuse.enabled = true;
    options.reuse.merge = merge;
    hpo::HpoDriver driver(runtime.main_study(), dataset, options);
    hpo::GridSearch grid(reuse_space());
    const hpo::HpoOutcome outcome = driver.run(grid);
    return std::make_pair(outcome.reuse->planned_epochs, runtime.analyze().makespan());
  };
  const auto [unmerged_epochs, unmerged_makespan] = run_sim(false);
  const auto [merged_epochs, merged_makespan] = run_sim(true);
  EXPECT_EQ(unmerged_epochs, 12);
  EXPECT_EQ(merged_epochs, 8);
  EXPECT_LT(merged_makespan, unmerged_makespan);
}

TEST(DriverReuse, HyperbandRungPromotionsResumeFromCache) {
  const ml::Dataset dataset = ml::make_mnist_like(100, 30, 15);
  rt::Runtime runtime(thread_cluster());
  hpo::HalvingOptions options;
  options.initial_configs = 4;
  options.initial_epochs = 2;
  options.max_epochs = 6;
  options.driver.epoch_divisor = 1;
  options.driver.seed = 33;
  options.driver.reuse.enabled = true;
  const hpo::SearchSpace space = hpo::SearchSpace::from_json_text(R"({
    "learning_rate": [0.005, 0.01, 0.02, 0.05],
    "batch_size": [16]
  })");
  const hpo::HalvingOutcome outcome = successive_halving(runtime.main_study(), dataset, space, options);
  ASSERT_GE(outcome.rungs.size(), 2u);
  ASSERT_TRUE(outcome.reuse.has_value());
  EXPECT_GT(outcome.reuse->stages, 0u);
  EXPECT_GT(outcome.best_accuracy, 0.0);

  // The promoted rung-2 config must match a straight 6-epoch train: the
  // resume-from-rung-1-checkpoint path may not change the numbers.
  const hpo::RungResult& rung2 = outcome.rungs[1];
  ASSERT_FALSE(rung2.trials.empty());
  const hpo::Trial& promoted = rung2.trials.front();
  ml::TrainConfig tc = hpo::experiment_train_config(promoted.config, options.driver, /*unused*/ 0);
  ml::TrainerSession straight(dataset, tc);
  while (straight.step_epoch()) {
  }
  ASSERT_EQ(promoted.result.history.size(), straight.result().history.size());
  for (std::size_t e = 0; e < straight.result().history.size(); ++e)
    EXPECT_EQ(promoted.result.history[e].val_accuracy, straight.result().history[e].val_accuracy);
}

}  // namespace
}  // namespace chpo::reuse
