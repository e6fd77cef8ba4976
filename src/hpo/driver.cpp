#include "hpo/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "hpo/checkpoint.hpp"
#include "hpo/study_run.hpp"
#include "reuse/stage_key.hpp"
#include "support/log.hpp"

namespace chpo::hpo {

ml::TrainConfig experiment_train_config(const Config& config, const DriverOptions& options,
                                        int trial_index, unsigned threads) {
  ml::TrainConfig tc;
  if (config.contains("optimizer")) tc.optimizer = config_string(config, "optimizer");
  int epochs = config.contains("num_epochs")
                   ? static_cast<int>(config_int(config, "num_epochs"))
                   : tc.num_epochs;
  epochs = std::max(1, epochs / std::max(1, options.epoch_divisor));
  if (options.epoch_cap > 0) epochs = std::min(epochs, options.epoch_cap);
  tc.num_epochs = epochs;
  if (config.contains("batch_size"))
    tc.batch_size = static_cast<int>(config_int(config, "batch_size"));
  if (config.contains("learning_rate"))
    tc.learning_rate = static_cast<float>(config_double(config, "learning_rate"));
  if (config.contains("lr_schedule")) tc.lr_schedule = config_string(config, "lr_schedule");
  if (config.contains("weight_decay"))
    tc.weight_decay = static_cast<float>(config_double(config, "weight_decay"));
  if (config.contains("batch_norm")) tc.batch_norm = config.at("batch_norm").as_bool();
  if (config.contains("hidden_layers"))
    tc.hidden_layers = static_cast<int>(config_int(config, "hidden_layers"));
  if (config.contains("hidden_units"))
    tc.hidden_units = static_cast<int>(config_int(config, "hidden_units"));
  if (config.contains("dropout"))
    tc.dropout = static_cast<float>(config_double(config, "dropout"));
  tc.threads = std::max(1u, threads);
  tc.target_accuracy = options.trial_target_accuracy;
  tc.patience = options.trial_patience;
  // Seed policy: per-trial-index by default (independent trials). Under
  // reuse with deterministic_seeds, the seed is a function of the
  // training-relevant config content, so trials differing only in epoch
  // budget are the same trajectory and share their stage-chain prefix.
  if (options.reuse.enabled && options.reuse.deterministic_seeds && options.cv_folds <= 1)
    tc.seed = reuse::derive_seed(options.seed, tc);
  else
    tc.seed = options.seed + static_cast<std::uint64_t>(trial_index) * 7919ULL;
  return tc;
}

rt::TaskDef make_experiment_task(const ml::Dataset& dataset, const Config& config,
                                 const DriverOptions& options, int trial_index) {
  rt::TaskDef def;
  def.name = "experiment";
  def.constraint = options.trial_constraint;

  const ml::Dataset* dataset_ptr = &dataset;
  def.body = [dataset_ptr, config, options, trial_index](rt::TaskContext& ctx) -> std::any {
    const ml::TrainConfig tc =
        experiment_train_config(config, options, trial_index, ctx.thread_budget());
    if (options.cv_folds > 1) {
      // Cross-validated trial: mean fold accuracy is the score; history
      // records one entry per fold so reports still have a curve to show.
      const ml::CvResult cv = ml::cross_validate(*dataset_ptr, tc, options.cv_folds);
      ml::TrainResult result;
      for (std::size_t fold = 0; fold < cv.fold_accuracies.size(); ++fold) {
        ml::EpochStats stats;
        stats.epoch = static_cast<int>(fold) + 1;
        stats.val_accuracy = cv.fold_accuracies[fold];
        result.history.push_back(stats);
      }
      result.final_val_accuracy = cv.mean_accuracy;
      result.best_val_accuracy = cv.mean_accuracy;
      result.epochs_run = tc.num_epochs;
      return result;
    }
    return ml::run_experiment(*dataset_ptr, tc);
  };

  if (options.workload) {
    const ml::WorkloadModel workload = *options.workload;
    const std::string optimizer =
        config.contains("optimizer") ? config_string(config, "optimizer") : "Adam";
    const int epochs =
        config.contains("num_epochs") ? static_cast<int>(config_int(config, "num_epochs")) : 10;
    const int batch =
        config.contains("batch_size") ? static_cast<int>(config_int(config, "batch_size")) : 32;
    def.cost = [workload, optimizer, epochs, batch](const rt::Placement& placement,
                                                    const cluster::NodeSpec& node) {
      return ml::experiment_seconds(workload, optimizer, epochs, batch, placement.cpu_count(),
                                    placement.gpu_count(), node);
    };
  }
  return def;
}

HpoDriver::HpoDriver(rt::StudySession session, const ml::Dataset& dataset,
                     DriverOptions options)
    : session_(session), dataset_(dataset), options_(std::move(options)) {}

HpoOutcome HpoDriver::run(SearchAlgorithm& algorithm) {
  // Blocking convenience: drive a private StudyRun pump to exhaustion.
  // Multi-study coordination lives in service::StudyManager, which routes
  // the same tracked-completion queue to several pumps instead.
  StudyRun run(session_, dataset_, options_, algorithm);
  run_to_exhaustion(session_, run);
  return run.finish();
}

}  // namespace chpo::hpo
