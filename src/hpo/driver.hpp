// HPO driver — the paper's application structure (Figure 2 / Listing 2),
// run as a completion-driven pipeline.
//
// Turns each configuration produced by a SearchAlgorithm into an
// `experiment` task (with the requested @constraint) and keeps a window of
// trials in flight: batch algorithms (grid/random) have every trial
// submitted up front — embarrassingly parallel, exactly the paper's loop —
// while sequential algorithms (GP-EI, TPE) keep `parallel_suggestions`
// trials outstanding. Each trial is tracked, and results are consumed from
// the runtime's tracked-completion queue in *completion* order, so a fast
// trial that was submitted late is observed the moment it finishes (no
// head-of-line blocking) and its score reaches the algorithm immediately,
// which then suggests the next config while the rest of the cluster stays
// busy.
//
// Supports the paper's two flavours of early stopping:
//  * per-trial: TrainConfig target_accuracy/patience inside the task body;
//  * whole-HPO: stop once *any* trial reaches `stop_on_accuracy` ("the
//    process can be stopped as soon as one task achieves a specified
//    accuracy", §6.1) — regardless of submission index; outstanding trials
//    are cancelled rather than drained.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hpo/algorithms.hpp"
#include "hpo/search_space.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "ml/trainer.hpp"
#include "reuse/planner.hpp"
#include "reuse/policy.hpp"
#include "runtime/study_session.hpp"

namespace chpo::hpo {

struct Trial {
  int index = -1;
  Config config;
  ml::TrainResult result;
  bool failed = false;
  std::string failure_reason;
  rt::TaskId task = rt::kNoTask;
  /// Runtime attempts the experiment task consumed (1 = clean run; more =
  /// retries after failures/timeouts or a lost speculative race). 0 for
  /// trials replayed from a checkpoint (no task ran).
  int attempts = 0;
};

struct HpoOutcome {
  std::vector<Trial> trials;
  int best_index = -1;  ///< position in `trials` of the best (highest accuracy) trial
  double elapsed_seconds = 0.0;
  bool stopped_early = false;
  /// Output of the final `plot` task when DriverOptions::visualise is set
  /// (the paper's Figure 2 pipeline: experiment -> visualisation -> plot).
  std::string report;
  /// Reuse accounting (stage sharing, cache hits/misses) when
  /// DriverOptions::reuse is enabled.
  std::optional<reuse::ReuseReport> reuse;

  const Trial* best() const {
    return best_index >= 0 ? &trials[static_cast<std::size_t>(best_index)] : nullptr;
  }
};

struct DriverOptions {
  /// @constraint of each experiment task.
  rt::Constraint trial_constraint{.cpus = 1, .gpus = 0, .node_exclusive = false};
  /// Whole-HPO early stop threshold on validation accuracy (<=0 disables).
  /// Fires on the first trial (by completion order) to cross it;
  /// outstanding trials are cancelled.
  double stop_on_accuracy = -1.0;
  /// In-flight window for sequential algorithms (GP-EI, TPE): how many
  /// trials run concurrently between observations. 1 reproduces the strict
  /// suggest→observe loop; larger windows trade model freshness for
  /// cluster utilisation. Batch algorithms ignore this (all trials are
  /// submitted up front).
  int parallel_suggestions = 1;
  /// Per-trial early stopping passed into TrainConfig.
  double trial_target_accuracy = -1.0;
  int trial_patience = -1;
  /// Attach a virtual cost model so the DES backend can time experiments.
  std::optional<ml::WorkloadModel> workload;
  /// Scale-down knobs for the real training done inside task bodies:
  /// cap on epochs actually run (0 = honour the config) and an epoch
  /// divisor applied first (e.g. 10 turns "100 epochs" into 10).
  int epoch_cap = 0;
  int epoch_divisor = 1;
  /// k-fold cross-validation inside each experiment task (scikit-learn's
  /// evaluation mode, §2.2). <=1 trains once on the train/test split;
  /// otherwise the trial's accuracy is the mean across folds and its
  /// "history" holds one entry per fold.
  int cv_folds = 1;
  /// Mirror the paper's application structure (Figure 2): submit a
  /// `visualisation` task per experiment and one final `plot` task that
  /// synchronises them all; its output lands in HpoOutcome::report.
  bool visualise = false;
  /// When set, completed trials are persisted here (JSON) after every
  /// result and replayed on restart instead of retraining — application-
  /// level fault tolerance on top of the runtime's task retries.
  std::string checkpoint_path;
  /// Cross-trial reuse (stage trees + result cache; see reuse/policy.hpp).
  /// Opt-in; ignored for cross-validated trials (cv_folds > 1). Batch
  /// algorithms plan the whole batch as one stage tree; sequential ones
  /// still get caching but no cross-trial merging within a window.
  reuse::ReusePolicy reuse;
  std::uint64_t seed = 7;
};

/// Builds the experiment TaskDef for one config (exposed for tests and
/// custom drivers). The body trains the reference model for the dataset;
/// the cost closure prices the task for the simulator.
rt::TaskDef make_experiment_task(const ml::Dataset& dataset, const Config& config,
                                 const DriverOptions& options, int trial_index);

/// Resolve the exact TrainConfig a trial runs with: config fields + driver
/// scale-down knobs + the seed policy (per-trial-index by default;
/// content-derived under ReusePolicy::deterministic_seeds so epoch-budget
/// variants share a training prefix). Exposed for the reuse planner,
/// hyperband and tests.
ml::TrainConfig experiment_train_config(const Config& config, const DriverOptions& options,
                                        int trial_index, unsigned threads = 1);

class HpoDriver {
 public:
  /// The driver speaks to the cluster through a StudySession — a tagged,
  /// non-exclusive view of a shared Runtime — so any number of drivers can
  /// multiplex one engine concurrently (see service::StudyManager). Tasks
  /// it submits carry the session's study id; its early stop cancels only
  /// its own study's work.
  ///
  /// LIFETIME: `dataset` is captured by reference into the experiment task
  /// bodies. It must outlive the session's Runtime — with whole-HPO early
  /// stopping, unfinished trials keep training on it until the runtime's
  /// destructor drains them. Declare the dataset before the runtime.
  HpoDriver(rt::StudySession session, const ml::Dataset& dataset, DriverOptions options);

  /// Run the algorithm to exhaustion (or early stop); returns all trials
  /// (sorted by submission index; consumption happens in completion order).
  /// Blocking convenience over the resumable StudyRun state machine
  /// (study_run.hpp) — use that directly to interleave several studies.
  HpoOutcome run(SearchAlgorithm& algorithm);

  const DriverOptions& options() const { return options_; }
  rt::StudySession session() const { return session_; }

 private:
  rt::StudySession session_;
  const ml::Dataset& dataset_;
  DriverOptions options_;
};

}  // namespace chpo::hpo
