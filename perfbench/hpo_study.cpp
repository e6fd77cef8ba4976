// hpo_study: two concurrent studies on one service::StudyManager (thread
// backend, 1 node x 4 slots, synthetic MNIST, epoch_divisor 10). The first
// is the paper's Listing-1 grid with reuse on and a cold result cache; the
// second a seeded random search over a continuous learning-rate space with
// a checkpoint file.
//
// Why: this is the paper's workload. Training bodies dominate and the
// engine sees about 70 tasks, so an engine change should not move it; ml,
// reuse and checkpoint I/O show here.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/trainer.hpp"
#include "service/study_manager.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace chpo;

constexpr unsigned kSlots = 4;
/// Timed set-ups (10-20 ms each) before the first repetition and after
/// each repetition of an untraced run.
constexpr int kFirstSetups = 9;
constexpr int kSetupsPerRepetition = 3;

constexpr const char* kListing1 = R"({
  "optimizer":  ["Adam", "SGD", "RMSprop"],
  "num_epochs": [20, 50, 100],
  "batch_size": [32, 64, 128]
})";

/// Dataset sizes and trial budget; `tiny` is the self-check size.
struct HpoSize {
  std::size_t train = 600;
  std::size_t test = 200;
  std::size_t random_budget = 16;
  int epoch_cap = 0;
};

HpoSize hpo_size(bool tiny) {
  if (!tiny) return {};
  return {.train = 120, .test = 40, .random_budget = 8, .epoch_cap = 1};
}

service::ManagerOptions manager_options() {
  service::ManagerOptions options;
  cluster::NodeSpec node;
  node.name = "local";
  node.cpus = kSlots;
  options.runtime.cluster = cluster::homogeneous(1, node);
  return options;
}

/// The two specs of one repetition. Everything the seed decides lives
/// here: trial seeds and the random study's learning-rate range.
std::vector<service::StudySpec> make_specs(std::uint64_t seed, const HpoSize& size,
                                           const std::string& dir) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  service::StudySpec grid;
  grid.name = "listing1-grid";
  grid.algorithm = "grid";
  grid.space = hpo::SearchSpace::from_json_text(kListing1);
  grid.driver.epoch_divisor = 10;
  grid.driver.epoch_cap = size.epoch_cap;
  grid.driver.seed = rng.next_u64() % 1000000;
  grid.driver.reuse.enabled = true;
  grid.driver.reuse.cache_dir = dir + "/cache";

  const double lr_min = std::pow(10.0, rng.next_uniform(-4.0, -3.0));
  const double lr_max = std::pow(10.0, rng.next_uniform(-1.5, -0.5));
  service::StudySpec random;
  random.name = "lr-random";
  random.algorithm = "random";
  random.budget = size.random_budget;
  // Only the learning rate varies, so every seed trains the same number of
  // epochs and runs of different seeds do the same work.
  random.space.add_float("learning_rate", lr_min, lr_max, /*log_scale=*/true);
  random.space.add_categorical("optimizer", {json::Value("SGD")});
  random.space.add_categorical("num_epochs", {json::Value(50)});
  random.space.add_categorical("batch_size", {json::Value(64)});
  random.driver.epoch_divisor = 10;
  random.driver.epoch_cap = size.epoch_cap;
  random.driver.seed = rng.next_u64() % 1000000;
  random.driver.checkpoint_path = dir + "/lr-random.trials.json";
  return {grid, random};
}

struct HpoRun {
  double seconds = 0.0;  ///< first submit -> run_all return
  std::size_t trials = 0;
  std::size_t failed_trials = 0;
  std::size_t expected_trials = 0;
  bool all_finished = true;
  std::vector<double> trial_latency_ms;  ///< first submit -> trial result
  double best_val_acc = 0.0;
  hpo::Trial best;
  hpo::DriverOptions best_driver;
  std::size_t leaked = 0;
  std::uint64_t lineage_violations = 0;
  std::uint64_t routed = 0;
  std::optional<reuse::ReuseReport> reuse;
  std::vector<trace::Event> events;
  double bytes_written = 0.0;
};

HpoRun run_studies(const ml::Dataset& dataset, const std::vector<service::StudySpec>& specs,
                   std::size_t grid_size, Spans& spans) {
  service::StudyManager manager(manager_options(), dataset);
  HpoRun run;
  double start = 0.0;
  manager.set_event_tap([&](const service::StudyEvent& event) {
    if (event.kind == service::StudyEvent::Kind::TrialComplete)
      run.trial_latency_ms.push_back((now_s() - start) * 1e3);
  });

  const double written_before = bytes_written();
  start = now_s();
  std::vector<rt::StudyId> ids;
  for (const service::StudySpec& spec : specs) {
    Spans::Scope span(spans, "service.submit");
    ids.push_back(manager.submit(spec));
  }
  {
    Spans::Scope span(spans, "service.run_all");
    manager.run_all();
  }
  run.seconds = now_s() - start;
  run.bytes_written = bytes_written() - written_before;

  run.expected_trials = grid_size + specs[1].budget;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    run.all_finished = run.all_finished && manager.state(ids[i]) == service::StudyState::Finished;
    const hpo::HpoOutcome& outcome = manager.outcome(ids[i]);
    for (const hpo::Trial& trial : outcome.trials) {
      ++run.trials;
      if (trial.failed) ++run.failed_trials;
    }
    if (const hpo::Trial* best = outcome.best();
        best != nullptr && best->result.final_val_accuracy > run.best_val_acc) {
      run.best_val_acc = best->result.final_val_accuracy;
      run.best = *best;
      run.best_driver = specs[i].driver;
    }
    if (outcome.reuse) run.reuse = outcome.reuse;
  }
  const service::ManagerStats stats = manager.stats();
  run.leaked = manager.leaked_completions();
  run.routed = stats.completions_routed;
  run.lineage_violations = manager.lineage_violations();
  run.events = manager.trace().events();
  return run;
}

}  // namespace

void run_hpo_study(const Args& args, Report& report) {
  const HpoSize size = hpo_size(args.tiny);
  const std::size_t grid_size = *hpo::SearchSpace::from_json_text(kListing1).grid_size();
  report.fail_base = "trials";
  report.shape.set("backend", json::Value("thread"));
  report.shape.set("nodes", json::Value(1));
  report.shape.set("slots", json::Value(static_cast<std::int64_t>(kSlots)));
  report.shape.set("studies", json::Value(2));
  report.shape.set("grid_trials", json::Value(static_cast<std::int64_t>(grid_size)));
  report.shape.set("random_trials", json::Value(static_cast<std::int64_t>(size.random_budget)));
  report.shape.set("train_samples", json::Value(static_cast<std::int64_t>(size.train)));
  report.shape.set("epoch_divisor", json::Value(10));

  // Set-up: dataset generation plus StudyManager (Runtime and worker pool)
  // construction.
  const std::uint64_t data_seed = args.seed * 7919 + 1;
  ml::Dataset dataset;
  SetupTimer setup([&] {
    dataset = ml::make_mnist_like(size.train, size.test, data_seed);
    return std::make_unique<service::StudyManager>(manager_options(), dataset);
  });
  setup.round(kFirstSetups);

  std::vector<double> best_seen;
  int rep = 0;
  const auto account = [&](const HpoRun& run) {
    report.attempted += run.expected_trials;
    report.failed += run.failed_trials + (run.expected_trials - std::min(run.trials, run.expected_trials));
    report.check("every_study_finished", run.all_finished);
    report.check("every_trial_recorded", run.trials == run.expected_trials);
    report.check("no_failed_trials", run.failed_trials == 0);
    report.check("leaked_completions_zero", run.leaked == 0);
    report.check("lineage_violations_zero", run.lineage_violations == 0);
    best_seen.push_back(run.best_val_acc);
  };
  const auto repetition = [&](Spans& spans) {
    const std::string dir = "hpo/rep" + std::to_string(rep++);
    fresh_dir(dir);  // cold result cache, no checkpoint to replay
    HpoRun run = run_studies(dataset, make_specs(args.seed, size, dir), grid_size, spans);
    account(run);
    return run;
  };

  Spans no_spans(false);
  HpoRun last;
  if (!args.trace) {
    std::vector<double> trial_rates;
    std::vector<double> task_rates;
    std::vector<double> p50;
    std::vector<double> p99;
    const double deadline = now_s() + args.seconds;
    do {
      last = repetition(no_spans);
      trial_rates.push_back(static_cast<double>(last.trials) / last.seconds);
      task_rates.push_back(static_cast<double>(trace_figures(last.events, kSlots).tasks) /
                           last.seconds);
      p50.push_back(percentile(last.trial_latency_ms, 50));
      p99.push_back(percentile(last.trial_latency_ms, 99));
      setup.round(kSetupsPerRepetition);
    } while (now_s() < deadline);
    report.metric("ops_per_s", median(trial_rates), "1/s");
    report.metric("tasks_per_s", median(task_rates), "1/s");
    report.metric("op_p50_ms", median(p50), "ms");
    report.metric("op_p99_ms", median(p99), "ms");
    report.metric("setup_s", setup.median_s(), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.samples.set("repetitions", json::Value(rep));
    report.samples.set("op_latency_per_repetition",
                       json::Value(static_cast<std::int64_t>(last.trial_latency_ms.size())));
    report.samples.set("setups", json::Value(setup.calls()));
  } else {
    const HpoRun plain = repetition(no_spans);
    Spans spans(true);
    last = repetition(spans);
    const TraceFigures figures = trace_figures(last.events, kSlots);
    report.metric("ml.body_s", figures.body_s, "s");
    report.metric("ml.experiment_mean_ms", figures.experiment_mean_ms, "ms");
    report.metric("reuse.stage_mean_ms", figures.stage_mean_ms, "ms");
    report.metric("hpo.slot_util", figures.body_s / (last.seconds * kSlots), "ratio");
    report.metric("hpo.tail_s", figures.tail_s, "s");
    report.metric("hpo.best_val_acc", last.best_val_acc, "ratio");
    report.metric("hpo.bytes_written", last.bytes_written, "B");
    report.metric("runtime.schedule_to_run_p99_us", figures.schedule_to_run_p99_us, "us");
    report.metric("trace.events_per_task",
                  static_cast<double>(figures.events) / static_cast<double>(figures.tasks),
                  "events/task");
    if (last.reuse) {
      const reuse::ReuseReport& r = *last.reuse;
      report.metric("reuse.stages", static_cast<double>(r.stages), "count");
      report.metric("reuse.shared_stages", static_cast<double>(r.shared_stages), "count");
      report.metric("reuse.cache_hits", static_cast<double>(r.cache.hits), "count");
      report.metric("reuse.cache_misses", static_cast<double>(r.cache.misses), "count");
      report.metric("reuse.epoch_ratio",
                    r.naive_epochs ? static_cast<double>(r.planned_epochs) /
                                         static_cast<double>(r.naive_epochs)
                                   : 0.0,
                    "ratio");
    }
    report.check("reuse_report_present", last.reuse.has_value());
    report.metric("service.completions_routed", static_cast<double>(last.routed), "count");
    report.metric("service.leaked_completions", static_cast<double>(last.leaked), "count");
    report.metric("bench.span_overhead_pct", 100.0 * (last.seconds / plain.seconds - 1.0), "%");
    report.extra.set("trials_per_s", json::Value(static_cast<double>(last.trials) / last.seconds));
    report.extra.set("wall_s", json::Value(last.seconds));
    report.extra.set("spans", spans.summary());
  }

  // Quality guard: the best accuracy is a pure function of the seed. Every
  // repetition must reproduce it, and so must training the winning config
  // directly, outside the runtime and the reuse stage tree.
  report.check("best_val_acc_repeats",
               std::all_of(best_seen.begin(), best_seen.end(),
                           [&](double v) { return v == best_seen.front(); }));
  const ml::TrainResult reference = ml::run_experiment(
      dataset, hpo::experiment_train_config(last.best.config, last.best_driver, last.best.index, 1));
  report.check("best_val_acc_matches_direct_training",
               reference.final_val_accuracy == last.best_val_acc);
  report.extra.set("best_val_acc", json::Value(last.best_val_acc));
  report.extra.set("best_config", last.best.config);
}

}  // namespace perfbench
