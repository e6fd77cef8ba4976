#include "hpo/study_run.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "hpo/checkpoint.hpp"
#include "support/log.hpp"

namespace chpo::hpo {

namespace {

/// The paper's `visualisation` task: condenses one experiment's result to
/// a report line (accuracy trajectory), running as a task of its own.
rt::TaskDef make_visualisation_task(const Config& config) {
  rt::TaskDef def;
  def.name = "visualisation";
  const std::string brief = config_brief(config);
  def.body = [brief](rt::TaskContext& ctx) -> std::any {
    const auto& result = ctx.read<ml::TrainResult>(0);
    std::string line = brief + " ->";
    for (const auto& epoch : result.history) {
      char buf[16];
      std::snprintf(buf, sizeof buf, " %.3f", epoch.val_accuracy);
      line += buf;
    }
    return line;
  };
  return def;
}

/// The final `plot` task (compss_wait_on target in Figure 2): merges all
/// visualisation lines into one report.
rt::TaskDef make_plot_task() {
  rt::TaskDef def;
  def.name = "plot";
  def.body = [](rt::TaskContext& ctx) -> std::any {
    std::string report = "validation accuracy per epoch, one line per experiment\n";
    for (std::size_t i = 0; i < ctx.param_count() - 1; ++i)
      report += ctx.read<std::string>(i) + "\n";
    return report;
  };
  return def;
}

/// Every pump's outcome ends here. Trials were consumed in completion
/// order; report them in index order so callers and reports stay
/// deterministic, and point best_index at the first successful trial with
/// the highest final validation accuracy.
void finalise_outcome(HpoOutcome& outcome, double elapsed_seconds) {
  outcome.elapsed_seconds = elapsed_seconds;
  std::sort(outcome.trials.begin(), outcome.trials.end(),
            [](const Trial& a, const Trial& b) { return a.index < b.index; });
  double best = -1.0;
  for (std::size_t i = 0; i < outcome.trials.size(); ++i) {
    const Trial& t = outcome.trials[i];
    if (t.failed) continue;
    if (t.result.final_val_accuracy > best) {
      best = t.result.final_val_accuracy;
      outcome.best_index = static_cast<int>(i);
    }
  }
}

/// Flatten rungs into the manager's uniform HpoOutcome view: trials in
/// rung order, renumbered from the outcome's current size.
void append_rungs(HpoOutcome& flat, const std::vector<RungResult>& rungs) {
  for (const RungResult& rung : rungs)
    for (const Trial& t : rung.trials) {
      Trial copy = t;
      copy.index = static_cast<int>(flat.trials.size());
      flat.trials.push_back(std::move(copy));
    }
}

}  // namespace

void run_to_exhaustion(rt::StudySession session, TrialPump& pump) {
  pump.start();
  while (pump.active() && pump.in_flight() > 0)
    if (!pump.on_trial_complete(session.next_completion()))
      throw std::logic_error("run_to_exhaustion: a tracked completion of another pump");
}

// ---------------------------------------------------------------------------
// StudyRun
// ---------------------------------------------------------------------------

StudyRun::StudyRun(rt::StudySession session, const ml::Dataset& dataset, DriverOptions options,
                   SearchAlgorithm& algorithm)
    : session_(session), dataset_(dataset), options_(std::move(options)), algorithm_(algorithm) {}

bool StudyRun::stop_hit(const Trial& trial) const {
  return options_.stop_on_accuracy > 0 && !trial.failed &&
         trial.result.final_val_accuracy >= options_.stop_on_accuracy;
}

void StudyRun::record(Trial trial, bool from_checkpoint) {
  if (!trial.failed) algorithm_.tell(trial.config, trial.result.final_val_accuracy);
  if (from_checkpoint)
    ++replayed_;
  else if (!options_.checkpoint_path.empty())
    append_checkpoint(options_.checkpoint_path, trial);
  outcome_.trials.push_back(std::move(trial));
  if (stop_hit(outcome_.trials.back())) {
    stopped_ = true;
    cancel_outstanding();
  }
}

bool StudyRun::replay_from_checkpoint(const Config& config) {
  const auto it = restored_.find(json::serialize(config));
  if (it == restored_.end()) return false;
  record({.index = next_index_++, .config = config, .result = it->second},
         /*from_checkpoint=*/true);
  return true;
}

void StudyRun::start() {
  t0_ = session_.now();
  started_ = true;
  if (!options_.checkpoint_path.empty())
    restored_ = completed_by_config(load_checkpoint(options_.checkpoint_path));

  // Cross-trial reuse: trials become stage chains through a shared
  // executor + cache instead of monolithic experiment tasks. CV trials
  // keep the classic path (fold training has no stage decomposition).
  const bool use_reuse = options_.reuse.enabled && options_.cv_folds <= 1;
  if (use_reuse)
    executor_.emplace(session_, dataset_, options_.reuse, options_.trial_constraint,
                      options_.workload, std::make_shared<reuse::ResultCache>(options_.reuse));

  // Batch algorithms are drained up front (the paper's embarrassingly
  // parallel loop); sequential ones keep a window of suggestions in flight.
  window_ = algorithm_.sequential()
                ? static_cast<std::size_t>(std::max(1, options_.parallel_suggestions))
                : std::numeric_limits<std::size_t>::max();

  if (executor_ && !algorithm_.sequential())
    start_batch_reuse();
  else
    top_up();
  log_info("hpo", "{} [study {}]: {} trials in flight, window {} ({} replayed from checkpoint)",
           algorithm_.name(), session_.id(), inflight_.size(),
           window_ == std::numeric_limits<std::size_t>::max() ? std::string("all")
                                                              : std::to_string(window_),
           replayed_);
}

void StudyRun::top_up() {
  if (refill_paused_) return;
  while (!stopped_ && !exhausted_ && inflight_.size() < window_) {
    const std::optional<Config> config = algorithm_.next();
    if (!config) {
      exhausted_ = true;
      break;
    }
    if (replay_from_checkpoint(*config)) continue;
    InFlight f;
    f.index = next_index_++;
    f.config = *config;
    if (executor_) {
      reuse::TrialRequest req;
      req.index = f.index;
      req.config = experiment_train_config(*config, options_, f.index);
      std::vector<reuse::SubmittedTrial> submitted = executor_->submit({req});
      if (!submitted.empty() && submitted.front().replayed) {
        // Served entirely by the result cache; next_index_ already moved on.
        record({.index = f.index, .config = *config, .result = *submitted.front().replayed},
               /*from_checkpoint=*/false);
        continue;
      }
      f.future = submitted.front().future;
    } else {
      const rt::TaskDef def = make_experiment_task(dataset_, *config, options_, f.index);
      f.future = session_.submit(def);
    }
    session_.track(f.future);
    if (options_.visualise)
      f.vis =
          session_.submit(make_visualisation_task(*config), {{f.future.data, rt::Direction::In}});
    inflight_.push_back(std::move(f));
  }
}

void StudyRun::start_batch_reuse() {
  // Batch + reuse: drain the whole batch up front so the planner sees
  // every trial at once and can merge shared prefixes into one stage
  // tree (a trial-by-trial top_up would plan each chain in isolation).
  std::vector<reuse::TrialRequest> requests;
  std::vector<Config> request_configs;
  while (true) {
    const std::optional<Config> config = algorithm_.next();
    if (!config) break;
    if (replay_from_checkpoint(*config)) continue;
    reuse::TrialRequest req;
    req.index = next_index_++;
    req.config = experiment_train_config(*config, options_, req.index);
    requests.push_back(std::move(req));
    request_configs.push_back(*config);
  }
  exhausted_ = true;
  if (stopped_) return;
  const std::vector<reuse::SubmittedTrial> submitted = executor_->submit(requests);
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    const reuse::SubmittedTrial& s = submitted[i];
    if (s.replayed) {
      record({.index = s.index, .config = request_configs[i], .result = *s.replayed},
             /*from_checkpoint=*/false);
      if (stopped_) return;
      continue;
    }
    InFlight f;
    f.index = s.index;
    f.config = request_configs[i];
    f.future = s.future;
    session_.track(f.future);
    if (options_.visualise)
      f.vis =
          session_.submit(make_visualisation_task(f.config), {{f.future.data, rt::Direction::In}});
    inflight_.push_back(std::move(f));
  }
}

bool StudyRun::active() const {
  if (!started_ || stopped_) return false;
  return !inflight_.empty() || !exhausted_;
}

bool StudyRun::on_trial_complete(const rt::Future& finished) {
  const auto it =
      std::find_if(inflight_.begin(), inflight_.end(),
                   [&](const InFlight& f) { return f.future.producer == finished.producer; });
  if (it == inflight_.end()) return false;

  Trial trial;
  trial.index = it->index;
  trial.config = it->config;
  trial.task = it->future.producer;
  trial.attempts = session_.graph().task(trial.task).attempts_made;
  const rt::Future vis = it->vis;
  inflight_.erase(it);
  try {
    trial.result = session_.wait_on_as<ml::TrainResult>(finished);
    if (vis.producer != rt::kNoTask) vis_done_.push_back(vis);
  } catch (const rt::TaskFailedError& e) {
    trial.failed = true;
    trial.failure_reason = e.what();
  }
  record(std::move(trial), /*from_checkpoint=*/false);
  if (!stopped_) top_up();
  return true;
}

void StudyRun::cancel_outstanding() {
  outcome_.stopped_early = true;
  // As-completed early stop: cancel what is still outstanding instead of
  // draining it in the runtime's destructor. Cancelling also untracks, so
  // a trial that finished but was not consumed yet is never delivered.
  // Visualisation tasks are dependents of their experiments, so they are
  // cancelled transitively.
  for (const InFlight& f : inflight_) session_.cancel(f.future);
  // Reuse mode: also cancel the underlying stage chains (finalize tasks
  // are their dependents, so whole trees unwind together).
  if (executor_)
    for (const rt::Future& stage : executor_->stage_futures()) session_.cancel(stage);
  inflight_.clear();
}

void StudyRun::set_refill_paused(bool paused) {
  refill_paused_ = paused;
  if (!paused && started_ && !stopped_) top_up();
}

void StudyRun::abandon() {
  if (stopped_) return;
  stopped_ = true;
  cancel_outstanding();
}

HpoOutcome StudyRun::finish() {
  // "When all tasks are completed, we plot the graphs" (§4): one plot task
  // over every visualisation output that produced a value.
  if (options_.visualise && !outcome_.stopped_early && !vis_done_.empty()) {
    std::vector<rt::Param> params;
    params.reserve(vis_done_.size());
    for (const rt::Future& v : vis_done_) params.push_back({v.data, rt::Direction::In});
    const rt::Future plot = session_.submit(make_plot_task(), params);
    try {
      outcome_.report = session_.wait_on_as<std::string>(plot);
    } catch (const rt::TaskFailedError& e) {
      outcome_.report = std::string("plot task failed: ") + e.what();
    }
  }
  if (executor_) outcome_.reuse = executor_->report();
  finalise_outcome(outcome_, session_.now() - t0_);
  return outcome_;
}

// ---------------------------------------------------------------------------
// HalvingRun
// ---------------------------------------------------------------------------

HalvingRun::HalvingRun(rt::StudySession session, const ml::Dataset& dataset, SearchSpace space,
                       HalvingOptions options, std::shared_ptr<reuse::ResultCache> cache)
    : session_(session),
      dataset_(dataset),
      space_(std::move(space)),
      options_(std::move(options)),
      rng_(options_.driver.seed ^ 0x4a17f1e5ULL),
      cache_(std::move(cache)) {}

void HalvingRun::start() {
  if (options_.initial_configs == 0)
    throw std::invalid_argument("successive_halving: need at least one config");
  if (options_.eta <= 1.0) throw std::invalid_argument("successive_halving: eta must exceed 1");
  if (options_.initial_epochs <= 0)
    throw std::invalid_argument("successive_halving: initial epochs must be positive");

  t0_ = session_.now();
  // Reuse mode: each rung is a batch through the stage executor, and all
  // rungs share one cache — a promoted config's next rung resumes from the
  // epoch checkpoint the previous rung left behind (deterministic seeds
  // make the trajectories identical across rungs).
  if (options_.driver.reuse.enabled && options_.driver.cv_folds <= 1) {
    if (!cache_) cache_ = std::make_shared<reuse::ResultCache>(options_.driver.reuse);
    executor_.emplace(session_, dataset_, options_.driver.reuse, options_.driver.trial_constraint,
                      options_.driver.workload, cache_);
  }

  survivors_.reserve(options_.initial_configs);
  for (std::size_t i = 0; i < options_.initial_configs; ++i)
    survivors_.push_back(space_.sample(rng_));
  epochs_ = options_.initial_epochs;
  rung_index_ = 0;
  submit_rung();
}

void HalvingRun::submit_rung() {
  rung_ = RungResult{};
  rung_.rung = rung_index_;
  rung_.epochs = epochs_;
  submitted_.clear();
  outstanding_.clear();

  if (executor_) {
    std::vector<reuse::TrialRequest> requests;
    requests.reserve(survivors_.size());
    for (std::size_t i = 0; i < survivors_.size(); ++i) {
      Config budgeted = survivors_[i];
      budgeted.set("num_epochs", json::Value(static_cast<std::int64_t>(epochs_)));
      const int trial_index = rung_index_ * 1000 + static_cast<int>(i);
      requests.push_back(
          {trial_index, experiment_train_config(budgeted, options_.driver, trial_index)});
      submitted_.emplace_back(std::move(budgeted), rt::Future{});
    }
    const std::vector<reuse::SubmittedTrial> subs = executor_->submit(requests);
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (subs[i].replayed) {
        Trial trial;
        trial.index = static_cast<int>(i);
        trial.config = submitted_[i].first;
        trial.result = *subs[i].replayed;
        rung_.trials.push_back(std::move(trial));
      } else {
        submitted_[i].second = subs[i].future;
        outstanding_.emplace_back(i, subs[i].future);
      }
    }
  } else {
    for (std::size_t i = 0; i < survivors_.size(); ++i) {
      Config budgeted = survivors_[i];
      budgeted.set("num_epochs", json::Value(static_cast<std::int64_t>(epochs_)));
      const rt::TaskDef def = make_experiment_task(dataset_, budgeted, options_.driver,
                                                   rung_index_ * 1000 + static_cast<int>(i));
      submitted_.emplace_back(std::move(budgeted), session_.submit(def));
    }
    for (std::size_t i = 0; i < submitted_.size(); ++i)
      outstanding_.emplace_back(i, submitted_[i].second);
  }
  for (const auto& [_, f] : outstanding_) session_.track(f);
  // A fully replayed rung (every trial served from the cache) closes
  // immediately — and may cascade through further rungs.
  if (outstanding_.empty()) close_rung();
}

bool HalvingRun::active() const { return !stopped_ && !done_ && epochs_ > 0; }

bool HalvingRun::on_trial_complete(const rt::Future& finished) {
  const auto it = std::find_if(outstanding_.begin(), outstanding_.end(), [&](const auto& entry) {
    return entry.second.producer == finished.producer;
  });
  if (it == outstanding_.end()) return false;
  Trial trial;
  trial.index = static_cast<int>(it->first);
  trial.config = submitted_[it->first].first;
  trial.task = finished.producer;
  trial.attempts = session_.graph().task(trial.task).attempts_made;
  try {
    trial.result = session_.wait_on_as<ml::TrainResult>(finished);
  } catch (const rt::TaskFailedError& e) {
    trial.failed = true;
    trial.failure_reason = e.what();
  }
  outstanding_.erase(it);
  rung_.trials.push_back(std::move(trial));
  if (outstanding_.empty()) close_rung();
  return true;
}

void HalvingRun::close_rung() {
  std::sort(rung_.trials.begin(), rung_.trials.end(),
            [](const Trial& a, const Trial& b) { return a.index < b.index; });

  // Rank survivors by accuracy, keep the top 1/eta.
  std::vector<const Trial*> ranked;
  for (const Trial& t : rung_.trials)
    if (!t.failed) ranked.push_back(&t);
  std::sort(ranked.begin(), ranked.end(), [](const Trial* a, const Trial* b) {
    return a->result.final_val_accuracy > b->result.final_val_accuracy;
  });

  if (!ranked.empty() && ranked.front()->result.final_val_accuracy > outcome_.best_accuracy) {
    outcome_.best_accuracy = ranked.front()->result.final_val_accuracy;
    outcome_.best_config = ranked.front()->config;
  }
  log_info("halving", "rung {} [study {}]: {} trials at {} epochs, best {:.3f}", rung_index_,
           session_.id(), rung_.trials.size(), epochs_,
           ranked.empty() ? 0.0 : ranked.front()->result.final_val_accuracy);
  outcome_.rungs.push_back(std::move(rung_));
  rung_ = RungResult{};

  const std::size_t keep =
      static_cast<std::size_t>(std::floor(static_cast<double>(ranked.size()) / options_.eta));
  if (keep == 0 || epochs_ >= options_.max_epochs) {
    done_ = true;
    return;
  }
  survivors_.clear();
  for (std::size_t i = 0; i < keep; ++i) survivors_.push_back(ranked[i]->config);
  epochs_ = std::min(options_.max_epochs,
                     static_cast<int>(std::lround(static_cast<double>(epochs_) * options_.eta)));
  ++rung_index_;
  if (refill_paused_)
    rung_pending_ = true;  // resume submits the promoted rung
  else
    submit_rung();
}

std::size_t HalvingRun::trials_done() const {
  std::size_t n = rung_.trials.size();
  for (const RungResult& rung : outcome_.rungs) n += rung.trials.size();
  return n;
}

const Trial* HalvingRun::last_trial() const {
  if (!rung_.trials.empty()) return &rung_.trials.back();
  for (auto it = outcome_.rungs.rbegin(); it != outcome_.rungs.rend(); ++it)
    if (!it->trials.empty()) return &it->trials.back();
  return nullptr;
}

void HalvingRun::set_refill_paused(bool paused) {
  refill_paused_ = paused;
  if (!paused && rung_pending_ && !stopped_ && !done_) {
    rung_pending_ = false;
    submit_rung();
  }
}

void HalvingRun::abandon() {
  if (stopped_) return;
  stopped_ = true;
  for (const auto& [_, f] : outstanding_) session_.cancel(f);
  if (executor_)
    for (const rt::Future& stage : executor_->stage_futures()) session_.cancel(stage);
  outstanding_.clear();
}

HpoOutcome HalvingRun::finish() {
  if (executor_) outcome_.reuse = executor_->report();
  outcome_.elapsed_seconds = session_.now() - t0_;
  HpoOutcome flat;
  flat.stopped_early = stopped_;
  flat.reuse = outcome_.reuse;
  append_rungs(flat, outcome_.rungs);
  finalise_outcome(flat, outcome_.elapsed_seconds);
  return flat;
}

// ---------------------------------------------------------------------------
// HyperbandRun
// ---------------------------------------------------------------------------

HyperbandRun::HyperbandRun(rt::StudySession session, const ml::Dataset& dataset, SearchSpace space,
                           HyperbandOptions options)
    : session_(session),
      dataset_(dataset),
      space_(std::move(space)),
      options_(std::move(options)) {}

void HyperbandRun::start() {
  if (options_.max_epochs <= 0)
    throw std::invalid_argument("hyperband: max_epochs must be positive");
  if (options_.eta <= 1.0) throw std::invalid_argument("hyperband: eta must exceed 1");

  t0_ = session_.now();
  const double r_max = static_cast<double>(options_.max_epochs);
  s_max_ = static_cast<int>(std::floor(std::log(r_max) / std::log(options_.eta)));
  s_ = s_max_;
  // One cache for all brackets: a config budget reached in an exploratory
  // bracket seeds the checkpoints later brackets resume from.
  if (options_.driver.reuse.enabled && options_.driver.cv_folds <= 1)
    cache_ = std::make_shared<reuse::ResultCache>(options_.driver.reuse);
  start_bracket();
}

void HyperbandRun::start_bracket() {
  while (s_ >= 0) {
    // Bracket s: n = ceil((s_max+1)/(s+1) * eta^s) configs at
    // r = R / eta^s initial epochs.
    const double r_max = static_cast<double>(options_.max_epochs);
    const double eta_s = std::pow(options_.eta, s_);
    HalvingOptions bracket;
    bracket.initial_configs = static_cast<std::size_t>(
        std::ceil(static_cast<double>(s_max_ + 1) / static_cast<double>(s_ + 1) * eta_s));
    bracket.initial_epochs = std::max(1, static_cast<int>(std::floor(r_max / eta_s)));
    bracket.eta = options_.eta;
    bracket.max_epochs = options_.max_epochs;
    bracket.driver = options_.driver;
    bracket.driver.seed = options_.driver.seed + static_cast<std::uint64_t>(s_) * 7907ULL;

    bracket_ = std::make_unique<HalvingRun>(session_, dataset_, space_, bracket, cache_);
    bracket_->start();
    if (bracket_->active()) return;  // trials in flight; wait for them
    harvest_bracket();               // fully replayed bracket: move on
    if (refill_paused_) return;      // paused between brackets
  }
}

void HyperbandRun::harvest_bracket() {
  bracket_->finish();  // settles reuse/elapsed on the HalvingOutcome
  HalvingOutcome result = bracket_->outcome();
  bracket_.reset();
  for (const RungResult& rung : result.rungs) outcome_.total_trials += rung.trials.size();
  if (result.best_accuracy > outcome_.best_accuracy) {
    outcome_.best_accuracy = result.best_accuracy;
    outcome_.best_config = result.best_config;
  }
  if (result.reuse) {
    if (!outcome_.reuse) outcome_.reuse.emplace();
    outcome_.reuse->cache = result.reuse->cache;  // shared cache -> cumulative stats
    outcome_.reuse->trials += result.reuse->trials;
    outcome_.reuse->replayed_trials += result.reuse->replayed_trials;
    outcome_.reuse->chains += result.reuse->chains;
    outcome_.reuse->stages += result.reuse->stages;
    outcome_.reuse->shared_stages += result.reuse->shared_stages;
    outcome_.reuse->naive_epochs += result.reuse->naive_epochs;
    outcome_.reuse->planned_epochs += result.reuse->planned_epochs;
  }
  outcome_.brackets.push_back(std::move(result));
  --s_;
}

bool HyperbandRun::active() const {
  if (stopped_) return false;
  return bracket_ != nullptr || s_ >= 0;
}

bool HyperbandRun::on_trial_complete(const rt::Future& finished) {
  if (!bracket_ || !bracket_->on_trial_complete(finished)) return false;
  if (!bracket_->active()) {
    harvest_bracket();
    if (!refill_paused_) start_bracket();
  }
  return true;
}

std::size_t HyperbandRun::trials_done() const {
  return outcome_.total_trials + (bracket_ ? bracket_->trials_done() : 0);
}

const Trial* HyperbandRun::last_trial() const {
  return bracket_ ? bracket_->last_trial() : nullptr;
}

void HyperbandRun::set_refill_paused(bool paused) {
  refill_paused_ = paused;
  if (bracket_) bracket_->set_refill_paused(paused);
  if (!paused && !stopped_ && !bracket_ && s_ >= 0) start_bracket();
}

void HyperbandRun::abandon() {
  if (stopped_) return;
  stopped_ = true;
  if (bracket_) {
    bracket_->abandon();
    harvest_bracket();
  }
}

HpoOutcome HyperbandRun::finish() {
  outcome_.elapsed_seconds = session_.now() - t0_;
  HpoOutcome flat;
  flat.stopped_early = stopped_;
  flat.reuse = outcome_.reuse;
  for (const HalvingOutcome& bracket : outcome_.brackets) append_rungs(flat, bracket.rungs);
  finalise_outcome(flat, outcome_.elapsed_seconds);
  return flat;
}

}  // namespace chpo::hpo
