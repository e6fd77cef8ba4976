// Resumable study state machines.
//
// HpoDriver::run / successive_halving / hyperband used to be blocking
// loops that drove the runtime to completion — fine for one study, fatal
// for N: the engine is single-thread confined, so concurrent studies must
// be *cooperatively multiplexed* from one coordinator, not run on N
// threads. This file splits each driving loop into an explicit state
// machine (a TrialPump): construction captures the plan, start() submits
// the initial window, and on_trial_complete() consumes exactly one
// finished trial and refills. Every trial a pump submits is tracked
// (Runtime::track), so its completion lands in the runtime's one
// tracked-completion queue. A coordinator (service::StudyManager) can then
// interleave any number of pumps over one engine by popping that queue
// (next_completion) and routing each completion to the pump whose study
// tag it carries.
//
// The classic blocking entry points still exist — HpoDriver::run and the
// hyperband free functions are thin wrappers over run_to_exhaustion() —
// so single-study code keeps its one-call shape.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpo/algorithms.hpp"
#include "hpo/driver.hpp"
#include "hpo/hyperband.hpp"
#include "reuse/planner.hpp"
#include "runtime/study_session.hpp"

namespace chpo::hpo {

/// The driving surface a study coordinator needs: submit and track work,
/// count what is in flight, consume completions one at a time, tear down.
class TrialPump {
 public:
  virtual ~TrialPump() = default;

  /// Submit the initial trial window (replaying any checkpoint first).
  virtual void start() = 0;

  /// True while the pump still has in-flight or submittable work. Feed
  /// on_trial_complete() tracked completions until this is false, then
  /// call finish().
  virtual bool active() const = 0;

  /// Trials submitted and tracked but not yet consumed or cancelled. 0
  /// while refills are paused and the window has drained — skip the pump
  /// until resumed.
  virtual std::size_t in_flight() const = 0;

  /// Consume one finished trial: record it, feed the algorithm,
  /// checkpoint, refill the window. Returns false, changing nothing, when
  /// `finished` is not one of this pump's in-flight trials — a completion
  /// leaking in from another study, which the caller counts.
  virtual bool on_trial_complete(const rt::Future& finished) = 0;

  /// Hold / release window refills (the driver half of a study pause; the
  /// engine half holds the study's ready queue). In-flight trials keep
  /// running either way. Resuming refills the window immediately.
  virtual void set_refill_paused(bool paused) = 0;

  /// Trials recorded so far, including checkpoint replays — live progress
  /// for service status while the pump still owns its outcome (the
  /// flattened HpoOutcome only exists after finish()).
  virtual std::size_t trials_done() const = 0;

  /// Most recently recorded trial, or nullptr before the first completion.
  /// Invalidated by the next on_trial_complete()/finish() call — consume
  /// it immediately (event taps do), never store it.
  virtual const Trial* last_trial() const = 0;

  /// Kill: cancel every in-flight trial of this study and stop refilling.
  /// active() turns false; finish() still returns the partial outcome.
  virtual void abandon() = 0;

  /// Finalise and return the outcome (plot task, reuse report, best-trial
  /// scan). Call once, after active() turned false or abandon().
  virtual HpoOutcome finish() = 0;
};

/// Start `pump` and feed it the runtime's tracked completions until it has
/// nothing left in flight — the blocking loop behind HpoDriver::run,
/// successive_halving and hyperband. The caller then calls finish().
/// Throws std::logic_error if a completion belongs to another pump (one
/// runtime, two concurrent consumers of its queue).
void run_to_exhaustion(rt::StudySession session, TrialPump& pump);

/// State machine behind HpoDriver::run: one SearchAlgorithm driven through
/// a window of experiment tasks on one StudySession.
class StudyRun : public TrialPump {
 public:
  /// `dataset` and `algorithm` must outlive the run (same contract as
  /// HpoDriver). The session's Runtime must outlive everything.
  StudyRun(rt::StudySession session, const ml::Dataset& dataset, DriverOptions options,
           SearchAlgorithm& algorithm);

  void start() override;
  bool active() const override;
  std::size_t in_flight() const override { return inflight_.size(); }
  bool on_trial_complete(const rt::Future& finished) override;
  std::size_t trials_done() const override { return outcome_.trials.size(); }
  const Trial* last_trial() const override {
    return outcome_.trials.empty() ? nullptr : &outcome_.trials.back();
  }
  void set_refill_paused(bool paused) override;
  void abandon() override;
  HpoOutcome finish() override;

 private:
  struct InFlight {
    int index = -1;
    Config config;
    rt::Future future;
    rt::Future vis;  ///< producer == kNoTask unless visualise is on
  };

  /// Pull configs until the window is full or the algorithm runs dry;
  /// replays checkpointed configs inline. Sets stopped_ when a replayed
  /// trial crosses the stop threshold.
  void top_up();
  /// Batch + reuse: drain the whole batch through the stage planner at
  /// once so shared prefixes merge into one tree.
  void start_batch_reuse();
  bool stop_hit(const Trial& trial) const;
  /// The one way a finished trial enters the outcome: tell the algorithm
  /// (unless it failed), append it to the checkpoint log (unless it was
  /// replayed from there), and stop the study when it crosses the
  /// threshold.
  void record(Trial trial, bool from_checkpoint);
  /// Replay `config` from the loaded checkpoint if it completed there.
  bool replay_from_checkpoint(const Config& config);
  void cancel_outstanding();

  rt::StudySession session_;
  const ml::Dataset& dataset_;
  DriverOptions options_;
  SearchAlgorithm& algorithm_;
  double t0_ = 0.0;
  HpoOutcome outcome_;
  std::unordered_map<std::string, ml::TrainResult> restored_;  ///< checkpoint, by config
  std::optional<reuse::StageExecutor> executor_;
  std::size_t window_ = 1;
  std::vector<InFlight> inflight_;
  std::vector<rt::Future> vis_done_;
  int next_index_ = 0;
  bool exhausted_ = false;
  std::size_t replayed_ = 0;
  bool stopped_ = false;
  bool refill_paused_ = false;
  bool started_ = false;
};

/// State machine behind successive_halving: rungs of budgeted experiment
/// tasks, consumed as-completed, promoted top-1/eta between rungs.
class HalvingRun : public TrialPump {
 public:
  HalvingRun(rt::StudySession session, const ml::Dataset& dataset, SearchSpace space,
             HalvingOptions options, std::shared_ptr<reuse::ResultCache> cache = nullptr);

  void start() override;
  bool active() const override;
  std::size_t in_flight() const override { return outstanding_.size(); }
  bool on_trial_complete(const rt::Future& finished) override;
  std::size_t trials_done() const override;
  const Trial* last_trial() const override;
  void set_refill_paused(bool paused) override;
  void abandon() override;
  HpoOutcome finish() override;

  /// Full per-rung view (the free function returns this; finish() flattens
  /// it into an HpoOutcome for the manager's uniform reporting).
  const HalvingOutcome& outcome() const { return outcome_; }

 private:
  /// Submit the current survivors at the current epoch budget. Fully
  /// replayed rungs close immediately (and may cascade into later rungs).
  void submit_rung();
  /// Rank the finished rung, promote the top 1/eta, advance the budget.
  void close_rung();

  rt::StudySession session_;
  const ml::Dataset& dataset_;
  SearchSpace space_;
  HalvingOptions options_;
  Rng rng_;
  std::shared_ptr<reuse::ResultCache> cache_;
  std::optional<reuse::StageExecutor> executor_;
  double t0_ = 0.0;
  HalvingOutcome outcome_;
  std::vector<Config> survivors_;
  int epochs_ = 0;
  int rung_index_ = 0;
  RungResult rung_;
  std::vector<std::pair<Config, rt::Future>> submitted_;
  std::vector<std::pair<std::size_t, rt::Future>> outstanding_;
  bool done_ = false;
  bool stopped_ = false;
  bool refill_paused_ = false;
  /// Rung promotion deferred by a pause (resume submits it).
  bool rung_pending_ = false;
};

/// State machine behind hyperband: s_max+1 HalvingRun brackets run in
/// sequence against one shared ResultCache.
class HyperbandRun : public TrialPump {
 public:
  HyperbandRun(rt::StudySession session, const ml::Dataset& dataset, SearchSpace space,
               HyperbandOptions options);

  void start() override;
  bool active() const override;
  std::size_t in_flight() const override { return bracket_ ? bracket_->in_flight() : 0; }
  bool on_trial_complete(const rt::Future& finished) override;
  std::size_t trials_done() const override;
  const Trial* last_trial() const override;
  void set_refill_paused(bool paused) override;
  void abandon() override;
  HpoOutcome finish() override;

  const HyperbandOutcome& outcome() const { return outcome_; }

 private:
  void start_bracket();
  void harvest_bracket();

  rt::StudySession session_;
  const ml::Dataset& dataset_;
  SearchSpace space_;
  HyperbandOptions options_;
  std::shared_ptr<reuse::ResultCache> cache_;
  double t0_ = 0.0;
  HyperbandOutcome outcome_;
  int s_max_ = 0;
  int s_ = 0;
  std::unique_ptr<HalvingRun> bracket_;
  bool stopped_ = false;
  bool refill_paused_ = false;
};

}  // namespace chpo::hpo
