// StudyManager — admission and lifecycle for N concurrent HPO studies on
// one Runtime.
//
// The engine is single-thread confined, so concurrency between studies is
// cooperative: the manager owns one Runtime, opens one StudySession per
// admitted study, builds the matching TrialPump (StudyRun / HalvingRun /
// HyperbandRun), and multiplexes all pumps from its own step() loop. Every
// pump tracks the trials it submits, so each step pops the runtime's one
// tracked-completion queue (Runtime::next_completion) and routes the task
// to the pump whose study tag it carries. The study tag travels with the
// task through the engine, so routing is a graph lookup, not a guess; a
// completion whose owning pump does not recognise it is counted in
// leaked_completions() (asserted zero by the CI multi-study smoke).
//
// Lifecycle: submit() queues, admission starts up to max_active studies
// (fair-share weight and per-study quota handed to the engine); pause()
// holds the study's ready queue at the engine seam AND stops the pump
// refilling (in-flight attempts finish and commit — their completions are
// consumed while paused); kill() abandons the pump and cancels every
// non-terminal task of that study, leaving the rest of the fleet
// untouched. Crash-safe resume is inherited from the driver layer: give a
// study a DriverOptions::checkpoint_path and a fresh manager replays the
// completed trials from disk before submitting anything.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hpo/algorithms.hpp"
#include "hpo/hyperband.hpp"
#include "hpo/search_space.hpp"
#include "hpo/study_run.hpp"
#include "ml/dataset.hpp"
#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"

namespace chpo::service {

/// Everything needed to run one study: the search, its budget, and its
/// share of the cluster. The spec is stored by value for the study's whole
/// life — algorithms hold references into `space`, so it must live here.
struct StudySpec {
  std::string name;
  /// "grid" | "random" | "gp" | "tpe" (point search via StudyRun) or
  /// "halving" | "hyperband" (multi-fidelity pumps).
  std::string algorithm = "random";
  hpo::SearchSpace space;
  /// Trial budget for random/gp/tpe (grid enumerates the space).
  std::size_t budget = 16;
  /// Shared trial options (constraint, seeds, checkpoint_path, reuse...).
  /// For halving/hyperband this is copied into the bracket options below.
  hpo::DriverOptions driver;
  hpo::HalvingOptions halving;      ///< knobs when algorithm == "halving"
  hpo::HyperbandOptions hyperband;  ///< knobs when algorithm == "hyperband"
  /// Engine fair-share weight and concurrent-task quota (see StudyPolicy).
  /// The weight only shapes placement under the `fifo` scheduler (see
  /// rt::StudyOptions::weight); the quota holds under every scheduler.
  double weight = 1.0;
  int max_running = 0;
};

enum class StudyState {
  Queued,    ///< submitted, not yet admitted
  Running,   ///< pump active, completions being consumed
  Paused,    ///< ready queue held + refills stopped; in-flight finishing
  Finished,  ///< pump drained; outcome() available
  Killed,    ///< kill()ed; partial outcome() available
};

const char* study_state_name(StudyState state);

struct ManagerOptions {
  rt::RuntimeOptions runtime;
  /// Studies admitted concurrently; 0 = all submitted studies run at once.
  std::size_t max_active = 0;
};

/// Snapshot of one study for reports / chpo_run / daemon status replies.
struct StudyStatus {
  rt::StudyId id = rt::kMainStudy;
  std::string name;
  std::string algorithm;
  StudyState state = StudyState::Queued;
  /// Trials recorded so far: live (pump-side) while Running/Paused, final
  /// (outcome-side) once Finished/Killed.
  std::size_t trials_done = 0;
  /// Once Finished/Killed: the best trial's final validation accuracy
  /// (absent when no trial succeeded) and the study's elapsed seconds.
  std::optional<double> best_accuracy;
  double elapsed_seconds = 0.0;
};

/// Structured lifecycle counters across the whole fleet — the daemon's
/// `stats` reply and its drain condition (inflight == 0), instead of
/// callers re-deriving them from per-study getters.
struct ManagerStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t paused = 0;
  std::size_t finished = 0;
  std::size_t killed = 0;
  std::size_t total_studies = 0;
  std::size_t trials_done = 0;  ///< across all studies, live + final
  std::size_t inflight = 0;     ///< trials currently in flight
  std::uint64_t completions_routed = 0;
  std::size_t leaked_completions = 0;
};

/// One manager lifecycle transition, pushed to the registered event tap as
/// it happens (same coordinator thread; the tap must not call back into
/// the manager). `trial` is only set for TrialComplete and is invalidated
/// when the tap returns — consume, never store.
struct StudyEvent {
  enum class Kind { Admitted, TrialComplete, StateChanged };
  Kind kind = Kind::StateChanged;
  rt::StudyId study = rt::kMainStudy;
  StudyState state = StudyState::Queued;
  const hpo::Trial* trial = nullptr;
  std::size_t trials_done = 0;
};

class StudyManager {
 public:
  /// `dataset` is shared by every study (the paper's setting: one dataset,
  /// many searches) and must outlive the manager.
  StudyManager(ManagerOptions options, const ml::Dataset& dataset);
  ~StudyManager();

  StudyManager(const StudyManager&) = delete;
  StudyManager& operator=(const StudyManager&) = delete;

  /// Queue a study; admission happens inside step()/run_all(). Returns the
  /// engine-level StudyId (also the key for state/outcome/pause/...).
  rt::StudyId submit(StudySpec spec);

  /// Admit queued studies, wait for ONE completion across every active
  /// study, route it to its owner. Returns true while any study is queued,
  /// running, or paused-with-work — i.e. while there is anything left to
  /// drive. Paused studies' in-flight completions are still consumed.
  bool step();

  /// What one bounded step accomplished.
  enum class StepOutcome {
    Progress,  ///< routed a completion or finished/admitted a study
    Idle,      ///< nothing landed within the bound, but work remains
    Drained,   ///< no queued, running, or in-flight work anywhere
  };

  /// Bounded step: like step(), but give up after `seconds` (wall or
  /// virtual) if no completion lands. The service daemon interleaves this
  /// with socket request handling, so a minutes-long trial never blocks
  /// submit/pause/status requests.
  StepOutcome step_for(double seconds);

  /// Drive until every study is Finished or Killed (paused studies with no
  /// in-flight work park the loop: run_all returns early if only paused
  /// studies remain, so a caller can resume() and run_all() again).
  void run_all();

  /// Pause a study. Running: hold its ready queue + stop pump refills
  /// (in-flight attempts finish and their completions are consumed while
  /// paused). Queued: the study is admitted in the paused state — its pump
  /// starts with refills held, so no trial ever dispatches until resume().
  void pause(rt::StudyId id);
  void resume(rt::StudyId id);
  /// Abandon the pump and cancel every non-terminal task of this study.
  /// The partial outcome (trials consumed so far) is kept.
  void kill(rt::StudyId id);

  /// The queries below accept retired studies too (see retire()); an
  /// unknown id throws std::out_of_range.
  StudyState state(rt::StudyId id) const;
  StudyStatus status(rt::StudyId id) const;
  /// Every study ever submitted, retired ones included, in submission order.
  std::vector<rt::StudyId> studies() const;
  bool known(rt::StudyId id) const { return records_.count(id) != 0 || retired_.count(id) != 0; }

  /// Fleet-wide lifecycle counters (see ManagerStats). O(live studies).
  ManagerStats stats() const;

  /// True while step() has work: a study queued or running, or trials in
  /// flight (a paused study's included). O(live studies) — the daemon's
  /// coordinator asks on every loop.
  bool busy() const;

  /// Per-state task counts of one study from the engine's per-study task
  /// index — the daemon `status` reply pairs this with the pump-side trial
  /// count. A retired study answers with its census at retirement.
  rt::StudyProgress progress(rt::StudyId id) const;

  /// Retire a Finished/Killed study: replace its full record (pump,
  /// algorithm, spec, outcome trial list) with its final StudyStatus and
  /// task census, and release the study in the Runtime (see
  /// Runtime::release_study). state/status/progress/known/stats keep
  /// answering with unchanged values; outcome() throws. A no-op for an
  /// already retired study; throws std::logic_error for a live one.
  void retire(rt::StudyId id);
  bool retired(rt::StudyId id) const { return retired_.count(id) != 0; }

  /// Register (or clear, with nullptr) the lifecycle event tap. Fired on
  /// the coordinator thread from inside submit/step/pause/resume/kill; the
  /// tap must not call back into the manager.
  using EventTap = std::function<void(const StudyEvent&)>;
  void set_event_tap(EventTap tap) { tap_ = std::move(tap); }

  /// Gate admission of queued studies (shutdown draining: stop starting
  /// new studies while in-flight ones run down; queued specs stay Queued
  /// for the shutdown manifest).
  void set_admission_paused(bool paused) { admission_paused_ = paused; }

  /// Final (or partial, if Killed) outcome; throws std::logic_error unless
  /// the study is Finished or Killed and not yet retired.
  const hpo::HpoOutcome& outcome(rt::StudyId id) const;

  /// Completions that arrived tagged with a study whose pump did not
  /// recognise them — cross-study leaks; always 0 unless routing is broken.
  std::size_t leaked_completions() const { return leaked_; }

  // Runtime forwarders (the manager owns the Runtime; nothing else should
  // reach for it — chpo_lint bans rt::Runtime& parameters in this layer).
  double now() const { return runtime_.now(); }
  bool simulated() const { return runtime_.simulated(); }
  const trace::TraceSink& trace() const { return runtime_.trace(); }
  std::uint64_t lineage_violations() const { return runtime_.lineage_violations(); }
  std::size_t lineage_recoveries() const { return runtime_.lineage_recoveries(); }

 private:
  struct Record {
    StudySpec spec;
    rt::StudySession session;
    std::unique_ptr<hpo::SearchAlgorithm> algorithm;  ///< null for halving/hyperband
    std::unique_ptr<hpo::TrialPump> pump;
    StudyState state = StudyState::Queued;
    hpo::HpoOutcome outcome;
    /// pause() landed while Queued: admit in the paused state.
    bool start_paused = false;
  };

  /// What a retired study keeps: its final status and task census.
  struct Retired {
    StudyStatus status;
    rt::StudyProgress tasks;
  };

  void admit();
  void start(Record& record);
  void finish(Record& record);
  /// Bookkeeping shared by finish and kill: leave the live set, tally.
  void close(Record& record, StudyState state);
  /// Finish every Running study whose pump went inactive; true if any did.
  bool finish_drained();
  /// The full record of `id`; nullptr once retired; throws if unknown.
  Record* record_for(rt::StudyId id);
  std::size_t active_count() const;
  /// Route one tracked completion to its owning pump (or count a leak).
  void route(const rt::Future& finished);
  /// Trials in flight across every started live study.
  std::size_t in_flight() const;
  void emit(StudyEvent::Kind kind, rt::StudyId id, const Record& record,
            const hpo::Trial* trial = nullptr);

  ManagerOptions options_;
  const ml::Dataset& dataset_;
  rt::Runtime runtime_;
  /// Full records: live studies plus closed ones not yet retired.
  std::map<rt::StudyId, Record> records_;
  std::map<rt::StudyId, Retired> retired_;
  std::vector<rt::StudyId> order_;  ///< submission order (reports, list)
  /// Queued/Running/Paused ids. Ids ascend with submission, so this is
  /// submission order too; every per-step loop walks it, not records_.
  std::set<rt::StudyId> live_;
  /// Running tallies over closed (Finished/Killed) studies for stats().
  std::size_t closed_finished_ = 0;
  std::size_t closed_killed_ = 0;
  std::size_t closed_trials_ = 0;
  std::size_t leaked_ = 0;
  std::uint64_t routed_ = 0;
  bool admission_paused_ = false;
  EventTap tap_;
};

}  // namespace chpo::service
