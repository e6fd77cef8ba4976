#include "service/study_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/log.hpp"

namespace chpo::service {

const char* study_state_name(StudyState state) {
  switch (state) {
    case StudyState::Queued: return "queued";
    case StudyState::Running: return "running";
    case StudyState::Paused: return "paused";
    case StudyState::Finished: return "finished";
    case StudyState::Killed: return "killed";
  }
  return "?";
}

StudyManager::StudyManager(ManagerOptions options, const ml::Dataset& dataset)
    : options_(std::move(options)), dataset_(dataset), runtime_(std::move(options_.runtime)) {}

StudyManager::~StudyManager() {
  // Abandoned/paused pumps may still have in-flight attempts; the
  // Runtime's destructor drains them (unpausing every study first), so
  // nothing special is needed here — records just have to outlive nothing.
}

rt::StudyId StudyManager::submit(StudySpec spec) {
  rt::StudyOptions study_options;
  study_options.name = spec.name;
  study_options.weight = spec.weight;
  study_options.max_running = spec.max_running;
  const rt::StudySession session = runtime_.open_study(std::move(study_options));

  Record record;
  record.spec = std::move(spec);
  record.session = session;
  const rt::StudyId id = session.id();
  records_.emplace(id, std::move(record));
  order_.push_back(id);
  live_.insert(id);
  return id;
}

std::size_t StudyManager::active_count() const {
  std::size_t n = 0;
  for (const rt::StudyId id : live_)
    if (records_.at(id).state != StudyState::Queued) ++n;
  return n;
}

void StudyManager::emit(StudyEvent::Kind kind, rt::StudyId id, const Record& record,
                        const hpo::Trial* trial) {
  if (!tap_) return;
  StudyEvent event;
  event.kind = kind;
  event.study = id;
  event.state = record.state;
  event.trial = trial;
  if (record.state == StudyState::Running || record.state == StudyState::Paused)
    event.trials_done = record.pump ? record.pump->trials_done() : 0;
  else
    event.trials_done = record.outcome.trials.size();
  tap_(event);
}

void StudyManager::start(Record& record) {
  const StudySpec& spec = record.spec;
  if (spec.algorithm == "halving") {
    hpo::HalvingOptions options = spec.halving;
    options.driver = spec.driver;
    record.pump = std::make_unique<hpo::HalvingRun>(record.session, dataset_, spec.space, options);
  } else if (spec.algorithm == "hyperband") {
    hpo::HyperbandOptions options = spec.hyperband;
    options.driver = spec.driver;
    record.pump =
        std::make_unique<hpo::HyperbandRun>(record.session, dataset_, spec.space, options);
  } else {
    // Point search: the algorithm object holds a reference into
    // record.spec.space, which lives exactly as long as the record.
    record.algorithm = hpo::make_search_algorithm(spec.algorithm, record.spec.space, spec.budget,
                                                  spec.driver.seed);
    record.pump =
        std::make_unique<hpo::StudyRun>(record.session, dataset_, spec.driver, *record.algorithm);
  }
  record.state = StudyState::Running;
  if (record.start_paused) {
    // pause() landed while Queued: admit with refills held and the ready
    // queue paused, so no trial dispatches until resume().
    record.pump->set_refill_paused(true);
    record.session.pause();
    record.state = StudyState::Paused;
  }
  record.pump->start();
  log_info("service", "study {} '{}' admitted ({}, {} in flight{})", record.session.id(),
           record.session.name(), spec.algorithm, record.pump->in_flight(),
           record.start_paused ? ", paused" : "");
  emit(StudyEvent::Kind::Admitted, record.session.id(), record);
  if (record.state == StudyState::Running && !record.pump->active())
    finish(record);  // e.g. fully replayed from checkpoint
}

void StudyManager::close(Record& record, StudyState state) {
  record.state = state;
  live_.erase(record.session.id());
  ++(state == StudyState::Finished ? closed_finished_ : closed_killed_);
  closed_trials_ += record.outcome.trials.size();
}

void StudyManager::finish(Record& record) {
  record.outcome = record.pump->finish();
  close(record, StudyState::Finished);
  log_info("service", "study {} '{}' finished: {} trials, best {:.3f}", record.session.id(),
           record.session.name(), record.outcome.trials.size(),
           record.outcome.best() ? record.outcome.best()->result.final_val_accuracy : 0.0);
  emit(StudyEvent::Kind::StateChanged, record.session.id(), record);
}

void StudyManager::admit() {
  if (admission_paused_) return;
  std::size_t active = active_count();
  for (auto it = live_.begin(); it != live_.end();) {
    if (options_.max_active > 0 && active >= options_.max_active) break;
    // Advance first: start() may finish the study and erase it from live_.
    Record& record = records_.at(*it++);
    if (record.state != StudyState::Queued) continue;
    start(record);
    if (record.state == StudyState::Running || record.state == StudyState::Paused) ++active;
  }
}

std::size_t StudyManager::in_flight() const {
  // Paused studies count too: an attempt that was already running when the
  // pause landed finishes and commits (pause holds the *ready* queue, it
  // never aborts work), and its completion is consumed while paused.
  std::size_t n = 0;
  for (const rt::StudyId id : live_)
    if (const Record& record = records_.at(id); record.pump) n += record.pump->in_flight();
  return n;
}

void StudyManager::route(const rt::Future& finished) {
  // Route by the study tag the task carried through the engine.
  const rt::StudyId owner = runtime_.graph().task(finished.producer).study;
  const auto it = records_.find(owner);
  if (it == records_.end() || !it->second.pump || !it->second.pump->on_trial_complete(finished)) {
    // A completion surfaced for a study that does not recognise it: a
    // cross-study leak. Count it (CI asserts zero) and drop it.
    ++leaked_;
    log_warn("service", "leaked completion: task {} tagged study {}", finished.producer, owner);
    return;
  }
  Record& record = it->second;
  ++routed_;
  emit(StudyEvent::Kind::TrialComplete, owner, record, record.pump->last_trial());
  if (record.state == StudyState::Running && !record.pump->active()) finish(record);
}

bool StudyManager::step() {
  admit();

  if (in_flight() == 0) {
    // Nothing in flight anywhere. Running studies with no futures are
    // drained state machines that never went inactive — a pump bug.
    finish_drained();
    bool queued = false;
    for (const rt::StudyId id : live_)
      if (records_.at(id).state == StudyState::Queued) queued = true;
    return queued;  // paused-only fleets park here; resume() + step() continues
  }

  route(runtime_.next_completion());
  return true;
}

StudyManager::StepOutcome StudyManager::step_for(double seconds) {
  admit();

  if (in_flight() == 0) {
    if (finish_drained()) return StepOutcome::Progress;
    // Anything still live is parked: a paused fleet, or admission gated.
    return live_.empty() ? StepOutcome::Drained : StepOutcome::Idle;
  }

  const rt::Future finished = runtime_.next_completion(runtime_.now() + seconds);
  if (finished.producer == rt::kNoTask) return StepOutcome::Idle;  // bound expired
  route(finished);
  return StepOutcome::Progress;
}

void StudyManager::run_all() {
  while (busy()) step();
}

bool StudyManager::finish_drained() {
  bool finished = false;
  for (auto it = live_.begin(); it != live_.end();) {
    Record& record = records_.at(*it++);  // advance first: finish() erases
    if (record.state == StudyState::Running && !record.pump->active()) {
      finish(record);
      finished = true;
    }
  }
  return finished;
}

bool StudyManager::busy() const {
  for (const rt::StudyId id : live_) {
    const Record& record = records_.at(id);
    if (record.state != StudyState::Paused || record.pump->in_flight() > 0) return true;
  }
  return false;
}

StudyManager::Record* StudyManager::record_for(rt::StudyId id) {
  const auto it = records_.find(id);
  if (it != records_.end()) return &it->second;
  if (retired_.count(id) != 0) return nullptr;  // closed for good: nothing to do
  throw std::out_of_range("StudyManager: unknown study " + std::to_string(id));
}

void StudyManager::pause(rt::StudyId id) {
  Record* found = record_for(id);
  if (found == nullptr) return;
  Record& record = *found;
  if (record.state == StudyState::Queued) {
    record.start_paused = true;  // admit() starts the study paused
    return;
  }
  if (record.state != StudyState::Running) return;
  record.pump->set_refill_paused(true);
  record.session.pause();
  record.state = StudyState::Paused;
  emit(StudyEvent::Kind::StateChanged, id, record);
}

void StudyManager::resume(rt::StudyId id) {
  Record* found = record_for(id);
  if (found == nullptr) return;
  Record& record = *found;
  if (record.state == StudyState::Queued) {
    record.start_paused = false;
    return;
  }
  if (record.state != StudyState::Paused) return;
  record.session.resume();
  record.state = StudyState::Running;
  record.start_paused = false;
  record.pump->set_refill_paused(false);
  emit(StudyEvent::Kind::StateChanged, id, record);
  if (!record.pump->active()) finish(record);
}

void StudyManager::kill(rt::StudyId id) {
  Record* found = record_for(id);
  if (found == nullptr) return;
  Record& record = *found;
  if (record.state == StudyState::Finished || record.state == StudyState::Killed) return;
  if (record.state == StudyState::Paused) record.session.resume();
  if (record.state == StudyState::Queued) {
    close(record, StudyState::Killed);
    emit(StudyEvent::Kind::StateChanged, id, record);
    return;
  }
  record.pump->abandon();
  // Sweep the whole study: abandon() cancels the trials the pump knows
  // about; cancel_all() also catches study-tagged helpers (visualisation
  // tasks, stage chains) the pump only holds indirectly.
  const std::size_t swept = record.session.cancel_all();
  record.outcome = record.pump->finish();
  close(record, StudyState::Killed);
  log_info("service", "study {} '{}' killed ({} tasks cancelled, {} trials kept)", id,
           record.session.name(), swept, record.outcome.trials.size());
  emit(StudyEvent::Kind::StateChanged, id, record);
}

StudyState StudyManager::state(rt::StudyId id) const {
  const auto it = records_.find(id);
  return it != records_.end() ? it->second.state : retired_.at(id).status.state;
}

StudyStatus StudyManager::status(rt::StudyId id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) return retired_.at(id).status;
  const Record& record = it->second;
  StudyStatus s;
  s.id = id;
  s.name = record.session.name();
  s.algorithm = record.spec.algorithm;
  s.state = record.state;
  // Live count from the pump while it owns the trials; final count from
  // the flattened outcome afterwards.
  if ((record.state == StudyState::Running || record.state == StudyState::Paused) && record.pump)
    s.trials_done = record.pump->trials_done();
  else
    s.trials_done = record.outcome.trials.size();
  if (record.state == StudyState::Finished || record.state == StudyState::Killed) {
    if (const hpo::Trial* best = record.outcome.best())
      s.best_accuracy = best->result.final_val_accuracy;
    s.elapsed_seconds = record.outcome.elapsed_seconds;
  }
  return s;
}

rt::StudyProgress StudyManager::progress(rt::StudyId id) const {
  if (records_.count(id) != 0) return runtime_.study_progress(id);
  return retired_.at(id).tasks;
}

void StudyManager::retire(rt::StudyId id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    if (retired_.count(id) != 0) return;
    throw std::out_of_range("StudyManager: unknown study " + std::to_string(id));
  }
  const StudyState state = it->second.state;
  if (state != StudyState::Finished && state != StudyState::Killed)
    throw std::logic_error("StudyManager::retire: study " + std::to_string(id) + " is still " +
                           study_state_name(state));
  // Snapshot before the release: the census and the name come from the
  // Runtime, which forgets the study below.
  retired_.emplace(id, Retired{.status = status(id), .tasks = runtime_.study_progress(id)});
  records_.erase(it);  // pump, algorithm, spec and trial list go here
  runtime_.release_study(id);
}

ManagerStats StudyManager::stats() const {
  ManagerStats stats;
  stats.total_studies = order_.size();
  stats.finished = closed_finished_;
  stats.killed = closed_killed_;
  stats.trials_done = closed_trials_;
  for (const rt::StudyId id : live_) {
    const Record& record = records_.at(id);
    switch (record.state) {
      case StudyState::Queued: ++stats.queued; break;
      case StudyState::Running: ++stats.running; break;
      case StudyState::Paused: ++stats.paused; break;
      case StudyState::Finished:
      case StudyState::Killed: break;  // never live
    }
    if (record.pump) {
      stats.trials_done += record.pump->trials_done();
      stats.inflight += record.pump->in_flight();
    }
  }
  stats.completions_routed = routed_;
  stats.leaked_completions = leaked_;
  return stats;
}

std::vector<rt::StudyId> StudyManager::studies() const { return order_; }

const hpo::HpoOutcome& StudyManager::outcome(rt::StudyId id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    if (retired_.count(id) != 0)
      throw std::logic_error("StudyManager::outcome: study " + std::to_string(id) +
                             " was retired; its outcome was released (status() keeps the "
                             "summary)");
    throw std::out_of_range("StudyManager: unknown study " + std::to_string(id));
  }
  const Record& record = it->second;
  if (record.state != StudyState::Finished && record.state != StudyState::Killed)
    throw std::logic_error("StudyManager::outcome: study " + std::to_string(id) +
                           " is still " + study_state_name(record.state));
  return record.outcome;
}

}  // namespace chpo::service
