#include "runtime/backend.hpp"

#include <stdexcept>

namespace chpo::rt {

bool Backend::drive(const std::function<bool()>& finished, double deadline) {
  engine_.flush_notifications();
  std::vector<Finished> batch;  // reused across rounds
  while (!finished()) {
    // Expired horizon first, before starting new work, so a zero budget
    // dispatches nothing.
    if (deadline >= 0.0 && now() >= deadline) return false;

    // Timed engine duties first (node events, overdue attempts, backoff
    // expiries, speculative duplicates), then regular placement. Both can
    // turn tasks terminal, so flush before re-checking the target.
    for (const Dispatch& d : engine_.on_wakeup(now())) launch(d);
    for (const Dispatch& d : engine_.schedule(now())) launch(d);
    engine_.flush_notifications();

    if (finished()) return true;

    const std::optional<double> wake = engine_.next_wakeup(now());
    if (!in_flight()) {
      // Nothing can land and nothing could be placed: a pending timed duty
      // (backoff retry), constraints turned infeasible (node deaths), a
      // paused study's held work, or a genuine deadlock.
      if (engine_.reap_infeasible()) {
        engine_.flush_notifications();
        continue;
      }
      if (finished()) return true;
      // Only an unbounded wait with no duty pending can never finish; a
      // bounded one idles to its deadline (a caller may still change the
      // picture, e.g. resume a paused study).
      if (!wake && deadline < 0.0)
        throw std::runtime_error("Backend::drive: no task can run but the wait is not finished");
      double until = wake ? *wake : deadline;
      const bool deadline_first = deadline >= 0.0 && deadline <= until;
      if (deadline_first) until = deadline;
      idle_until(until);
      if (deadline_first) return false;
      continue;
    }

    batch.clear();
    collect(deadline, wake, batch);
    // Empty: the deadline or an engine wakeup came first — back to the top.
    if (batch.empty()) continue;
    for (Finished& f : batch) {
      Engine::Completion completion =
          engine_.complete_attempt(f.attempt_id, std::move(f.result), f.start, f.end);
      if (completion.retry) launch(*completion.retry);
    }
    // Safe point: the engine holds no record references here, so queued
    // terminal notifications (and their user callbacks) can fire.
    engine_.flush_notifications();
  }
  return true;
}

}  // namespace chpo::rt
