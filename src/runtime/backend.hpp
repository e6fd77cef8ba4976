// Backend interface: who owns time.
//
// The engine decides *what* happens; a backend decides *when*. The threaded
// backend executes task bodies on real host threads and reads a wall clock;
// the simulation backend advances a virtual clock by per-task cost models.
// Both must drive the engine to the same logical outcome for the same
// submission sequence — the test suite asserts this equivalence.
//
// There is one drive loop (Backend::drive, backend.cpp) for both. A backend
// supplies four primitives — start an attempt, say whether any attempt is
// in flight, idle until an instant, and collect finished attempts — and
// owns its clock. Every wait the Runtime offers is drive() over a predicate,
// with or without a deadline.
//
// drive() and the primitives require the g_engine_ctx capability: backends
// never acquire the coordinator role themselves, they inherit it from the
// Runtime call that invoked them (see engine_context.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/types.hpp"

namespace chpo::rt {

class Backend {
 public:
  explicit Backend(Engine& engine) : engine_(engine) {}
  virtual ~Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Current time in seconds (wall-clock since construction, or virtual).
  virtual double now() const = 0;

  /// Drive the engine until `finished()` holds (checked on the coordinator
  /// between engine steps) or the clock reaches `deadline` (seconds on this
  /// backend's clock; < 0 = none), whichever comes first. An already-passed
  /// deadline starts no new work. Returns true iff `finished()` held.
  /// Throws std::runtime_error when an unbounded wait can never finish:
  /// nothing runs, nothing can be placed and no engine duty is pending.
  bool drive(const std::function<bool()>& finished, double deadline = -1.0)
      CHPO_REQUIRES(g_engine_ctx);

  /// Run exactly one engine duty round — process due node events, reap
  /// overdue attempts, dispatch ready work — without waiting for anything.
  /// Used by the chaos hooks so an injected membership event applies
  /// immediately rather than at the next blocking wait.
  void poke() CHPO_REQUIRES(g_engine_ctx) {
    int steps = 0;
    drive([&steps] { return steps++ > 0; });
  }

  /// Worker-side work-stealing counter (jobs a worker took from another
  /// worker's queue). 0 where the concept does not apply — the simulator
  /// runs bodies on the coordinator. Monitoring/tests only; unannotated
  /// because it reads an atomic, not engine state.
  virtual std::uint64_t steals() const { return 0; }

 protected:
  /// One attempt that ran to its end (successfully or not), as collect()
  /// hands it to the drive loop for Engine::complete_attempt.
  struct Finished {
    std::uint64_t attempt_id = 0;
    AttemptResult result;
    double start = 0.0;  ///< when the body began (after staging)
    double end = 0.0;
  };

  /// Start one attempt.
  virtual void launch(const Dispatch& dispatch) CHPO_REQUIRES(g_engine_ctx) = 0;
  /// True iff some attempt (or, on the simulator, any queued event) can
  /// still land, i.e. collect() has something to wait for.
  virtual bool in_flight() CHPO_REQUIRES(g_engine_ctx) = 0;
  /// Nothing is in flight: let the clock reach `t` (sleep, or jump).
  virtual void idle_until(double t) = 0;
  /// Wait for finished attempts and append them to `out`, giving up at the
  /// `deadline` (< 0 = none) or at the engine's next `wake`-up. An empty
  /// batch sends the loop back to its duty round.
  virtual void collect(double deadline, std::optional<double> wake, std::vector<Finished>& out)
      CHPO_REQUIRES(g_engine_ctx) = 0;

  Engine& engine_;
};

}  // namespace chpo::rt
