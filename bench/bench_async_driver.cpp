// In-order vs as-completed result consumption under whole-HPO early stop.
//
// The paper's §6.1 claim is that the runtime can "stop as soon as one task
// achieves a specified accuracy". How much that saves depends on *how the
// driver consumes results*: the old wait_on loop observed trials in
// submission order, so a fast trial submitted late sat unobserved behind
// slow early trials (head-of-line blocking); the completion-driven loop
// (track + next_completion) observes it the moment it finishes and cancels
// the rest.
//
// Workload: the Figure-9 shape — one MareNostrum4 node, 4 cores per trial
// (12 concurrent), trial durations skewed across an order of magnitude,
// and the threshold-crossing trial short but submitted late. Virtual time,
// so the numbers are exact queue dynamics, not noise.
#include "bench_common.hpp"

#include <vector>

namespace {

using namespace chpo;

struct TrialScript {
  double seconds;   ///< virtual duration on 4 cores
  double accuracy;  ///< validation accuracy the trial "reaches"
};

/// Skewed-duration script: durations spread over [30, 300] with a
/// deterministic shuffle; only one trial (short, late index) crosses the
/// stop threshold.
std::vector<TrialScript> make_script(std::size_t n, std::size_t winner_index) {
  std::vector<TrialScript> script(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double unit = static_cast<double>((i * 7919u + 13u) % 97u) / 96.0;
    script[i].seconds = 30.0 + 270.0 * unit;
    script[i].accuracy = 0.40 + 0.30 * unit;  // below the 0.9 target
  }
  script[winner_index].seconds = 35.0;
  script[winner_index].accuracy = 0.93;
  return script;
}

rt::Runtime make_runtime() {
  rt::RuntimeOptions options;
  options.cluster = cluster::marenostrum4(1);
  options.simulate = true;
  return rt::Runtime(std::move(options));
}

std::vector<rt::Future> submit_all(rt::Runtime& runtime, const std::vector<TrialScript>& script) {
  std::vector<rt::Future> futures;
  futures.reserve(script.size());
  for (const TrialScript& trial : script) {
    rt::TaskDef def;
    def.name = "experiment";
    def.constraint = {.cpus = 4};
    def.body = [accuracy = trial.accuracy](rt::TaskContext&) { return std::any(accuracy); };
    def.cost = [seconds = trial.seconds](const rt::Placement&, const cluster::NodeSpec&) {
      return seconds;
    };
    futures.push_back(runtime.submit(def));
  }
  return futures;
}

struct StopStats {
  double stop_time = 0.0;       ///< virtual seconds until the driver observed the crossing
  std::size_t consumed = 0;     ///< results waited on before stopping
  std::size_t cancelled = 0;    ///< trials cancel() stopped (as-completed only)
};

/// The pre-refactor driver loop: results consumed strictly in submission
/// order with blocking wait_on.
StopStats consume_in_order(const std::vector<TrialScript>& script, double target) {
  rt::Runtime runtime = make_runtime();
  const std::vector<rt::Future> futures = submit_all(runtime, script);
  StopStats stats;
  for (const rt::Future& f : futures) {
    const double accuracy = runtime.wait_on_as<double>(f);
    ++stats.consumed;
    if (accuracy >= target) break;
  }
  stats.stop_time = runtime.now();
  return stats;
}

/// The completion-driven loop: track every trial, consume the
/// tracked-completion queue in completion order, and cancel the rest on the
/// first crossing.
StopStats consume_as_completed(const std::vector<TrialScript>& script, double target) {
  rt::Runtime runtime = make_runtime();
  const std::vector<rt::Future> futures = submit_all(runtime, script);
  for (const rt::Future& f : futures) runtime.track(f);
  StopStats stats;
  while (stats.consumed < futures.size()) {
    const rt::Future done = runtime.next_completion();
    ++stats.consumed;
    if (runtime.wait_on_as<double>(done) >= target) {
      // cancel() is false for trials that already finished, consumed or not.
      for (const rt::Future& f : futures)
        if (runtime.cancel(f)) ++stats.cancelled;
      break;
    }
  }
  stats.stop_time = runtime.now();
  return stats;
}

}  // namespace

int main() {
  bench::print_header("bench_async_driver",
                      "§6.1 early stop: in-order vs completion-driven consumption");

  constexpr double kTarget = 0.9;
  std::printf("%-8s %-10s %-14s %-12s %-14s %-12s %-12s %-10s\n", "trials", "winner@",
              "in-order (s)", "consumed", "as-compl. (s)", "consumed", "cancelled", "speedup");

  bool all_strictly_earlier = true;
  for (const std::size_t n : {12u, 24u, 48u}) {
    const std::size_t winner = n - 3;  // short trial near the end of the queue
    const std::vector<TrialScript> script = make_script(n, winner);
    const StopStats ordered = consume_in_order(script, kTarget);
    const StopStats completed = consume_as_completed(script, kTarget);
    all_strictly_earlier = all_strictly_earlier && completed.stop_time < ordered.stop_time;
    std::printf("%-8zu %-10zu %-14.1f %-12zu %-14.1f %-12zu %-12zu %-9.2fx\n", n, winner,
                ordered.stop_time, ordered.consumed, completed.stop_time, completed.consumed,
                completed.cancelled, ordered.stop_time / completed.stop_time);
  }

  std::printf("\ncompletion-driven stop strictly earlier on every size: %s\n",
              all_strictly_earlier ? "yes" : "NO (UNEXPECTED)");
  return all_strictly_earlier ? 0 : 1;
}
