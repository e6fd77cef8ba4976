// Fault injection and the retry policy.
//
// The paper (§3/§4): "If a task fails for whatever reason, the runtime
// tries to start the same task in the same node; if it fails again, it is
// restarted in another node." FaultPolicy encodes exactly that. The
// injector produces the failures: per-attempt random failures, forced
// failures for specific tasks (deterministic tests), and scheduled node
// deaths (simulation backend only).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/types.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace chpo::rt {

struct FaultPolicy {
  /// Retries on the *same* node after the first failure (paper: 1).
  int same_node_retries = 1;
  /// Total attempts before the task is declared Failed. Default 3 =
  /// original try + 1 same-node retry + 1 other-node retry.
  int max_attempts = 3;
  /// Exponential backoff before re-dispatching a failed attempt: attempt
  /// n+1 waits min(backoff_max_seconds, base * multiplier^(n-1)) after the
  /// n-th failure. base <= 0 disables backoff (immediate retries, the
  /// paper's behaviour and the default).
  double backoff_base_seconds = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 60.0;

  /// Delay before the retry that follows `failed_attempts` failures
  /// (1-based). Monotone non-decreasing in `failed_attempts` and capped at
  /// backoff_max_seconds; 0 when backoff is disabled.
  double retry_delay(int failed_attempts) const;
};

/// Straggler detection and speculative re-execution (Hippo-style): once
/// enough attempt durations of a task variant have been observed, a running
/// attempt that exceeds `straggler_multiplier` x the `quantile` duration is
/// declared a straggler and a duplicate attempt may be launched on another
/// node. The first attempt to finish wins through the engine's terminal
/// funnel; the loser is abandoned (PR 1's abandon-on-finish path).
struct SpeculationPolicy {
  bool enabled = false;
  /// Duration quantile used as the baseline (0.75 = upper quartile).
  double quantile = 0.75;
  /// Straggler threshold = multiplier x baseline quantile.
  double straggler_multiplier = 2.0;
  /// Observations of a task variant required before its threshold exists.
  /// Clamped to >= 2: a single observation is never a baseline.
  int min_observations = 3;
  /// Speculative duplicates allowed per task (beyond the original attempt).
  int max_duplicates = 1;
  /// When > 0 and the TaskDef declares no timeout, attempts are killed
  /// after multiplier x baseline quantile seconds (adaptive timeout).
  double adaptive_timeout_multiplier = 0.0;
};

/// Per-variant attempt-duration samples feeding SpeculationPolicy decisions.
/// Coordinator-thread only (the engine's threading contract).
class SpeculationTracker {
 public:
  SpeculationTracker() = default;
  explicit SpeculationTracker(SpeculationPolicy policy) : policy_(policy) {}

  /// Record the duration of a *successful* attempt of `key`.
  void record(const std::string& key, double seconds);

  /// Quantile duration, or nullopt with fewer than max(2, min_observations)
  /// samples.
  std::optional<double> baseline(const std::string& key) const;

  /// Elapsed seconds after which a running attempt of `key` counts as a
  /// straggler. Never fires with fewer than two observations.
  std::optional<double> straggler_threshold(const std::string& key) const;

  /// Timeout for a new attempt of `key`: the TaskDef's own timeout when
  /// declared, else the adaptive timeout when enabled and a baseline
  /// exists. Returns <= 0 when the attempt has no deadline.
  double effective_timeout(const std::string& key, double def_timeout) const;

  std::size_t observations(const std::string& key) const;
  const SpeculationPolicy& policy() const { return policy_; }

 private:
  /// One key's samples, split at the policy quantile: `lower`, a max-heap,
  /// holds the quantile_index(n) + 1 smallest and `upper`, a min-heap, the
  /// rest, so the quantile sample is lower's top. A record costs
  /// O(log n); a sorted vector paid an O(n) insert per completion, which
  /// made a long run quadratic.
  struct Samples {
    std::vector<double> lower;
    std::vector<double> upper;
    std::size_t size() const { return lower.size() + upper.size(); }
  };
  /// Index of the quantile sample among `n` >= 1 sorted samples.
  std::size_t quantile_index(std::size_t n) const;

  SpeculationPolicy policy_;
  std::map<std::string, Samples> samples_;
};

/// A node death scheduled at a virtual time (SimBackend).
struct NodeFailureEvent {
  std::size_t node = 0;
  double time = 0.0;
};

/// A node rejoin scheduled at a virtual time. A failure with no later
/// recovery for the same node is permanent; pairing the two makes the
/// outage transient.
struct NodeRecoveryEvent {
  std::size_t node = 0;
  double time = 0.0;
};

/// Probabilistic per-node churn: every node alternates exponentially
/// distributed up intervals (mean mttf_seconds) and outages (mean
/// mttr_seconds), sampled deterministically from the injector seed up to
/// horizon_seconds. mttr_seconds <= 0 makes every sampled failure
/// permanent.
struct NodeChaosPolicy {
  double mttf_seconds = 0.0;  ///< <= 0 disables probabilistic churn
  double mttr_seconds = 0.0;
  double horizon_seconds = 3600.0;
};

class FaultInjector {
 public:
  FaultInjector() : rng_(0) {}
  explicit FaultInjector(std::uint64_t seed, double task_failure_prob = 0.0)
      : rng_(seed), task_failure_prob_(task_failure_prob) {}

  // Copyable despite the mutex (copies happen at configuration time,
  // before any worker thread exists — hence exempt from the analysis,
  // which cannot see that sequencing).
  FaultInjector(const FaultInjector& other) CHPO_NO_THREAD_SAFETY_ANALYSIS
      : rng_(other.rng_),
        task_failure_prob_(other.task_failure_prob_),
        forced_(other.forced_),
        node_failures_(other.node_failures_),
        node_recoveries_(other.node_recoveries_),
        chaos_(other.chaos_) {}
  FaultInjector& operator=(const FaultInjector& other) CHPO_NO_THREAD_SAFETY_ANALYSIS {
    rng_ = other.rng_;
    task_failure_prob_ = other.task_failure_prob_;
    forced_ = other.forced_;
    node_failures_ = other.node_failures_;
    node_recoveries_ = other.node_recoveries_;
    chaos_ = other.chaos_;
    return *this;
  }

  /// Force the first `n_failures` attempts of `task` to fail (deterministic).
  void force_task_failures(TaskId task, int n_failures) { forced_[task] = n_failures; }

  /// Schedule a permanent node death (paired with schedule_node_recovery
  /// for a transient outage). Times are virtual seconds on the simulation
  /// backend and wall-clock seconds on the threaded one.
  void schedule_node_failure(std::size_t node, double time) {
    node_failures_.push_back(NodeFailureEvent{.node = node, .time = time});
  }

  /// Schedule the node's rejoin, turning a scheduled failure transient.
  void schedule_node_recovery(std::size_t node, double time) {
    node_recoveries_.push_back(NodeRecoveryEvent{.node = node, .time = time});
  }

  /// Enable probabilistic per-node MTTF/MTTR churn. The concrete timeline
  /// is sampled by materialize_node_schedule once the cluster size is
  /// known (the engine calls it at construction).
  void set_node_chaos(NodeChaosPolicy chaos) { chaos_ = chaos; }

  /// Sample the MTTF/MTTR timeline for `n_nodes` into the scheduled
  /// failure/recovery lists (deterministic in the injector seed).
  /// Failures that would leave the cluster with no live node are skipped —
  /// chaos should degrade a run, not make it impossible. Idempotent: the
  /// schedule is materialized at most once.
  void materialize_node_schedule(std::size_t n_nodes) CHPO_EXCLUDES(mutex_);

  /// Decide whether this attempt fails by injection. `attempt` is 1-based.
  bool should_fail(TaskId task, int attempt) CHPO_EXCLUDES(mutex_);

  const std::vector<NodeFailureEvent>& node_failures() const { return node_failures_; }
  const std::vector<NodeRecoveryEvent>& node_recoveries() const { return node_recoveries_; }

 private:
  /// One inverse-CDF exponential draw from the injector RNG.
  double exp_draw_locked(double mean) CHPO_REQUIRES(mutex_);

  /// should_fail runs inside execute_body, which the threaded backend
  /// calls from concurrent workers: the rng draw and the forced-failure
  /// decrement must be atomic. The node-event lists and policies are
  /// configuration-time state, written before any worker exists and read
  /// by the coordinator only, so they stay unguarded.
  mutable Mutex mutex_{lockdep::kFaultInjector};
  Rng rng_ CHPO_GUARDED_BY(mutex_);
  double task_failure_prob_ = 0.0;
  std::map<TaskId, int> forced_ CHPO_GUARDED_BY(mutex_);  ///< remaining forced failures
  std::vector<NodeFailureEvent> node_failures_;
  std::vector<NodeRecoveryEvent> node_recoveries_;
  NodeChaosPolicy chaos_;
  bool chaos_materialized_ CHPO_GUARDED_BY(mutex_) = false;
};

}  // namespace chpo::rt
