#include "runtime/fault.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

namespace chpo::rt {

double FaultPolicy::retry_delay(int failed_attempts) const {
  if (backoff_base_seconds <= 0.0 || failed_attempts < 1) return 0.0;
  const double factor = std::pow(std::max(1.0, backoff_multiplier), failed_attempts - 1);
  return std::min(backoff_max_seconds, backoff_base_seconds * factor);
}

std::size_t SpeculationTracker::quantile_index(std::size_t n) const {
  const double q = std::clamp(policy_.quantile, 0.0, 1.0);
  return std::min(n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
}

void SpeculationTracker::record(const std::string& key, double seconds) {
  Samples& samples = samples_[key];
  std::vector<double>& lower = samples.lower;  // max-heap
  std::vector<double>& upper = samples.upper;  // min-heap
  const std::greater<> min_heap;
  if (lower.empty() || seconds <= lower.front()) {
    lower.push_back(seconds);
    std::push_heap(lower.begin(), lower.end());
  } else {
    upper.push_back(seconds);
    std::push_heap(upper.begin(), upper.end(), min_heap);
  }
  // The wanted split grows by at most one per sample, so one move at most.
  const std::size_t wanted = quantile_index(samples.size()) + 1;
  while (lower.size() > wanted) {
    std::pop_heap(lower.begin(), lower.end());
    upper.push_back(lower.back());
    lower.pop_back();
    std::push_heap(upper.begin(), upper.end(), min_heap);
  }
  while (lower.size() < wanted) {
    std::pop_heap(upper.begin(), upper.end(), min_heap);
    lower.push_back(upper.back());
    upper.pop_back();
    std::push_heap(lower.begin(), lower.end());
  }
}

std::optional<double> SpeculationTracker::baseline(const std::string& key) const {
  const auto it = samples_.find(key);
  if (it == samples_.end()) return std::nullopt;
  const std::size_t required = static_cast<std::size_t>(std::max(2, policy_.min_observations));
  if (it->second.size() < required) return std::nullopt;
  return it->second.lower.front();
}

std::optional<double> SpeculationTracker::straggler_threshold(const std::string& key) const {
  const auto base = baseline(key);
  if (!base) return std::nullopt;
  return std::max(policy_.straggler_multiplier, 1.0) * *base;
}

double SpeculationTracker::effective_timeout(const std::string& key, double def_timeout) const {
  if (def_timeout > 0.0) return def_timeout;
  if (policy_.adaptive_timeout_multiplier <= 0.0) return 0.0;
  const auto base = baseline(key);
  if (!base) return 0.0;
  return policy_.adaptive_timeout_multiplier * *base;
}

std::size_t SpeculationTracker::observations(const std::string& key) const {
  const auto it = samples_.find(key);
  return it == samples_.end() ? 0 : it->second.size();
}

double FaultInjector::exp_draw_locked(double mean) {
  // Inverse-CDF sample; 1-u in (0,1] keeps log() finite.
  const double u = rng_.next_double();
  return -mean * std::log(std::max(1e-12, 1.0 - u));
}

void FaultInjector::materialize_node_schedule(std::size_t n_nodes) {
  const MutexLock lock(mutex_);
  if (chaos_materialized_ || chaos_.mttf_seconds <= 0.0 || n_nodes == 0) return;
  chaos_materialized_ = true;

  // Sample each node's alternating up/down timeline, then admit failures in
  // global time order only while at least one other node stays live — chaos
  // degrades a run, it must not strand the whole cluster.
  struct Outage {
    std::size_t node;
    double fail_at;
    double recover_at;  ///< infinity = permanent
  };
  std::vector<Outage> outages;
  for (std::size_t node = 0; node < n_nodes; ++node) {
    double t = exp_draw_locked(chaos_.mttf_seconds);
    while (t < chaos_.horizon_seconds) {
      if (chaos_.mttr_seconds <= 0.0) {
        outages.push_back(Outage{node, t, std::numeric_limits<double>::infinity()});
        break;
      }
      const double back = t + exp_draw_locked(chaos_.mttr_seconds);
      outages.push_back(Outage{node, t, back});
      t = back + exp_draw_locked(chaos_.mttf_seconds);
    }
  }
  std::sort(outages.begin(), outages.end(),
            [](const Outage& a, const Outage& b) { return a.fail_at < b.fail_at; });

  std::vector<double> down_until(n_nodes, -1.0);  ///< recovery time while down
  for (const Outage& o : outages) {
    std::size_t live = 0;
    for (std::size_t node = 0; node < n_nodes; ++node)
      if (node != o.node && down_until[node] < o.fail_at) ++live;
    if (live == 0) continue;  // would kill the last live node: skip
    down_until[o.node] = o.recover_at;
    node_failures_.push_back(NodeFailureEvent{.node = o.node, .time = o.fail_at});
    if (std::isfinite(o.recover_at))
      node_recoveries_.push_back(NodeRecoveryEvent{.node = o.node, .time = o.recover_at});
  }
}

bool FaultInjector::should_fail(TaskId task, int attempt) {
  (void)attempt;
  const MutexLock lock(mutex_);
  if (auto it = forced_.find(task); it != forced_.end() && it->second > 0) {
    --it->second;
    return true;
  }
  if (task_failure_prob_ > 0.0) return rng_.next_bool(task_failure_prob_);
  return false;
}

}  // namespace chpo::rt
