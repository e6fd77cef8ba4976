#include "runtime/sim_backend.hpp"

#include <algorithm>
#include <string>

namespace chpo::rt {

namespace {

struct EvLater {
  template <typename Ev>
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

SimBackend::SimBackend(Engine& engine, SimOptions options)
    : Backend(engine), options_(options) {
  // Virtual-clock preemption happens at dispatch (the attempt's end event
  // is moved to its deadline), so the engine must not also arm reap
  // deadlines for these attempts. Node deaths/rejoins need no loading
  // here: the engine owns the membership timeline and surfaces it through
  // next_wakeup()/on_wakeup().
  // Construction happens on the coordinator thread (inside the Runtime
  // constructor), so the engine-context capability is ours to assert.
  EngineContextScope ctx(g_engine_ctx);
  engine_.set_backend_preempts_timeouts(true);
}

double SimBackend::task_duration(const TaskRecord& record, const Placement& placement) const {
  const TaskCost& cost = record.implementation_cost(record.active_variant);
  if (!cost) return options_.default_task_seconds;
  const auto& spec = engine_.resources().spec();
  const cluster::NodeSpec& node = spec.nodes.at(static_cast<std::size_t>(placement.node));
  const double seconds = cost(placement, node);
  return seconds > 0.0 ? seconds : 0.0;
}

void SimBackend::launch(const Dispatch& d) {
  const TaskRecord& record = engine_.graph().task(d.task);
  const double staging = engine_.stage_inputs(d.task, d.placement.node, now_);
  const double duration = task_duration(record, d.placement);

  Ev ev;
  ev.seq = seq_++;
  ev.kind = EvKind::TaskEnd;
  ev.attempt_id = d.attempt_id;
  ev.start = now_ + staging;
  ev.time = ev.start + duration;
  if (options_.execute_bodies) {
    ev.result = engine_.execute_body(d.task, d.placement, /*simulated=*/true);
  } else {
    // Bodies skipped, but injected faults must still fire (fault studies
    // run with execute_bodies=false).
    ev.result = engine_.injection_result(d.task);
  }
  // @task(time_out) or the adaptive timeout: the runtime kills the attempt
  // at its deadline (virtual-clock preemption).
  const double timeout = engine_.attempt_timeout(d.task);
  if (timeout > 0.0 && duration > timeout) {
    ev.time = ev.start + timeout;
    ev.result = AttemptResult{};
    ev.result.error = "timeout after " + std::to_string(timeout) + "s";
  }
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end(), EvLater{});
}

void SimBackend::arm_wakeup() {
  const std::optional<double> wake = engine_.next_wakeup(now_);
  if (!wake) return;
  // Already armed at or before the requested time: the queued event will
  // trigger on_wakeup, which re-arms for anything later.
  if (armed_wakeup_ >= 0.0 && armed_wakeup_ <= *wake) return;
  Ev ev;
  ev.time = *wake;
  ev.seq = seq_++;
  ev.kind = EvKind::EngineWakeup;
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end(), EvLater{});
  armed_wakeup_ = *wake;
}

bool SimBackend::in_flight() {
  arm_wakeup();
  return !events_.empty();
}

void SimBackend::collect(double deadline, std::optional<double>, std::vector<Finished>& out) {
  if (deadline >= 0.0 && events_.front().time > deadline) {
    // The next event lies beyond the horizon: advance the clock to the
    // deadline and hand control back with attempts still in flight.
    now_ = std::max(now_, deadline);
    return;
  }
  std::pop_heap(events_.begin(), events_.end(), EvLater{});
  Ev ev = std::move(events_.back());
  events_.pop_back();
  now_ = std::max(now_, ev.time);
  if (ev.kind == EvKind::EngineWakeup) {
    // The drive loop runs on_wakeup with the clock at the armed time
    // (applying node deaths/rejoins at their exact virtual instant), then
    // re-arms for whatever duty is next.
    armed_wakeup_ = -1.0;
    return;
  }
  out.push_back({ev.attempt_id, std::move(ev.result), ev.start, now_});
}

}  // namespace chpo::rt
