// task_storm: N no-op tasks spread over 4 studies on a 2-node x 2-slot
// cluster, admitted as one submit_batch wave per study and retired with
// barrier(), storm after storm on the thread backend. The traced run also
// runs the storm on the simulator.
//
// Why: the ready queue holds tens of thousands of tasks, so engine
// scheduling, dispatch, stealing and trace recording are the whole cost;
// ml, reuse and daemon do nothing. Program tracing stays on (the default
// RuntimeOptions, as chpo_run and chpo_serve use it).
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/study_session.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace chpo;

constexpr int kStudies = 4;
constexpr std::size_t kNodes = 2;
constexpr unsigned kSlotsPerNode = 2;
constexpr unsigned kSlots = kNodes * kSlotsPerNode;
constexpr int kFullTasks = 20000;
constexpr int kTinyTasks = 400;
/// tasks/s at N/kScaleDivisor over tasks/s at N: 1.0 means linear scaling.
constexpr int kScaleDivisor = 16;
/// Timed set-ups (under a millisecond each) before the first storm and
/// after each storm of an untraced run.
constexpr int kFirstSetups = 40;
constexpr int kSetupsPerStorm = 15;

/// How the seed shapes the storm: each study's share of N and the order in
/// which studies are admitted and barriered. N itself is fixed, so runs of
/// different seeds stay comparable.
struct StormShape {
  std::vector<int> shares;  ///< tasks per study, summing to N
  std::vector<int> order;   ///< study admission order
  int total() const {
    int n = 0;
    for (const int s : shares) n += s;
    return n;
  }
};

StormShape make_shape(std::uint64_t seed, int n) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<double> weights;
  double sum = 0.0;
  for (int s = 0; s < kStudies; ++s) {
    // A narrow range: the engine's cost grows with each study's ready
    // queue, so wide swings in the shares would make seeds incomparable.
    weights.push_back(rng.next_uniform(1.0, 1.5));
    sum += weights.back();
  }
  StormShape shape;
  int assigned = 0;
  for (int s = 0; s < kStudies; ++s) {
    const int share = s + 1 < kStudies ? static_cast<int>(n * weights[s] / sum) : n - assigned;
    shape.shares.push_back(share);
    assigned += share;
  }
  for (int s = 0; s < kStudies; ++s) shape.order.push_back(s);
  rng.shuffle(shape.order);
  return shape;
}

StormShape scaled(const StormShape& shape, int divisor) {
  StormShape small = shape;
  for (int& share : small.shares) share = std::max(1, share / divisor);
  return small;
}

rt::RuntimeOptions storm_options(bool simulate, bool tracing) {
  rt::RuntimeOptions options;
  cluster::NodeSpec node;
  node.name = "local";
  node.cpus = kSlotsPerNode;
  options.cluster = cluster::homogeneous(kNodes, node);
  options.simulate = simulate;
  options.tracing = tracing;
  return options;
}

rt::TaskDef noop_task() {
  rt::TaskDef def;
  def.name = "noop";
  def.body = [](rt::TaskContext&) { return std::any(1); };
  // 1 us of virtual cost: the simulated storm measures engine overhead,
  // not simulated compute.
  def.cost = [](const rt::Placement&, const cluster::NodeSpec&) { return 1e-6; };
  return def;
}

using Waves = std::vector<std::vector<rt::Runtime::BatchItem>>;

/// One submit_batch wave per study: the caller's input to a storm.
Waves make_waves(const StormShape& shape) {
  const rt::TaskDef def = noop_task();
  Waves waves(kStudies);
  for (int s = 0; s < kStudies; ++s) {
    waves[s].reserve(static_cast<std::size_t>(shape.shares[s]));
    for (int i = 0; i < shape.shares[s]; ++i)
      waves[s].push_back({.def = def, .params = {}, .on_complete = {}});
  }
  return waves;
}

struct StormRun {
  int tasks = 0;
  double seconds = 0.0;  ///< first submit -> last retirement
  std::size_t done = 0;  ///< futures whose producer ended Done
  std::uint64_t lineage_violations = 0;
  std::uint64_t steals = 0;
  double rss_growth_bytes = 0.0;
  std::size_t trace_events = 0;
  std::vector<double> latency_ms;  ///< per task: TaskSubmit -> TaskRun end
  TraceFigures figures;
};

/// One storm on a fresh Runtime. `read_trace` copies the program trace
/// after the clock stops, for per-task latencies and trace figures.
StormRun run_storm(const StormShape& shape, bool simulate, bool tracing, Spans& spans,
                   bool read_trace) {
  const double rss_before = current_rss_bytes();
  rt::Runtime runtime(storm_options(simulate, tracing));
  std::vector<rt::StudySession> sessions;
  sessions.push_back(runtime.main_study());
  for (int s = 1; s < kStudies; ++s)
    sessions.push_back(runtime.open_study({.name = "storm-" + std::to_string(s)}));

  Waves waves = make_waves(shape);  // set-up, not part of the storm's time

  StormRun run;
  run.tasks = shape.total();
  std::vector<std::vector<rt::Future>> futures(kStudies);
  const double start = now_s();
  for (const int s : shape.order) {
    Spans::Scope span(spans, simulate ? "runtime.sim_submit_batch" : "runtime.submit_batch");
    futures[s] = sessions[s].submit_batch(std::move(waves[s]));
  }
  for (const int s : shape.order) {
    Spans::Scope span(spans, simulate ? "runtime.sim_barrier" : "runtime.barrier");
    sessions[s].barrier();
  }
  run.seconds = now_s() - start;

  for (const auto& study_futures : futures)
    for (const rt::Future& f : study_futures)
      if (runtime.graph().task(f.producer).state == rt::TaskState::Done) ++run.done;
  run.lineage_violations = runtime.lineage_violations();
  run.steals = runtime.worker_steals();
  run.rss_growth_bytes = current_rss_bytes() - rss_before;
  run.trace_events = runtime.trace().size();
  if (read_trace) {
    const std::vector<trace::Event> events = runtime.trace().events();
    std::vector<double> submitted(runtime.task_count() + 1, -1.0);
    for (const trace::Event& e : events) {
      if (e.kind == trace::EventKind::TaskSubmit && e.task_id < submitted.size())
        submitted[e.task_id] = e.t_start;
      else if (e.kind == trace::EventKind::TaskRun && e.task_id < submitted.size() &&
               submitted[e.task_id] >= 0.0)
        run.latency_ms.push_back((e.t_end - submitted[e.task_id]) * 1e3);
    }
    run.figures = trace_figures(events, kSlots);
  }
  return run;
}

double rate(const StormRun& run) { return run.tasks / run.seconds; }

/// Median tasks/s of `reps` storms of `shape` (short storms are noisy).
double median_rate(const StormShape& shape, bool simulate, int reps, Spans& no_spans,
                   Report& report) {
  std::vector<double> rates;
  for (int i = 0; i < reps; ++i) {
    const StormRun run = run_storm(shape, simulate, true, no_spans, false);
    report.attempted += static_cast<std::uint64_t>(run.tasks);
    report.failed += static_cast<std::uint64_t>(run.tasks) - run.done;
    rates.push_back(rate(run));
  }
  return median(rates);
}

}  // namespace

void run_task_storm(const Args& args, Report& report) {
  const StormShape shape = make_shape(args.seed, args.tiny ? kTinyTasks : kFullTasks);
  const int n = shape.total();
  report.fail_base = "tasks";
  report.shape.set("backends", json::Value(args.trace ? "thread,sim" : "thread"));
  report.shape.set("nodes", json::Value(static_cast<std::int64_t>(kNodes)));
  report.shape.set("slots", json::Value(static_cast<std::int64_t>(kSlots)));
  report.shape.set("studies", json::Value(kStudies));
  report.shape.set("tasks", json::Value(n));
  json::Array shares;
  json::Array order;
  for (const int s : shape.shares) shares.push_back(json::Value(s));
  for (const int s : shape.order) order.push_back(json::Value(s));
  report.shape.set("study_shares", json::Value(std::move(shares)));
  report.shape.set("study_order", json::Value(std::move(order)));

  // Set-up: what a storm needs before its first submit — the Runtime with
  // its studies open, and the N-task waves.
  SetupTimer setup([&] {
    auto runtime = std::make_unique<rt::Runtime>(storm_options(false, true));
    for (int s = 1; s < kStudies; ++s) runtime->open_study({.name = "storm-" + std::to_string(s)});
    return std::make_pair(std::move(runtime), make_waves(shape));
  });
  setup.round(kFirstSetups);

  Spans no_spans(false);
  const auto account = [&](const StormRun& run, const char* backend) {
    report.attempted += static_cast<std::uint64_t>(run.tasks);
    report.failed += static_cast<std::uint64_t>(run.tasks) - run.done;
    report.check(std::string(backend) + "_every_future_done", run.done == static_cast<std::size_t>(n));
    report.check(std::string(backend) + "_lineage_violations_zero", run.lineage_violations == 0);
  };
  // Warm-up: allocator and page-fault costs of a first storm stay out of
  // the measured ones.
  run_storm(scaled(shape, kScaleDivisor), false, true, no_spans, false);

  if (!args.trace) {
    // Only the thread backend is timed here. A simulated storm of the same
    // size takes three times longer and its time swings by a third between
    // storms of one process, too much for a bounded metric; the traced run
    // reports it as runtime.sim_tasks_per_s. A thread storm's time also
    // swings: most storms of a run take about the same time and a few take
    // up to 1.7 times as long. So every figure is a median over the
    // storms of the run — the rate of the median storm and the median of
    // the storms' own p50 and p99 latencies — which a few slow storms
    // cannot move. (Pooling every task's latency would hand the p99 to the
    // slowest storms alone.)
    std::vector<double> storm_s;
    std::vector<double> p50;
    std::vector<double> p99;
    const double deadline = now_s() + args.seconds;
    do {
      const StormRun run = run_storm(shape, false, true, no_spans, true);
      account(run, "thread");
      report.check("latency_per_task", run.latency_ms.size() == static_cast<std::size_t>(n));
      storm_s.push_back(run.seconds);
      p50.push_back(percentile(run.latency_ms, 50));
      p99.push_back(percentile(run.latency_ms, 99));
      setup.round(kSetupsPerStorm);
    } while (now_s() < deadline);
    // Every operation of this workload is a task: ops_per_s == tasks_per_s.
    const double rate_per_s = static_cast<double>(n) / median(storm_s);
    report.metric("ops_per_s", rate_per_s, "1/s");
    report.metric("tasks_per_s", rate_per_s, "1/s");
    report.metric("op_p50_ms", median(p50), "ms");
    report.metric("op_p99_ms", median(p99), "ms");
    report.metric("setup_s", setup.median_s(), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.samples.set("thread_storms", json::Value(static_cast<std::int64_t>(storm_s.size())));
    report.samples.set("op_latency_per_storm", json::Value(n));
    report.samples.set("setups", json::Value(setup.calls()));
    json::Array storms;
    for (const double t : storm_s) storms.push_back(json::Value(t));
    report.extra.set("thread_storm_s", json::Value(std::move(storms)));
    return;
  }

  run_storm(scaled(shape, kScaleDivisor), true, true, no_spans, false);  // sim warm-up
  Spans spans(true);
  const StormRun plain = run_storm(shape, false, true, no_spans, false);
  const StormRun traced = run_storm(shape, false, true, spans, true);
  const StormRun untraced_program = run_storm(shape, false, false, no_spans, false);
  const StormRun sim = run_storm(shape, true, true, spans, false);
  for (const StormRun* run : {&plain, &traced, &untraced_program}) account(*run, "thread");
  account(sim, "sim");
  const int small_reps = 5;
  const double small_rate = median_rate(scaled(shape, kScaleDivisor), false, small_reps, no_spans, report);
  const double small_sim_rate = median_rate(scaled(shape, kScaleDivisor), true, small_reps, no_spans, report);

  report.metric("runtime.submit_batch_ms", spans.total_ms("runtime.submit_batch"), "ms");
  report.metric("runtime.barrier_ms", spans.total_ms("runtime.barrier"), "ms");
  report.metric("runtime.sim_barrier_ms", spans.total_ms("runtime.sim_barrier"), "ms");
  report.metric("runtime.sim_tasks_per_s", rate(sim), "1/s");
  report.metric("runtime.schedule_to_run_p99_us", traced.figures.schedule_to_run_p99_us, "us");
  report.metric("runtime.worker_steals", static_cast<double>(traced.steals), "count");
  report.metric("runtime.scaling_ratio", small_rate / rate(traced), "ratio");
  report.metric("runtime.sim_scaling_ratio", small_sim_rate / rate(sim), "ratio");
  report.metric("runtime.rss_bytes_per_task", traced.rss_growth_bytes / n, "B");
  report.metric("trace.events_per_task", static_cast<double>(traced.trace_events) / n, "events/task");
  report.metric("trace.cost_pct", 100.0 * (plain.seconds / untraced_program.seconds - 1.0), "%");
  report.metric("ml.body_s", traced.figures.body_s, "s");
  report.metric("hpo.slot_util", traced.figures.body_s / (traced.seconds * kSlots), "ratio");
  report.metric("hpo.tail_s", traced.figures.tail_s, "s");
  report.metric("bench.span_overhead_pct", 100.0 * (traced.seconds / plain.seconds - 1.0), "%");
  report.extra.set("thread_tasks_per_s", json::Value(rate(traced)));
  report.extra.set("small_tasks", json::Value(scaled(shape, kScaleDivisor).total()));
  report.extra.set("small_thread_tasks_per_s", json::Value(small_rate));
  report.extra.set("small_sim_tasks_per_s", json::Value(small_sim_rate));
  report.extra.set("spans", spans.summary());
  report.samples.set("small_storm_reps", json::Value(small_reps));
}

}  // namespace perfbench
