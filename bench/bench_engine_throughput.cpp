// Engine throughput baseline: tasks/sec through the full submit ->
// schedule -> run -> retire funnel, on both backends, with one study vs N
// concurrent studies multiplexing the engine, swept over the storm size.
// The multi-study rows measure what the study layer costs: per-task study
// tagging, the fair-share interleave in Engine::schedule, and per-study
// completion routing. The size sweep exposes any scheduling cost that
// grows with the ready-queue length: with a round that costs what it
// places, tasks/s stays flat from 4k to 64k tasks. Submission goes through
// StudySession::submit_batch — one admission round-trip per study wave —
// which is the hot path this benchmark gates.
//
// Results go to stdout as a table and (optionally) to a JSON file so the
// perf trajectory has a committed baseline: run with
//   bench_engine_throughput --json BENCH_engine.json
//   bench_engine_throughput --tasks 4000,1000000   # a one-off 1M sweep
// Every row carries provenance (commit, date, host_threads) so baseline
// history stays attributable; tools/bench_gate.py compares a fresh run
// against the latest committed row per configuration, and the largest
// size against the smallest of the same run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/study_session.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace chpo;

struct Row {
  std::string backend;
  int studies = 1;
  int tasks = 0;
  double seconds = 0.0;
  std::string commit;
  std::string date;
  unsigned host_threads = 0;
  double tasks_per_second() const { return seconds > 0 ? tasks / seconds : 0.0; }
};

rt::TaskDef tiny_task() {
  rt::TaskDef def;
  def.name = "tiny";
  def.body = [](rt::TaskContext&) { return std::any(1); };
  // Near-zero virtual cost so the simulated run measures engine overhead,
  // not simulated compute.
  def.cost = [](const rt::Placement&, const cluster::NodeSpec&) { return 1e-6; };
  return def;
}

/// Short commit hash of the working tree, suffixed "-dirty" when tracked
/// files differ from it (the rows then measure no commit), or "unknown"
/// outside a checkout.
std::string current_commit() {
  std::FILE* pipe = ::popen("git describe --always --dirty --exclude '*' 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buf[64] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe)) out = buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

std::string current_date() {
  const std::time_t now = std::time(nullptr);
  char buf[16] = {0};
  std::tm tm{};
  if (localtime_r(&now, &tm) == nullptr || std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm) == 0)
    return "unknown";
  return buf;
}

/// Wall-clock for `n_tasks` no-op tasks spread evenly over `n_studies`
/// sessions (one submit_batch wave per session), submit to last retirement.
Row run_storm(bool simulate, int n_studies, int n_tasks) {
  rt::RuntimeOptions options;
  cluster::NodeSpec node;
  node.name = "local";
  node.cpus = 4;
  options.cluster = cluster::homogeneous(2, node);
  options.simulate = simulate;
  rt::Runtime runtime(std::move(options));

  std::vector<rt::StudySession> sessions;
  sessions.push_back(runtime.main_study());
  for (int s = 1; s < n_studies; ++s)
    sessions.push_back(runtime.open_study({.name = "storm-" + std::to_string(s)}));

  Stopwatch clock;
  const rt::TaskDef def = tiny_task();
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const int share = n_tasks / n_studies + (static_cast<int>(s) < n_tasks % n_studies ? 1 : 0);
    std::vector<rt::Runtime::BatchItem> wave;
    wave.reserve(static_cast<std::size_t>(share));
    for (int i = 0; i < share; ++i) wave.push_back({.def = def, .params = {}, .on_complete = {}});
    sessions[s].submit_batch(std::move(wave));
  }
  for (rt::StudySession& session : sessions) session.barrier();
  return Row{.backend = simulate ? "sim" : "thread",
             .studies = n_studies,
             .tasks = n_tasks,
             .seconds = clock.elapsed_seconds()};
}

/// "4000,64000" -> {4000, 64000}; empty on a malformed or non-positive entry.
std::vector<int> parse_sizes(const char* list) {
  std::vector<int> sizes;
  const char* cursor = list;
  while (*cursor != '\0') {
    char* end = nullptr;
    const long value = std::strtol(cursor, &end, 10);
    if (end == cursor || value <= 0 || value > 100000000 || (*end != ',' && *end != '\0'))
      return {};
    sizes.push_back(static_cast<int>(value));
    cursor = *end == ',' ? end + 1 : end;
  }
  return sizes;
}

/// Storms below this many tasks are timed in groups that add up to it, so
/// every sample of a sweep lasts about as long as the largest default
/// size's and host noise weighs on each size alike.
constexpr int kSampleTasks = 64000;

/// One timing sample of an `n_tasks` storm: mean seconds per storm over a
/// group of back-to-back storms totalling kSampleTasks (one storm above).
Row sample(bool simulate, int n_studies, int n_tasks) {
  const int storms = std::max(1, kSampleTasks / n_tasks);
  Row row = run_storm(simulate, n_studies, n_tasks);
  for (int i = 1; i < storms; ++i) row.seconds += run_storm(simulate, n_studies, n_tasks).seconds;
  row.seconds /= storms;
  return row;
}

/// Best of `reps` samples per size, the sizes sampled in turn within each
/// repetition: a noisy stretch of the host then slows every size of the
/// sweep, not just the one measured during it.
std::vector<Row> best_of(int reps, bool simulate, int n_studies, const std::vector<int>& sizes) {
  std::vector<Row> best;
  for (int rep = 0; rep < reps; ++rep)
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (rep > 0 && sizes[i] > kSampleTasks) continue;  // one sample already lasts seconds
      const Row row = sample(simulate, n_studies, sizes[i]);
      if (rep == 0)
        best.push_back(row);
      else if (row.seconds < best[i].seconds)
        best[i] = row;
    }
  return best;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"bench_engine_throughput\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"backend\": \"%s\", \"studies\": %d, \"tasks\": %d, "
                 "\"seconds\": %.6f, \"tasks_per_second\": %.1f, "
                 "\"commit\": \"%s\", \"date\": \"%s\", \"host_threads\": %u}%s\n",
                 r.backend.c_str(), r.studies, r.tasks, r.seconds, r.tasks_per_second(),
                 r.commit.c_str(), r.date.c_str(), r.host_threads,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<int> sizes = {4000, 64000};
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--json") == 0 && has_value) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tasks") == 0 && has_value) {
      sizes = parse_sizes(argv[++i]);
      if (sizes.empty()) {
        std::fprintf(stderr, "--tasks wants a comma-separated list of positive task counts\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--tasks N[,N...]]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("bench_engine_throughput",
                      "engine baseline (tasks/sec by size, 1 vs N studies, both backends)");

  // Best-of-5: the gate compares against the latest committed row with a
  // 25% budget and each size against the smallest, so the reported number
  // must sit at the quiet-machine end of the run-to-run distribution, not
  // in its noise band. Sizes above 64k run once: a single run there
  // already lasts seconds.
  constexpr int kReps = 5;
  run_storm(false, 1, 400);  // warm-up: thread pool + allocators
  run_storm(true, 1, 400);
  // One untimed storm at the largest size: the first storm that large in a
  // process otherwise pays for faulting in its memory, and a 1M-task row
  // read up to 2-3x slower in that position than in any later one.
  run_storm(false, 1, *std::max_element(sizes.begin(), sizes.end()));

  const std::string commit = current_commit();
  const std::string date = current_date();
  const unsigned host_threads = std::thread::hardware_concurrency();

  std::vector<Row> rows;
  for (const bool simulate : {false, true})
    for (const int studies : {1, 4})
      for (Row& row : best_of(kReps, simulate, studies, sizes)) {
        row.commit = commit;
        row.date = date;
        row.host_threads = host_threads;
        rows.push_back(std::move(row));
      }

  std::printf("no-op tasks, best of %d (one run above 64k; smaller storms timed in groups of "
              "%d tasks):\n",
              kReps, kSampleTasks);
  std::printf("  %-8s %8s %9s %10s %14s\n", "backend", "studies", "tasks", "seconds", "tasks/sec");
  for (const Row& r : rows)
    std::printf("  %-8s %8d %9d %10.3f %14.1f\n", r.backend.c_str(), r.studies, r.tasks,
                r.seconds, r.tasks_per_second());
  const Row& t1 = rows[0];
  const Row& t4 = rows[sizes.size()];
  std::printf("  multi-study overhead (thread, %d tasks, 4 vs 1): %+.1f%%\n", t1.tasks,
              100.0 * (t4.seconds / t1.seconds - 1.0));

  if (!json_path.empty()) write_json(json_path, rows);
  return 0;
}
