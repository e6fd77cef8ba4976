// Shared plumbing of the repository benchmark: arguments, the report every
// workload fills, benchmark-side spans, and process counters.
//
// The benchmark measures the libraries only through their public APIs. In a
// traced run (--trace 1) it records spans around its own calls into each
// layer and reads what the program already exposes (Runtime::trace(),
// ManagerStats, ReuseReport, worker_steals(), /proc/self/io, getrusage);
// nothing is added inside the libraries.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "jsonlite/json.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace json = chpo::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check size: a few hundred operations per workload.
  bool tiny = false;
};

/// Seconds on the steady clock since process start of the benchmark.
double now_s();

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Everything one workload run reports. `metrics` holds the end-to-end
/// metrics in an untraced run and the per-layer metrics in a traced one.
struct Report {
  json::Value shape;    ///< backend, slots, studies, N, ... (provenance)
  json::Value samples;  ///< sample counts behind each percentile
  json::Value extra;    ///< informative values that are not metrics
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, bool> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fail_base;  ///< what `attempted` counts: tasks, trials or requests

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record an output check; a false check makes the run incorrect.
  void check(const std::string& name, bool ok);
  bool correct() const;
  json::Value to_json(const Args& args) const;
};

/// Benchmark-side span log: name, start, end and the enclosing span. Spans
/// are kept in memory and summarised per name when the run ends. Disabled
/// (no allocation, no clock reads) in untraced runs.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_ = 0;
  };

  /// A span measured by the caller, for work that overlaps other spans
  /// instead of nesting in them (one request per client in flight).
  void record(const char* name, double start, double end) {
    if (enabled_) spans_.push_back(Span{name, start, end, open_});
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;
  /// {name: {count, total_ms, p50_ms, p99_ms, parent}} over all spans.
  json::Value summary() const;

 private:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = kNone;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  bool enabled_;
  std::vector<Span> spans_;
  std::size_t open_ = kNone;
};

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// Current resident set, bytes (/proc/self/statm).
double current_rss_bytes();
/// Bytes this process passed to write-like calls so far (/proc/self/io wchar).
double bytes_written();

/// Per-layer numbers read off a program trace (TaskRun / TaskSchedule
/// events): summed body time, per-name means, schedule-to-run lag and the
/// concurrency tail. Shared by every workload so each traced run reports
/// the same definitions.
struct TraceFigures {
  std::size_t events = 0;
  std::size_t tasks = 0;          ///< TaskRun spans
  double body_s = 0.0;            ///< summed TaskRun time
  double experiment_mean_ms = 0;  ///< mean TaskRun of "experiment" tasks
  double stage_mean_ms = 0;       ///< mean TaskRun of reuse "stage" tasks
  double schedule_to_run_p99_us = 0;
  double tail_s = 0.0;  ///< time after concurrency last fell below `slots`
};
TraceFigures trace_figures(const std::vector<chpo::trace::Event>& events, unsigned slots);

/// Set-up time of a workload: the median over every timed `setup()` call,
/// after one untimed call. The calls are made in rounds spread over the
/// run (before its first repetition and after later ones), so the figure
/// covers the run's whole stretch of time, not its first half second.
/// `setup()` returns what it built, which is destroyed after the clock
/// stops: tearing down (joining worker threads, freeing the waves) is not
/// set-up.
template <typename Setup>
class SetupTimer {
 public:
  explicit SetupTimer(Setup setup) : setup_(std::move(setup)) { setup_(); }

  void round(int calls) {
    for (int i = 0; i < calls; ++i) {
      const double t0 = now_s();
      const auto built = setup_();
      seconds_.push_back(now_s() - t0);
    }
  }
  double median_s() const { return median(seconds_); }
  std::int64_t calls() const { return static_cast<std::int64_t>(seconds_.size()); }

 private:
  Setup setup_;
  std::vector<double> seconds_;
};

/// Make `path` an empty directory.
void fresh_dir(const std::string& path);

}  // namespace perfbench
