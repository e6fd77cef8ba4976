#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "trace/analysis.hpp"

namespace perfbench {

namespace {
const auto kStart = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kStart).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Report::check(const std::string& name, bool ok) {
  auto [it, inserted] = checks.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
  if (!ok) std::fprintf(stderr, "perfbench: output check failed: %s\n", name.c_str());
}

bool Report::correct() const {
  return !checks.empty() &&
         std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
}

json::Value Report::to_json(const Args& args) const {
  json::Value out;
  out.set("workload", json::Value(args.workload));
  out.set("seed", json::Value(static_cast<std::int64_t>(args.seed)));
  out.set("trace", json::Value(args.trace));
  out.set("size", json::Value(args.tiny ? "tiny" : "full"));
  out.set("shape", shape);
  json::Value check_json;
  for (const auto& [name, ok] : checks) check_json.set(name, json::Value(ok));
  out.set("checks", check_json);
  out.set("correct", json::Value(correct()));
  out.set("attempted", json::Value(static_cast<std::int64_t>(attempted)));
  out.set("failed", json::Value(static_cast<std::int64_t>(failed)));
  out.set("fail_base", json::Value(fail_base));
  out.set("fail_ratio",
          json::Value(attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                                : 0.0));
  out.set("samples", samples);
  out.set("extra", extra);
  json::Value metric_json;
  for (const auto& [name, value_unit] : metrics) {
    json::Value m;
    m.set("value", json::Value(value_unit.first));
    m.set("unit", json::Value(value_unit.second));
    metric_json.set(name, m);
  }
  out.set("metrics", metric_json);
  return out;
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (!spans_.enabled_) return;
  index_ = spans_.spans_.size();
  spans_.spans_.push_back(Span{name, now_s(), 0.0, spans_.open_});
  spans_.open_ = index_;
}

Spans::Scope::~Scope() {
  if (!spans_.enabled_) return;
  Span& span = spans_.spans_[index_];
  span.end = now_s();
  spans_.open_ = span.parent;
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back((s.end - s.start) * 1e3);
  return out;
}

double Spans::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_ms(name)) total += d;
  return total;
}

json::Value Spans::summary() const {
  std::map<std::string, std::string> parent_of;
  for (const Span& s : spans_)
    parent_of.emplace(s.name, s.parent == kNone ? "" : spans_[s.parent].name);
  json::Value out;
  for (const auto& [name, parent] : parent_of) {
    const std::vector<double> d = durations_ms(name);
    double total = 0.0;
    for (const double x : d) total += x;
    json::Value row;
    row.set("count", json::Value(static_cast<std::int64_t>(d.size())));
    row.set("total_ms", json::Value(total));
    row.set("p50_ms", json::Value(percentile(d, 50)));
    row.set("p99_ms", json::Value(percentile(d, 99)));
    row.set("parent", json::Value(parent));
    out.set(name, row);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

double bytes_written() {
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (io >> key >> value)
    if (key == "wchar:") return value;
  return 0.0;
}

TraceFigures trace_figures(const std::vector<chpo::trace::Event>& events, unsigned slots) {
  using chpo::trace::EventKind;
  TraceFigures f;
  f.events = events.size();
  std::map<std::uint64_t, double> scheduled;  // task -> latest TaskSchedule time
  std::vector<double> lag_us;
  double experiment_s = 0.0;
  double stage_s = 0.0;
  std::size_t experiments = 0;
  std::size_t stages = 0;
  for (const chpo::trace::Event& e : events) {
    if (e.kind == EventKind::TaskSchedule) {
      scheduled[e.task_id] = e.t_start;
    } else if (e.kind == EventKind::TaskRun) {
      ++f.tasks;
      const double d = e.t_end - e.t_start;
      f.body_s += d;
      if (e.task_name == "experiment") {
        experiment_s += d;
        ++experiments;
      } else if (e.task_name == "stage") {
        stage_s += d;
        ++stages;
      }
      const auto it = scheduled.find(e.task_id);
      if (it != scheduled.end()) lag_us.push_back((e.t_start - it->second) * 1e6);
    }
  }
  f.experiment_mean_ms = experiments ? experiment_s / static_cast<double>(experiments) * 1e3 : 0;
  f.stage_mean_ms = stages ? stage_s / static_cast<double>(stages) * 1e3 : 0;
  f.schedule_to_run_p99_us = percentile(lag_us, 99);

  const chpo::trace::Analysis analysis(events);
  const std::vector<chpo::trace::ConcurrencySample> profile = analysis.concurrency_profile();
  if (!profile.empty()) {
    const double end = analysis.first_start() + analysis.makespan();
    double tail_start = analysis.first_start();
    for (std::size_t i = 1; i < profile.size(); ++i)
      if (profile[i].running < slots && profile[i - 1].running >= slots)
        tail_start = profile[i].time;
    f.tail_s = std::max(0.0, end - tail_start);
  }
  return f;
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
