// perfbench — one workload run of the repository benchmark.
//
//   perfbench --workload task_storm|hpo_study|daemon_mixed --seed N
//             --seconds S --trace 0|1 [--tiny]
//
// Prints one JSON line: the workload's shape, output checks, attempted and
// failed operations, sample counts and metrics. perfbench/run.py builds
// this binary, runs it in a fresh directory and adds provenance.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/log.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload task_storm|hpo_study|daemon_mixed --seed N "
               "--seconds S --trace 0|1 [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0.0) return usage();
  chpo::set_log_level(chpo::LogLevel::Warn);

  perfbench::Report report;
  try {
    if (args.workload == "task_storm")
      perfbench::run_task_storm(args, report);
    else if (args.workload == "hpo_study")
      perfbench::run_hpo_study(args, report);
    else if (args.workload == "daemon_mixed")
      perfbench::run_daemon_mixed(args, report);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", perfbench::json::serialize(report.to_json(args)).c_str());
  return 0;
}
