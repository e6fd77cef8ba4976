// The three workloads. Each fills `report` with its output checks and, in
// an untraced run, the end-to-end metrics (ops_per_s, tasks_per_s,
// op_p50_ms, op_p99_ms, setup_s, peak_rss_mb) or, in a traced run, the
// per-layer metrics of the layers it calls; run.py reports the declared
// per-layer metrics a workload does not measure as 0. Working files go under
// the current directory, which run.py makes fresh for every run.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_task_storm(const Args& args, Report& report);
void run_hpo_study(const Args& args, Report& report);
void run_daemon_mixed(const Args& args, Report& report);

}  // namespace perfbench
