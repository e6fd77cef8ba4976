// chpo_run — the runcompss-equivalent launcher.
//
// The paper launches HPO as `runcompss application.py json_file`; this tool
// is that workflow as a standalone binary:
//
//   chpo_run search_space.json --algorithm grid --dataset mnist
//            --nodes 2 --machine mn4 --trial-cpus 1 [--simulate]
//            [--trace out] [--graph out.dot] [--csv out.csv]
//
// Runs the selected algorithm over the JSON search space on a synthetic
// dataset, through the task runtime, and writes the report plus optional
// Paraver/Graphviz/CSV artifacts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "hpo/algorithms.hpp"
#include "hpo/driver.hpp"
#include "hpo/hyperband.hpp"
#include "hpo/importance.hpp"
#include "hpo/report.hpp"
#include "hpo/tpe.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "jsonlite/json.hpp"
#include "runtime/runtime.hpp"
#include "service/study_manager.hpp"
#include "service/study_spec.hpp"
#include "support/args.hpp"
#include "support/strings.hpp"
#include "trace/gantt.hpp"
#include "trace/prv_writer.hpp"

namespace {

using namespace chpo;

cluster::ClusterSpec make_cluster(const std::string& machine, std::size_t nodes,
                                  const std::string& worker, unsigned worker_cores) {
  cluster::ClusterSpec spec;
  if (machine == "mn4")
    spec = cluster::marenostrum4(nodes);
  else if (machine == "minotauro")
    spec = cluster::minotauro(nodes);
  else if (machine == "power9")
    spec = cluster::power9(nodes);
  else if (machine == "local") {
    cluster::NodeSpec node;
    node.name = "local";
    node.cpus = 4;
    spec = cluster::homogeneous(nodes, node);
  } else {
    throw std::invalid_argument("unknown --machine '" + machine +
                                "' (local | mn4 | minotauro | power9)");
  }
  if (worker == "shared") {
    spec.worker_placement = cluster::WorkerPlacement::SharedCores;
    spec.worker_cores = worker_cores;
  } else if (worker == "dedicated") {
    spec.worker_placement = cluster::WorkerPlacement::DedicatedNode;
  } else if (worker != "none") {
    throw std::invalid_argument("unknown --worker '" + worker + "' (none | shared | dedicated)");
  }
  return spec;
}

/// --studies N: run N concurrent studies (cycling --algorithms) on ONE
/// Runtime through service::StudyManager, then print a per-study report
/// and assert isolation (no cross-study completion leaks, no lineage
/// violations). The multi-study CI smoke greps the summary lines.
///
/// Specs are built as JSON and parsed through service::study_spec_from_json
/// — the exact code path a daemon `submit` request takes, so CLI runs and
/// remote submissions cannot drift apart.
int run_multi(const ArgParser& args, const json::Value& space_json, const ml::Dataset& dataset,
              rt::RuntimeOptions runtime_options, const hpo::DriverOptions& driver_options,
              std::size_t studies) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::vector<std::string> algorithms =
      split(args.get("algorithms", args.get("algorithm", "grid")), ',');

  service::ManagerOptions manager_options;
  manager_options.runtime = std::move(runtime_options);
  manager_options.max_active = static_cast<std::size_t>(args.get_int("max-active", 0));
  service::StudyManager manager(std::move(manager_options), dataset);

  service::StudySpecDefaults defaults;
  defaults.driver = driver_options;
  defaults.budget = static_cast<std::size_t>(args.get_int("budget", 16));

  std::vector<rt::StudyId> ids;
  for (std::size_t i = 0; i < studies; ++i) {
    const std::string& algorithm = algorithms[i % algorithms.size()];
    json::Value spec_json;
    spec_json.set("algorithm", json::Value(algorithm));
    spec_json.set("name", json::Value(algorithm + "-" + std::to_string(i)));
    spec_json.set("space", space_json);
    // Distinct trial seeds per study; one shared checkpoint file would
    // cross-replay between studies, so suffix it per study.
    spec_json.set("seed", json::Value(static_cast<std::int64_t>(seed + i * 1000003ULL)));
    if (!driver_options.checkpoint_path.empty())
      spec_json.set("checkpoint", json::Value(driver_options.checkpoint_path + ".study" +
                                              std::to_string(i)));
    ids.push_back(manager.submit(service::study_spec_from_json(spec_json, defaults)));
  }
  manager.run_all();

  std::vector<hpo::StudySummaryRow> rows;
  for (const rt::StudyId id : ids) {
    const service::StudyStatus status = manager.status(id);
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    std::printf("=== study %u: %s (%s, %s) ===\n", id, status.name.c_str(),
                status.algorithm.c_str(), service::study_state_name(status.state));
    std::printf("%s", hpo::trials_table(outcome.trials).c_str());
    std::printf("%s", hpo::outcome_summary(outcome).c_str());
    hpo::StudySummaryRow row;
    row.name = status.name;
    row.algorithm = status.algorithm;
    row.state = service::study_state_name(status.state);
    row.trials = outcome.trials.size();
    row.best_accuracy =
        outcome.best() ? outcome.best()->result.final_val_accuracy : -1.0;
    row.elapsed_seconds = outcome.elapsed_seconds;
    rows.push_back(std::move(row));
  }
  std::printf("\n%s", hpo::multi_study_summary(rows).c_str());
  if (manager.simulated())
    std::printf("virtual now: %s\n", format_duration(manager.now()).c_str());

  // Isolation invariants (the CI multi-study smoke greps this line):
  std::printf("isolation: leaked completions: %zu, lineage violations: %llu\n",
              manager.leaked_completions(),
              static_cast<unsigned long long>(manager.lineage_violations()));
  if (manager.leaked_completions() != 0 || manager.lineage_violations() != 0) {
    std::fprintf(stderr, "chpo_run: cross-study isolation violated\n");
    return 1;
  }
  for (const rt::StudyId id : ids)
    if (manager.state(id) != service::StudyState::Finished) return 1;
  return 0;
}

int run(const ArgParser& args) {
  const std::string space_path = args.positional().front();
  const json::Value space_json = json::parse_file(space_path);
  const hpo::SearchSpace space = hpo::SearchSpace::from_json(space_json);

  // Dataset: generated before the Runtime so it outlives draining tasks.
  const std::string dataset_name = args.get("dataset", "mnist");
  const auto n_train = static_cast<std::size_t>(args.get_int("train-samples", 600));
  const auto n_test = static_cast<std::size_t>(args.get_int("test-samples", 200));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  ml::Dataset dataset;
  ml::WorkloadModel workload;
  if (dataset_name == "mnist") {
    dataset = ml::make_mnist_like(n_train, n_test, seed);
    workload = ml::mnist_paper_model();
  } else if (dataset_name == "cifar") {
    dataset = ml::make_cifar_like(n_train, n_test, seed);
    workload = ml::cifar_paper_model();
  } else {
    throw std::invalid_argument("unknown --dataset '" + dataset_name + "' (mnist | cifar)");
  }

  rt::RuntimeOptions runtime_options;
  runtime_options.cluster =
      make_cluster(args.get("machine", "local"), static_cast<std::size_t>(args.get_int("nodes", 1)),
                   args.get("worker", "none"),
                   static_cast<unsigned>(args.get_int("worker-cores", 24)));
  runtime_options.scheduler = args.get("scheduler", "priority");
  runtime_options.simulate = args.get_bool("simulate");
  runtime_options.tracing = !args.get_bool("no-trace");
  runtime_options.seed = seed;
  // Chaos: probabilistic node churn (MTTF/MTTR) injected into the run.
  // --no-pfs makes task outputs live only on the producing node, so a node
  // death can orphan committed data and exercise lineage recovery.
  const double mttf = args.get_double("mttf", 0.0);
  if (mttf > 0.0) {
    runtime_options.injector = rt::FaultInjector(seed);
    runtime_options.injector.set_node_chaos(rt::NodeChaosPolicy{
        .mttf_seconds = mttf,
        .mttr_seconds = args.get_double("mttr", 0.0),
        .horizon_seconds = args.get_double("chaos-horizon", 3600.0)});
  }
  if (args.get_bool("no-pfs")) runtime_options.cluster.has_parallel_fs = false;
  // Under heavy churn the default 3 attempts give up too early; chaos runs
  // raise this so trials survive repeated node loss.
  runtime_options.fault_policy.max_attempts =
      static_cast<int>(args.get_int("max-attempts", runtime_options.fault_policy.max_attempts));

  hpo::DriverOptions driver_options;
  driver_options.trial_constraint.cpus = static_cast<unsigned>(args.get_int("trial-cpus", 1));
  driver_options.trial_constraint.gpus = static_cast<unsigned>(args.get_int("trial-gpus", 0));
  driver_options.epoch_divisor = static_cast<int>(args.get_int("epoch-divisor", 10));
  driver_options.epoch_cap = static_cast<int>(args.get_int("epoch-cap", 0));
  driver_options.stop_on_accuracy = args.get_double("stop-on-accuracy", -1.0);
  driver_options.visualise = args.get_bool("visualise");
  driver_options.checkpoint_path = args.get("checkpoint");
  driver_options.cv_folds = static_cast<int>(args.get_int("cv-folds", 1));
  driver_options.seed = seed;
  if (args.get_bool("simulate")) driver_options.workload = workload;
  if (args.get_bool("reuse")) {
    driver_options.reuse.enabled = true;
    driver_options.reuse.merge = !args.get_bool("no-merge");
    driver_options.reuse.cache_dir = args.get("cache-dir");
    const auto cache_mb = args.get_int("cache-mb", 256);
    driver_options.reuse.max_memory_bytes = static_cast<std::size_t>(cache_mb) * 1024 * 1024;
    driver_options.reuse.max_disk_bytes = static_cast<std::size_t>(cache_mb) * 4 * 1024 * 1024;
  }

  const auto studies = static_cast<std::size_t>(args.get_int("studies", 1));
  if (studies > 1)
    return run_multi(args, space_json, dataset, std::move(runtime_options), driver_options,
                     studies);

  rt::Runtime runtime(std::move(runtime_options));
  const std::string algorithm_name = args.get("algorithm", "grid");
  const auto budget = static_cast<std::size_t>(args.get_int("budget", 16));
  hpo::HpoDriver driver(runtime.main_study(), dataset, driver_options);
  hpo::HpoOutcome outcome;
  if (algorithm_name == "grid") {
    hpo::GridSearch algorithm(space);
    outcome = driver.run(algorithm);
  } else if (algorithm_name == "random") {
    hpo::RandomSearch algorithm(space, budget, seed);
    outcome = driver.run(algorithm);
  } else if (algorithm_name == "gp") {
    hpo::GpBayesOpt algorithm(space, {.max_evals = budget, .seed = seed});
    outcome = driver.run(algorithm);
  } else if (algorithm_name == "tpe") {
    hpo::TpeSearch algorithm(space, {.max_evals = budget, .seed = seed});
    outcome = driver.run(algorithm);
  } else if (algorithm_name == "halving") {
    hpo::HalvingOptions halving;
    halving.initial_configs = budget;
    halving.driver = driver_options;
    const hpo::HalvingOutcome halved = hpo::successive_halving(runtime.main_study(), dataset, space, halving);
    for (const auto& rung : halved.rungs)
      for (const auto& trial : rung.trials) outcome.trials.push_back(trial);
    outcome.reuse = halved.reuse;
    std::printf("successive halving best: %s -> %.3f\n",
                hpo::config_brief(halved.best_config).c_str(), halved.best_accuracy);
  } else if (algorithm_name == "hyperband") {
    hpo::HyperbandOptions hb;
    hb.driver = driver_options;
    const hpo::HyperbandOutcome result = hpo::hyperband(runtime.main_study(), dataset, space, hb);
    std::printf("hyperband: %zu trials across %zu brackets, best %.3f (%s)\n",
                result.total_trials, result.brackets.size(), result.best_accuracy,
                hpo::config_brief(result.best_config).c_str());
    for (const auto& bracket : result.brackets)
      for (const auto& rung : bracket.rungs)
        for (const auto& trial : rung.trials) outcome.trials.push_back(trial);
    outcome.reuse = result.reuse;
  } else {
    throw std::invalid_argument("unknown --algorithm '" + algorithm_name +
                                "' (grid | random | gp | tpe | halving | hyperband)");
  }

  std::printf("%s\n", hpo::trials_table(outcome.trials).c_str());
  // events() returns a snapshot by value (the sink is mutex-guarded), so
  // take it once: calling it twice in one range expression would pair
  // begin() and end() from two different temporaries.
  const std::vector<trace::Event> trace_events = runtime.trace().events();
  // Attempt statistics only when something eventful happened (failures,
  // retries, stragglers, backoffs): a clean run keeps a clean report.
  const bool eventful =
      std::any_of(trace_events.begin(), trace_events.end(), [](const auto& e) {
        return e.kind == trace::EventKind::TaskFailure || e.kind == trace::EventKind::TaskRetry ||
               e.kind == trace::EventKind::StragglerDetected ||
               e.kind == trace::EventKind::SpeculativeLaunch ||
               e.kind == trace::EventKind::Backoff;
      });
  if (eventful) std::printf("%s\n", hpo::attempt_stats(trace_events).c_str());
  const auto importance = hpo::hyperparameter_importance(outcome.trials);
  if (!importance.empty())
    std::printf("%s\n", hpo::importance_table(importance).c_str());
  if (!outcome.report.empty()) std::printf("%s\n", outcome.report.c_str());
  std::printf("%s", hpo::outcome_summary(outcome).c_str());
  if (outcome.reuse) std::printf("%s", hpo::reuse_summary(*outcome.reuse).c_str());
  const bool chaotic =
      mttf > 0.0 || runtime.lineage_recoveries() > 0 ||
      std::any_of(trace_events.begin(), trace_events.end(), [](const auto& e) {
        return e.kind == trace::EventKind::NodeDown || e.kind == trace::EventKind::NodeUp ||
               e.kind == trace::EventKind::DataLost || e.kind == trace::EventKind::Quarantine;
      });
  if (chaotic)
    std::printf("%s", hpo::fault_summary(trace_events, runtime.lineage_recoveries(),
                                         runtime.unrecoverable_count(), runtime.node_health())
                          .c_str());
  if (runtime.simulated())
    std::printf("virtual makespan: %s\n", format_duration(runtime.analyze().makespan()).c_str());

  if (args.has("graph")) {
    std::ofstream out(args.get("graph"));
    out << runtime.graph_dot();
    std::printf("task graph written to %s\n", args.get("graph").c_str());
  }
  if (args.has("trace")) {
    trace::write_prv_files(args.get("trace"), runtime.trace().events(), runtime.cluster_spec());
    std::printf("Paraver trace written to %s.prv/.row\n", args.get("trace").c_str());
  }
  if (args.has("csv")) {
    std::ofstream out(args.get("csv"));
    out << hpo::history_csv(outcome.trials);
    std::printf("history CSV written to %s\n", args.get("csv").c_str());
  }
  if (args.get_bool("gantt"))
    std::printf("\n%s", trace::render_gantt(runtime.trace().events(), {.width = 96}).c_str());
  return outcome.trials.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("algorithm", "grid | random | gp | tpe | halving | hyperband", "grid")
      .add_option("dataset", "mnist | cifar", "mnist")
      .add_option("machine", "local | mn4 | minotauro | power9", "local")
      .add_option("nodes", "number of cluster nodes", "1")
      .add_option("worker", "COMPSs worker placement: none | shared | dedicated", "none")
      .add_option("worker-cores", "cores reserved per node when --worker shared", "24")
      .add_option("scheduler", "fifo | priority | locality", "priority")
      .add_option("trial-cpus", "cores per experiment (@constraint)", "1")
      .add_option("trial-gpus", "GPUs per experiment (@constraint)", "0")
      .add_option("budget", "evaluations for random/gp/tpe/halving", "16")
      .add_option("studies", "run N concurrent studies on one runtime", "1")
      .add_option("algorithms", "comma list cycled across --studies (default: --algorithm)", "")
      .add_option("max-active", "admit at most N studies at once (0 = all)", "0")
      .add_option("epoch-divisor", "scale config epochs down by this factor", "10")
      .add_option("epoch-cap", "hard cap on epochs per trial (0 = none)", "0")
      .add_option("stop-on-accuracy", "stop the whole HPO at this val accuracy", "")
      .add_option("train-samples", "synthetic training set size", "600")
      .add_option("test-samples", "synthetic test set size", "200")
      .add_option("seed", "global seed", "42")
      .add_option("graph", "write Graphviz DOT of the task graph here", "")
      .add_option("trace", "write Paraver trace basename here", "")
      .add_option("csv", "write per-epoch history CSV here", "")
      .add_option("checkpoint", "append finished trials to this record log and replay them on restart", "")
      .add_option("cv-folds", "k-fold cross-validation per trial (1 = plain split)", "1")
      .add_option("cache-dir", "persistent result-cache directory (with --reuse)", "")
      .add_option("cache-mb", "in-memory cache budget in MiB (disk gets 4x)", "256")
      .add_option("mttf", "chaos: mean seconds between node failures (0 = off)", "")
      .add_option("mttr", "chaos: mean outage seconds before a node rejoins (0 = permanent)", "")
      .add_option("chaos-horizon", "chaos: sample node churn up to this virtual time", "3600")
      .add_option("max-attempts", "retry budget per task (raise under heavy chaos)", "3")
      .add_flag("reuse", "cross-trial reuse: stage trees + content-addressed cache")
      .add_flag("no-merge", "with --reuse: plan one chain per trial (no sharing)")
      .add_flag("no-pfs", "no parallel FS: outputs live on the producing node only")
      .add_flag("simulate", "discrete-event backend (virtual time, cluster scale)")
      .add_flag("visualise", "add visualisation + plot tasks (Figure 2 pipeline)")
      .add_flag("gantt", "print an ASCII Gantt of the trace")
      .add_flag("no-trace", "disable tracing (the paper's overhead flag)")
      .add_flag("help", "show this help");

  if (!args.parse(argc, argv) || args.get_bool("help") || args.positional().empty()) {
    if (!args.error().empty()) std::fprintf(stderr, "error: %s\n", args.error().c_str());
    std::fprintf(stderr, "%s",
                 args.usage("chpo_run <search_space.json>",
                            "Run hyperparameter optimisation through the task runtime "
                            "(the paper's `runcompss application.py json_file`).")
                     .c_str());
    return args.get_bool("help") ? 0 : 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chpo_run: %s\n", e.what());
    return 1;
  }
}
