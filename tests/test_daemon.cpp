// Daemon protocol tests: the socket-free Server end-to-end (submit / run /
// accounting reconciliation), protocol edge cases (malformed requests,
// unknown study ids, double-kill, disconnect mid-watch, shutdown with
// queued studies) — each of which must leave the StudyManager consistent
// (zero leaked completions) — plus restart-resume from the shutdown
// manifest and one raw-socket round trip through SocketDaemon.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "daemon/server.hpp"
#include "daemon/socket_daemon.hpp"
#include "jsonlite/wire.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"

namespace chpo {
namespace {

namespace fs = std::filesystem;

daemon::ServerOptions sim_options() {
  daemon::ServerOptions options;
  cluster::NodeSpec node;
  node.name = "n";
  node.cpus = 4;
  options.manager.runtime.cluster = cluster::homogeneous(2, node);
  options.manager.runtime.simulate = true;
  options.defaults.driver.workload = ml::mnist_paper_model();
  options.defaults.budget = 4;
  return options;
}

json::Value tiny_space() {
  return json::parse(R"({
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [2, 3],
    "batch_size": [16, 32]
  })");
}

json::Value submit_request(const std::string& tenant, const std::string& algorithm,
                           int budget, std::int64_t id = 1) {
  json::Value spec;
  spec.set("space", tiny_space());
  spec.set("algorithm", json::Value(algorithm));
  if (budget > 0) spec.set("budget", json::Value(static_cast<std::int64_t>(budget)));
  json::Value request;
  request.set("op", json::Value("submit"));
  request.set("id", json::Value(id));
  request.set("tenant", json::Value(tenant));
  request.set("spec", spec);
  return request;
}

json::Value op_request(const std::string& op, std::optional<std::int64_t> study = {}) {
  json::Value request;
  request.set("op", json::Value(op));
  request.set("id", json::Value(std::int64_t{1}));
  if (study) request.set("study", json::Value(*study));
  return request;
}

/// The reply (non-event message) in a handle() result, which must be unique.
json::Value reply_of(const std::vector<daemon::Outbound>& out) {
  const json::Value* found = nullptr;
  for (const daemon::Outbound& message : out)
    if (message.message.find("event") == nullptr) {
      EXPECT_EQ(found, nullptr) << "two replies in one batch";
      found = &message.message;
    }
  EXPECT_NE(found, nullptr) << "no reply in batch";
  return found != nullptr ? *found : json::Value();
}

bool reply_ok(const json::Value& reply) {
  const json::Value* ok = reply.find("ok");
  return ok != nullptr && ok->as_bool();
}

/// Drive the server until it goes idle (or drained); collect every event.
std::vector<daemon::Outbound> run_to_idle(daemon::Server& server) {
  std::vector<daemon::Outbound> events;
  while (server.busy()) {
    for (daemon::Outbound& message : server.step(1e6)) events.push_back(std::move(message));
  }
  return events;
}

// ---------------------------------------------------------------------------
// Submit / run / accounting
// ---------------------------------------------------------------------------

TEST(DaemonServer, SubmitRunsToCompletionAndAccountingMatchesPerStudyReports) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 1);
  daemon::Server server(sim_options(), dataset);

  const json::Value alice = reply_of(server.handle(1, submit_request("alice", "grid", 0)));
  const json::Value bob = reply_of(server.handle(2, submit_request("bob", "random", 3)));
  ASSERT_TRUE(reply_ok(alice));
  ASSERT_TRUE(reply_ok(bob));
  EXPECT_EQ(alice.at("name").as_string(), "alice-grid-0");
  EXPECT_NE(alice.at("study").as_int(), bob.at("study").as_int());

  run_to_idle(server);

  const json::Value list = reply_of(server.handle(1, op_request("list")));
  ASSERT_TRUE(reply_ok(list));
  const json::Array& rows = list.at("studies").as_array();
  ASSERT_EQ(rows.size(), 2u);
  std::size_t total_trials = 0;
  for (const json::Value& row : rows) {
    EXPECT_EQ(row.at("state").as_string(), "finished");
    EXPECT_GT(row.at("trials_done").as_int(), 0);
    EXPECT_TRUE(row.contains("best_accuracy"));
    total_trials += static_cast<std::size_t>(row.at("trials_done").as_int());
  }

  // Per-tenant totals must reconcile exactly against the per-study reports.
  const json::Value accounting = reply_of(server.handle(1, op_request("accounting")));
  ASSERT_TRUE(reply_ok(accounting));
  std::size_t accounted = 0;
  for (const json::Value& row : accounting.at("tenants").as_array()) {
    EXPECT_EQ(row.at("studies_finished").as_int(), 1);
    EXPECT_EQ(row.at("studies_active").as_int(), 0);
    EXPECT_GT(row.at("engine_seconds").as_double(), 0.0);
    accounted += static_cast<std::size_t>(row.at("trials_completed").as_int());
  }
  EXPECT_EQ(accounted, total_trials);

  const json::Value stats = reply_of(server.handle(1, op_request("stats")));
  EXPECT_EQ(stats.at("leaked_completions").as_int(), 0);
  EXPECT_EQ(stats.at("lineage_violations").as_int(), 0);
  EXPECT_EQ(stats.at("finished").as_int(), 2);
}

// ---------------------------------------------------------------------------
// Protocol edge cases — each must leave the manager consistent
// ---------------------------------------------------------------------------

TEST(DaemonServer, MalformedRequestsGetErrorsAndLeaveTheManagerConsistent) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 2);
  daemon::Server server(sim_options(), dataset);

  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, json::Value("not an object")))));
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, json::parse(R"({"op": 42})")))));
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, json::parse(R"({"op":"frobnicate"})")))));
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, json::parse(R"({"op":"submit"})")))));

  const json::Value parse_error = reply_of(server.handle_line_error(1, "unterminated string"));
  EXPECT_FALSE(reply_ok(parse_error));
  EXPECT_NE(parse_error.at("error").as_string().find("parse error"), std::string::npos);

  // A submit whose spec fails validation is rejected without a study.
  json::Value bad = submit_request("alice", "grid", 4);
  json::Value bad_spec = bad.at("spec");
  bad_spec.set("mystery_knob", json::Value(7));
  bad.set("spec", bad_spec);
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, bad))));

  // After all that abuse the server still runs studies cleanly.
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("alice", "random", 3)))));
  run_to_idle(server);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  EXPECT_EQ(server.manager().stats().finished, 1u);
}

TEST(DaemonServer, UnknownStudyAndDoubleKillAreErrors) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 3);
  daemon::Server server(sim_options(), dataset);

  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, op_request("status", 99)))));
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, op_request("pause", 99)))));
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, op_request("watch", 99)))));

  const json::Value submitted = reply_of(server.handle(1, submit_request("alice", "random", 4)));
  const std::int64_t id = submitted.at("study").as_int();

  const json::Value killed = reply_of(server.handle(1, op_request("kill", id)));
  ASSERT_TRUE(reply_ok(killed));
  EXPECT_EQ(killed.at("state").as_string(), "killed");

  const json::Value again = reply_of(server.handle(1, op_request("kill", id)));
  EXPECT_FALSE(reply_ok(again));
  EXPECT_NE(again.at("error").as_string().find("killed"), std::string::npos);

  run_to_idle(server);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  EXPECT_EQ(server.ledger().stats("alice").studies_killed, 1u);
  EXPECT_EQ(server.ledger().stats("alice").studies_active, 0u);
}

TEST(DaemonServer, DisconnectMidWatchStopsEventsAndLeaksNothing) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 4);
  daemon::Server server(sim_options(), dataset);

  const json::Value submitted = reply_of(server.handle(1, submit_request("alice", "random", 6)));
  const std::int64_t id = submitted.at("study").as_int();

  constexpr daemon::ClientId kWatcher = 7;
  const auto subscribed = server.handle(kWatcher, op_request("watch", id));
  ASSERT_TRUE(reply_ok(reply_of(subscribed)));
  // The immediate snapshot targets only the new subscriber.
  bool saw_snapshot = false;
  for (const daemon::Outbound& message : subscribed)
    if (message.message.find("event") != nullptr) {
      EXPECT_EQ(message.client, kWatcher);
      saw_snapshot = true;
    }
  EXPECT_TRUE(saw_snapshot);

  // Some progress reaches the watcher, then the connection dies.
  std::vector<daemon::Outbound> early = server.step(1e6);
  server.disconnect(kWatcher);
  const std::vector<daemon::Outbound> late = run_to_idle(server);
  for (const daemon::Outbound& message : late) EXPECT_NE(message.client, kWatcher);

  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  EXPECT_EQ(server.manager().stats().finished, 1u);
  // The study's trials are still accounted even with the watcher gone.
  EXPECT_EQ(server.ledger().stats("alice").trials_completed, 6u);
}

TEST(DaemonServer, WatchStreamsEveryTrialThenTheTerminalState) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 5);
  daemon::Server server(sim_options(), dataset);

  constexpr daemon::ClientId kWatcher = 3;
  ASSERT_TRUE(reply_ok(reply_of(server.handle(kWatcher, op_request("watch")))));  // watch-all
  const json::Value submitted = reply_of(server.handle(1, submit_request("bob", "random", 5)));
  const std::int64_t id = submitted.at("study").as_int();

  std::size_t trial_events = 0;
  std::string last_state;
  for (const daemon::Outbound& message : run_to_idle(server)) {
    ASSERT_EQ(message.client, kWatcher);
    EXPECT_EQ(message.message.at("study").as_int(), id);
    const std::string& kind = message.message.at("event").as_string();
    if (kind == "trial")
      ++trial_events;
    else
      last_state = message.message.at("state").as_string();
  }
  EXPECT_EQ(trial_events, 5u);
  EXPECT_EQ(last_state, "finished");

  // Watch on an already finished study terminates via its snapshot.
  const auto after = server.handle(9, op_request("watch", id));
  ASSERT_TRUE(reply_ok(reply_of(after)));
  bool terminal_snapshot = false;
  for (const daemon::Outbound& message : after)
    if (message.message.find("event") != nullptr)
      terminal_snapshot = message.message.at("state").as_string() == "finished";
  EXPECT_TRUE(terminal_snapshot);
}

TEST(DaemonServer, PauseResumeOverTheProtocol) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 6);
  daemon::Server server(sim_options(), dataset);

  // tpe keeps one suggestion in flight, so pausing actually halts refills.
  json::Value request = submit_request("alice", "tpe", 6);
  const json::Value submitted = reply_of(server.handle(1, request));
  ASSERT_TRUE(reply_ok(submitted));
  const std::int64_t id = submitted.at("study").as_int();

  server.step(1e6);  // at least one trial lands
  const json::Value paused = reply_of(server.handle(1, op_request("pause", id)));
  ASSERT_TRUE(reply_ok(paused));
  EXPECT_EQ(paused.at("state").as_string(), "paused");
  // Pausing a paused study is an error, not a silent no-op.
  EXPECT_FALSE(reply_ok(reply_of(server.handle(1, op_request("pause", id)))));

  // Paused: the in-flight trial drains, then progress stops.
  for (int i = 0; i < 3; ++i) server.step(1e6);
  const json::Value status = reply_of(server.handle(1, op_request("status", id)));
  EXPECT_EQ(status.at("state").as_string(), "paused");
  const std::int64_t at_pause = status.at("trials_done").as_int();
  EXPECT_LT(at_pause, 6);

  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, op_request("resume", id)))));
  run_to_idle(server);
  const json::Value final_status = reply_of(server.handle(1, op_request("status", id)));
  EXPECT_EQ(final_status.at("state").as_string(), "finished");
  EXPECT_EQ(final_status.at("trials_done").as_int(), 6);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
}

TEST(DaemonServer, TenantQuotaRejectsThenAdmitsAfterRaise) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 7);
  daemon::ServerOptions options = sim_options();
  options.default_quota.max_active_studies = 1;
  daemon::Server server(std::move(options), dataset);

  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("alice", "random", 4)))));
  const json::Value rejected = reply_of(server.handle(1, submit_request("alice", "random", 4)));
  EXPECT_FALSE(reply_ok(rejected));
  EXPECT_NE(rejected.at("error").as_string().find("quota"), std::string::npos);
  // An unrelated tenant is not affected by alice's quota.
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("bob", "random", 3)))));

  json::Value raise = op_request("quota");
  raise.set("tenant", json::Value("alice"));
  raise.set("max_active_studies", json::Value(std::int64_t{2}));
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, raise))));
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("alice", "random", 3)))));

  run_to_idle(server);
  EXPECT_EQ(server.ledger().stats("alice").submits_rejected, 1u);
  EXPECT_EQ(server.ledger().stats("alice").studies_finished, 2u);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
}

// ---------------------------------------------------------------------------
// Shutdown drain + restart resume
// ---------------------------------------------------------------------------

TEST(DaemonServer, ShutdownWithQueuedStudiesWritesManifestAndRestartResumes) {
  const fs::path state_dir =
      fs::temp_directory_path() / ("chpo_daemon_test_" + std::to_string(::getpid()));
  fs::remove_all(state_dir);
  fs::create_directories(state_dir);
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 8);

  daemon::ServerOptions options = sim_options();
  options.state_dir = state_dir.string();
  {
    daemon::Server server(std::move(options), dataset);
    ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("alice", "random", 4)))));
    ASSERT_TRUE(reply_ok(reply_of(server.handle(2, submit_request("bob", "tpe", 5)))));
    server.step(1e6);  // some trials land, checkpoints appear

    // Shutdown while work is still queued: the reply arrives from step()
    // only after the drain, and submissions are refused meanwhile.
    EXPECT_TRUE(server.handle(1, op_request("shutdown")).empty());
    EXPECT_TRUE(server.draining());
    EXPECT_FALSE(reply_ok(reply_of(server.handle(2, submit_request("eve", "grid", 0)))));

    bool drained_reply = false;
    while (!server.done()) {
      for (const daemon::Outbound& message : server.step(1e6)) {
        if (message.message.find("drained") != nullptr) {
          EXPECT_EQ(message.client, 1u);
          EXPECT_TRUE(reply_ok(message.message));
          EXPECT_EQ(message.message.at("persisted_studies").as_int(), 2);
          drained_reply = true;
        }
      }
    }
    EXPECT_TRUE(drained_reply);
    EXPECT_EQ(server.manager().leaked_completions(), 0u);
    EXPECT_TRUE(fs::exists(state_dir / "manifest.json"));
  }

  // Restart: the manifest resubmits both studies; their checkpoints replay
  // completed trials, and the tenant ledger reconciles replayed + fresh.
  daemon::ServerOptions resumed_options = sim_options();
  resumed_options.state_dir = state_dir.string();
  daemon::Server resumed(std::move(resumed_options), dataset);

  const json::Value list = reply_of(resumed.handle(1, op_request("list")));
  ASSERT_EQ(list.at("studies").as_array().size(), 2u);
  run_to_idle(resumed);

  const json::Value accounting = reply_of(resumed.handle(1, op_request("accounting")));
  std::size_t reconciled = 0;
  for (const json::Value& row : accounting.at("tenants").as_array()) {
    EXPECT_EQ(row.at("studies_finished").as_int(), 1);
    reconciled += static_cast<std::size_t>(row.at("trials_completed").as_int());
  }
  EXPECT_EQ(reconciled, 9u);  // 4 random + 5 tpe, replayed or fresh
  EXPECT_EQ(resumed.manager().leaked_completions(), 0u);
  for (const rt::StudyId id : resumed.manager().studies())
    EXPECT_EQ(resumed.manager().state(id), service::StudyState::Finished);

  fs::remove_all(state_dir);
}

// ---------------------------------------------------------------------------
// Crash safety: journal replay, idempotent resubmit, exactly-once ledger
// ---------------------------------------------------------------------------

fs::path fresh_state_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("chpo_crash_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A submit carrying a client-chosen string id — the idempotency key.
json::Value keyed_submit(const std::string& tenant, const std::string& algorithm, int budget,
                         const std::string& key, bool paused = false) {
  json::Value request = submit_request(tenant, algorithm, budget);
  request.set("id", json::Value(key));
  if (paused) {
    json::Value spec = request.at("spec");
    spec.set("paused", json::Value(true));
    request.set("spec", spec);
  }
  return request;
}

TEST(DaemonServer, IdempotentSubmitDedupesByClientKey) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 14);
  daemon::Server server(sim_options(), dataset);

  const json::Value first = reply_of(server.handle(1, keyed_submit("alice", "random", 3, "r1")));
  ASSERT_TRUE(reply_ok(first));
  EXPECT_FALSE(first.contains("duplicate"));
  const std::int64_t id = first.at("study").as_int();

  // A client retry of the same request (reply lost to a timeout) must get
  // the original study back and charge nothing.
  const json::Value retry = reply_of(server.handle(1, keyed_submit("alice", "random", 3, "r1")));
  ASSERT_TRUE(reply_ok(retry));
  EXPECT_TRUE(retry.at("duplicate").as_bool());
  EXPECT_EQ(retry.at("study").as_int(), id);
  EXPECT_EQ(retry.at("name").as_string(), first.at("name").as_string());
  EXPECT_EQ(server.ledger().stats("alice").studies_submitted, 1u);

  // Keys are scoped per tenant: the same id elsewhere is a new request.
  const json::Value other = reply_of(server.handle(1, keyed_submit("bob", "random", 3, "r1")));
  ASSERT_TRUE(reply_ok(other));
  EXPECT_FALSE(other.contains("duplicate"));

  run_to_idle(server);

  // A retry after the study closed still answers with its fate.
  const json::Value late = reply_of(server.handle(1, keyed_submit("alice", "random", 3, "r1")));
  ASSERT_TRUE(reply_ok(late));
  EXPECT_TRUE(late.at("duplicate").as_bool());
  EXPECT_EQ(late.at("state").as_string(), "finished");
  EXPECT_EQ(server.ledger().stats("alice").studies_submitted, 1u);

  // Integer request ids (the plain protocol) never participate in dedup.
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("carol", "random", 2, 7)))));
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("carol", "random", 2, 7)))));
  EXPECT_EQ(server.ledger().stats("carol").studies_submitted, 2u);
}

// The core crash-safety property: destroy the server WITHOUT shutdown
// (process death — nothing is flushed beyond what the journal already made
// durable) after each acknowledged operation in turn, restart on the same
// state dir, and require every acknowledged study back, every closed study
// counted exactly once, and nothing leaked.
TEST(DaemonServer, CrashRecoveryAtEveryInjectionPointIsExactlyOnce) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 10);
  struct TenantExp {
    std::int64_t submitted = 0, finished = 0, killed = 0, trials = 0;
  };

  for (int cut = 1; cut <= 6; ++cut) {
    SCOPED_TRACE("crash after op " + std::to_string(cut));
    const fs::path state_dir = fresh_state_dir("cut" + std::to_string(cut));
    std::map<std::string, TenantExp> exp;
    std::set<std::string> paused_tenants;
    std::int64_t carol_study = -1;
    int live = 0;

    {
      daemon::ServerOptions options = sim_options();
      options.state_dir = state_dir.string();
      daemon::Server server(std::move(options), dataset);
      const std::vector<std::function<void()>> ops = {
          [&] {  // 1: an acknowledged submit must survive any later crash
            ASSERT_TRUE(
                reply_ok(reply_of(server.handle(1, keyed_submit("alice", "random", 4, "a1")))));
            exp["alice"] = {1, 1, 0, 4};
            ++live;
          },
          [&] {  // 2
            ASSERT_TRUE(
                reply_ok(reply_of(server.handle(1, keyed_submit("bob", "tpe", 5, "b1")))));
            exp["bob"] = {1, 1, 0, 5};
            ++live;
          },
          [&] {  // 3: run both to completion — their closes hit the journal
            run_to_idle(server);
            live = 0;
          },
          [&] {  // 4: a paused submit rides into the crash still queued
            const json::Value reply =
                reply_of(server.handle(1, keyed_submit("carol", "random", 4, "c1", true)));
            ASSERT_TRUE(reply_ok(reply));
            carol_study = reply.at("study").as_int();
            exp["carol"] = {1, 1, 0, 4};
            paused_tenants.insert("carol");
            ++live;
          },
          [&] {  // 5: kill before the first trial — counted, zero work
            ASSERT_TRUE(reply_ok(reply_of(server.handle(1, op_request("kill", carol_study)))));
            exp["carol"] = {1, 0, 1, 0};
            paused_tenants.erase("carol");
            --live;
          },
          [&] {  // 6
            ASSERT_TRUE(
                reply_ok(reply_of(server.handle(1, keyed_submit("erin", "random", 2, "e1")))));
            exp["erin"] = {1, 1, 0, 2};
            ++live;
          },
      };
      for (int i = 0; i < cut; ++i) ops[static_cast<std::size_t>(i)]();
      if (testing::Test::HasFatalFailure()) return;
    }  // ~Server without shutdown: the in-process kill -9

    daemon::ServerOptions options = sim_options();
    options.state_dir = state_dir.string();
    daemon::Server server(std::move(options), dataset);

    // Exactly the studies that were live at the crash come back.
    const json::Value list = reply_of(server.handle(1, op_request("list")));
    const json::Array& rows = list.at("studies").as_array();
    EXPECT_EQ(rows.size(), static_cast<std::size_t>(live));
    for (const json::Value& row : rows) {
      if (paused_tenants.count(row.at("tenant").as_string())) {
        ASSERT_TRUE(
            reply_ok(reply_of(server.handle(1, op_request("resume", row.at("study").as_int())))));
      }
    }
    run_to_idle(server);

    for (const auto& [tenant, want] : exp) {
      const service::TenantStats got = server.ledger().stats(tenant);
      EXPECT_EQ(static_cast<std::int64_t>(got.studies_submitted), want.submitted) << tenant;
      EXPECT_EQ(static_cast<std::int64_t>(got.studies_finished), want.finished) << tenant;
      EXPECT_EQ(static_cast<std::int64_t>(got.studies_killed), want.killed) << tenant;
      EXPECT_EQ(static_cast<std::int64_t>(got.trials_completed), want.trials) << tenant;
      EXPECT_EQ(got.studies_active, 0u) << tenant;
    }
    EXPECT_EQ(server.manager().leaked_completions(), 0u);
    EXPECT_EQ(server.manager().lineage_violations(), 0u);

    // The dedup window survived the crash: replaying the very first submit
    // is recognized, and charges nothing.
    const json::Value dup = reply_of(server.handle(1, keyed_submit("alice", "random", 4, "a1")));
    ASSERT_TRUE(reply_ok(dup));
    EXPECT_TRUE(dup.contains("duplicate"));
    EXPECT_EQ(static_cast<std::int64_t>(server.ledger().stats("alice").studies_submitted),
              exp["alice"].submitted);

    fs::remove_all(state_dir);
  }
}

TEST(DaemonServer, JournalManifestAndListReplyRoundTripByteForByte) {
  // What the daemon writes and sends parses and serializes back to the
  // same bytes: every journal payload, a `list` reply and the manifest.
  const fs::path state_dir = fresh_state_dir("roundtrip");
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 12);
  daemon::ServerOptions options = sim_options();
  options.state_dir = state_dir.string();
  options.fsync = false;
  options.journal_compact_every = 0;  // keep every record in the journal
  daemon::Server server(std::move(options), dataset);
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("alice", "grid", 0)))));
  ASSERT_TRUE(reply_ok(reply_of(server.handle(2, keyed_submit("bob", "random", 3, "bob-1")))));
  run_to_idle(server);
  ASSERT_TRUE(reply_ok(
      reply_of(server.handle(2, keyed_submit("bob", "tpe", 4, "bob-2", /*paused=*/true)))));

  const std::string list = json::serialize(reply_of(server.handle(1, op_request("list"))));
  EXPECT_EQ(json::serialize(json::parse(list)), list);

  std::ifstream journal(state_dir / "journal.ndjson", std::ios::binary);
  std::string line;
  std::size_t records = 0;
  while (std::getline(journal, line)) {
    const std::string payload = line.substr(line.find(' ') + 1);
    EXPECT_EQ(json::serialize(json::parse(payload)), payload);
    ++records;
  }
  EXPECT_GE(records, 4u);  // three submits, two closes

  EXPECT_TRUE(server.handle(1, op_request("shutdown")).empty());
  while (!server.done()) server.step(1e6);
  std::ifstream manifest_file(state_dir / "manifest.json", std::ios::binary);
  std::ostringstream manifest;
  manifest << manifest_file.rdbuf();
  EXPECT_NE(manifest.str().find("bob-2"), std::string::npos);
  EXPECT_EQ(json::serialize_pretty(json::parse(manifest.str())) + "\n", manifest.str());
  fs::remove_all(state_dir);
}

TEST(DaemonServer, TornJournalTailIsDiscardedAndIntactPrefixRecovered) {
  const fs::path state_dir = fresh_state_dir("torn");
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 11);
  {
    daemon::ServerOptions options = sim_options();
    options.state_dir = state_dir.string();
    daemon::Server server(std::move(options), dataset);
    ASSERT_TRUE(reply_ok(reply_of(server.handle(1, keyed_submit("alice", "random", 3, "t1")))));
  }
  // The crash tore the final append mid-record: half a line, no newline.
  // That operation was never acknowledged, so dropping it is correct.
  {
    std::ofstream journal(state_dir / "journal.ndjson", std::ios::binary | std::ios::app);
    journal << "0badc0de {\"rec\":\"submit\",\"tenant\":\"never";
  }
  daemon::ServerOptions options = sim_options();
  options.state_dir = state_dir.string();
  daemon::Server server(std::move(options), dataset);

  const json::Value list = reply_of(server.handle(1, op_request("list")));
  const json::Array& rows = list.at("studies").as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("tenant").as_string(), "alice");
  run_to_idle(server);
  EXPECT_EQ(server.ledger().stats("alice").studies_finished, 1u);
  EXPECT_EQ(server.ledger().stats("alice").trials_completed, 3u);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  fs::remove_all(state_dir);
}

TEST(DaemonServer, CorruptManifestIsQuarantinedAndJournalStillRecovers) {
  const fs::path state_dir = fresh_state_dir("badmanifest");
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 12);
  {
    daemon::ServerOptions options = sim_options();
    options.state_dir = state_dir.string();
    daemon::Server server(std::move(options), dataset);
    ASSERT_TRUE(reply_ok(reply_of(server.handle(1, keyed_submit("alice", "random", 3, "m1")))));
    EXPECT_FALSE(server.recovered_degraded());
  }
  {
    std::ofstream manifest(state_dir / "manifest.json", std::ios::binary | std::ios::trunc);
    manifest << "{\"studies\": [this is not json";
  }
  daemon::ServerOptions options = sim_options();
  options.state_dir = state_dir.string();
  daemon::Server server(std::move(options), dataset);

  // The corrupt file is evidence, not garbage: quarantined, flagged, and
  // everything the journal alone can prove is recovered.
  EXPECT_TRUE(server.recovered_degraded());
  EXPECT_TRUE(fs::exists(state_dir / "manifest.json.bad"));
  EXPECT_TRUE(fs::exists(state_dir / "manifest.json"));  // rewritten healthy
  const json::Value stats = reply_of(server.handle(1, op_request("stats")));
  EXPECT_TRUE(stats.at("recovered_degraded").as_bool());

  const json::Value list = reply_of(server.handle(1, op_request("list")));
  ASSERT_EQ(list.at("studies").as_array().size(), 1u);
  run_to_idle(server);
  EXPECT_EQ(server.ledger().stats("alice").studies_finished, 1u);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  fs::remove_all(state_dir);
}

TEST(DaemonServer, StudyDrainedMidFlightReplaysAndCountsExactlyOnce) {
  const fs::path state_dir = fresh_state_dir("drain");
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 13);
  {
    daemon::ServerOptions options = sim_options();
    options.state_dir = state_dir.string();
    daemon::Server server(std::move(options), dataset);
    ASSERT_TRUE(reply_ok(reply_of(server.handle(1, submit_request("alice", "random", 3)))));
    EXPECT_TRUE(server.handle(1, op_request("shutdown")).empty());
    while (!server.done()) server.step(1e6);
    EXPECT_EQ(server.manager().leaked_completions(), 0u);
  }
  // Restart: the study replays its drained trials from checkpoints and
  // finishes the rest — the meter lands on the budget exactly (a double
  // count or a loss across the restart would miss it).
  daemon::ServerOptions options = sim_options();
  options.state_dir = state_dir.string();
  daemon::Server server(std::move(options), dataset);
  ASSERT_EQ(reply_of(server.handle(1, op_request("list"))).at("studies").as_array().size(), 1u);
  run_to_idle(server);
  const service::TenantStats got = server.ledger().stats("alice");
  EXPECT_EQ(got.studies_submitted, 1u);
  EXPECT_EQ(got.studies_finished, 1u);
  EXPECT_EQ(got.studies_killed, 0u);
  EXPECT_EQ(got.studies_active, 0u);
  EXPECT_EQ(got.trials_completed, 3u);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  fs::remove_all(state_dir);
}

// ---------------------------------------------------------------------------
// Paused-only fleets and study retirement
// ---------------------------------------------------------------------------

TEST(DaemonServer, StepReturnsWhenTheOnlyRunningStudyIsPausedOnThreads) {
  // Thread backend, one slot: pausing leaves the study's queued trials as
  // the only outstanding work. step() must come back after its slice
  // instead of failing with the drive loop's deadlock error.
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, 21);
  daemon::ServerOptions options;
  cluster::NodeSpec node;
  node.name = "t";
  node.cpus = 1;
  options.manager.runtime.cluster = cluster::homogeneous(1, node);
  options.defaults.driver.epoch_divisor = 10;
  daemon::Server server(std::move(options), dataset);
  json::Value request = submit_request("alice", "random", 3);
  json::Value spec = request.at("spec");
  spec.set("epoch_cap", json::Value(std::int64_t{1}));
  request.set("spec", spec);
  const json::Value submitted = reply_of(server.handle(1, request));
  ASSERT_TRUE(reply_ok(submitted));
  const std::int64_t id = submitted.at("study").as_int();

  server.step(0.01);  // admit: one trial runs, two wait for the slot
  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, op_request("pause", id)))));
  for (int i = 0; i < 40; ++i) EXPECT_NO_THROW(server.step(0.05));
  const json::Value status = reply_of(server.handle(1, op_request("status", id)));
  EXPECT_EQ(status.at("state").as_string(), "paused");
  EXPECT_LT(status.at("trials_done").as_int(), 3);

  ASSERT_TRUE(reply_ok(reply_of(server.handle(1, op_request("resume", id)))));
  for (int i = 0; i < 2000 && server.busy(); ++i) server.step(0.05);
  const json::Value done = reply_of(server.handle(1, op_request("status", id)));
  EXPECT_EQ(done.at("state").as_string(), "finished");
  EXPECT_EQ(done.at("trials_done").as_int(), 3);
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
}

TEST(DaemonServer, SoakRetiresClosedStudiesAndKeepsTheirRowsAndLedger) {
  const fs::path state_dir = fresh_state_dir("soak");
  const ml::Dataset dataset = ml::make_mnist_like(24, 8, 22);
  daemon::ServerOptions options = sim_options();
  options.defaults.driver.epoch_divisor = 3;  // one real epoch per trial body
  options.state_dir = state_dir.string();
  options.journal_compact_every = 64;  // several compactions along the way
  options.fsync = false;  // durability order is covered by the crash tests
  constexpr int kStudies = 200;

  std::map<std::string, service::TenantStats> ledger_before;
  {
    daemon::Server server(options, dataset);
    // The last row each study showed while its full record still existed.
    std::map<std::int64_t, json::Value> last_full_row;
    std::set<std::int64_t> unretired;
    const auto observe = [&] {
      for (auto it = unretired.begin(); it != unretired.end();) {
        if (server.manager().retired(static_cast<rt::StudyId>(*it))) {
          it = unretired.erase(it);
          continue;
        }
        last_full_row[*it] = reply_of(server.handle(9, op_request("status", *it)));
        ++it;
      }
    };

    std::vector<std::int64_t> ids;
    std::size_t kills_acked = 0;
    for (int i = 0; i < kStudies; ++i) {
      const std::string tenant = "tenant-" + std::to_string(i % 3);
      const json::Value reply = reply_of(server.handle(
          1, submit_request(tenant, i % 2 == 0 ? "random" : "grid", 2 + i % 2, i)));
      ASSERT_TRUE(reply_ok(reply));
      ids.push_back(reply.at("study").as_int());
      unretired.insert(ids.back());
      if (i % 4 == 1) {  // killed while still queued
        kills_acked += reply_ok(reply_of(server.handle(1, op_request("kill", ids.back()))));
      }
      if (i % 4 == 3) {  // killed a few steps after submission, if still live
        kills_acked += reply_ok(reply_of(server.handle(1, op_request("kill", ids[i - 3]))));
      }
      observe();
      server.step(30.0);
      observe();
    }
    while (server.busy()) {
      server.step(1e6);
      observe();
    }
    EXPECT_GE(kills_acked, static_cast<std::size_t>(kStudies) / 3);

    // Full records exist only for live studies: none are live, and every
    // study is retired (checked row by row below).
    const service::ManagerStats stats = server.manager().stats();
    EXPECT_EQ(stats.queued + stats.running + stats.paused, 0u);
    EXPECT_EQ(stats.finished + stats.killed, static_cast<std::size_t>(kStudies));
    EXPECT_EQ(stats.killed, kills_acked);

    // Every retired row reads exactly as it did before retirement.
    const json::Value list = reply_of(server.handle(1, op_request("list")));
    const json::Array& rows = list.at("studies").as_array();
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(kStudies));
    std::size_t trials_listed = 0;
    for (const json::Value& row : rows) {
      const std::int64_t id = row.at("study").as_int();
      ASSERT_TRUE(server.manager().retired(static_cast<rt::StudyId>(id)));
      // A closed study still holding its full record would hand out its
      // outcome; a retired one refuses.
      EXPECT_THROW(server.manager().outcome(static_cast<rt::StudyId>(id)), std::logic_error);
      ASSERT_EQ(last_full_row.count(id), 1u) << "study " << id << " never observed unretired";
      const json::Value& before = last_full_row.at(id);
      for (const char* field :
           {"name", "tenant", "algorithm", "state", "trials_done", "elapsed_seconds", "tasks"})
        EXPECT_EQ(json::serialize(row.at(field)), json::serialize(before.at(field)))
            << "study " << id << " field " << field;
      EXPECT_EQ(row.contains("best_accuracy"), before.contains("best_accuracy"));
      if (row.contains("best_accuracy")) {
        EXPECT_EQ(row.at("best_accuracy").as_double(), before.at("best_accuracy").as_double());
      }
      EXPECT_TRUE(row.at("state").as_string() == "finished" ||
                  row.at("state").as_string() == "killed");
      trials_listed += static_cast<std::size_t>(row.at("trials_done").as_int());
    }

    // The ledger's trials equal the sum over `list`.
    std::size_t trials_ledger = 0;
    for (const std::string& tenant : server.ledger().tenants()) {
      ledger_before[tenant] = server.ledger().stats(tenant);
      trials_ledger += ledger_before[tenant].trials_completed;
    }
    EXPECT_EQ(trials_ledger, trials_listed);
    EXPECT_EQ(server.manager().leaked_completions(), 0u);
    EXPECT_EQ(server.manager().lineage_violations(), 0u);
  }

  // A restart from the state dir recovers the same ledger.
  daemon::Server restarted(options, dataset);
  ASSERT_EQ(restarted.ledger().tenants().size(), ledger_before.size());
  for (const auto& [tenant, want] : ledger_before) {
    const service::TenantStats got = restarted.ledger().stats(tenant);
    EXPECT_EQ(got.studies_submitted, want.studies_submitted) << tenant;
    EXPECT_EQ(got.studies_active, 0u) << tenant;
    EXPECT_EQ(got.studies_finished, want.studies_finished) << tenant;
    EXPECT_EQ(got.studies_killed, want.studies_killed) << tenant;
    EXPECT_EQ(got.trials_completed, want.trials_completed) << tenant;
    EXPECT_EQ(got.task_attempts, want.task_attempts) << tenant;
    EXPECT_NEAR(got.engine_seconds, want.engine_seconds, 1e-6 * (1.0 + want.engine_seconds))
        << tenant;
  }
  EXPECT_FALSE(restarted.busy());
  fs::remove_all(state_dir);
}

// ---------------------------------------------------------------------------
// SocketDaemon end-to-end over a real Unix socket
// ---------------------------------------------------------------------------

/// Minimal blocking NDJSON client for the e2e test.
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The daemon binds asynchronously; retry briefly.
    for (int i = 0; i < 200; ++i) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "could not connect to " << path;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const json::Value& request) { send_raw(json::encode_frame(request)); }

  void send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        ADD_FAILURE() << "send failed";
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// True when the daemon closes the connection (after draining its bytes).
  bool eof() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return false;
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  json::Value next() {
    while (true) {
      if (std::optional<json::Frame> frame = decoder_.next()) {
        EXPECT_TRUE(frame->ok()) << frame->error;
        return std::move(frame->value);
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        ADD_FAILURE() << "daemon closed the connection early";
        return json::Value();
      }
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  json::LineDecoder decoder_;
};

TEST(SocketDaemon, EndToEndSubmitWatchShutdownOverAUnixSocket) {
  const std::string socket_path =
      (fs::temp_directory_path() / ("chpo_daemon_e2e_" + std::to_string(::getpid()) + ".sock"))
          .string();
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 9);
  daemon::Server server(sim_options(), dataset);
  daemon::SocketDaemon front_end({.socket_path = socket_path, .step_seconds = 1e5}, server);
  std::thread daemon_thread([&] { EXPECT_EQ(front_end.run(), 0); });

  {
    RawClient client(socket_path);
    client.send(op_request("ping"));
    EXPECT_TRUE(reply_ok(client.next()));

    // Subscribe before submitting so no early trial event is missed (the
    // coordinator handles the two requests in order).
    client.send(op_request("watch"));
    client.send(submit_request("alice", "random", 3));
    std::size_t trials = 0;
    while (true) {
      const json::Value message = client.next();
      const json::Value* event = message.find("event");
      if (event == nullptr) continue;  // the watch ack
      if (event->as_string() == "trial") ++trials;
      if (event->as_string() == "state" && message.at("state").as_string() == "finished") break;
    }
    EXPECT_EQ(trials, 3u);

    // A second client shuts the daemon down and gets the drained reply.
    RawClient controller(socket_path);
    controller.send(op_request("shutdown"));
    const json::Value drained = controller.next();
    EXPECT_TRUE(reply_ok(drained));
    EXPECT_TRUE(drained.at("drained").as_bool());
  }

  daemon_thread.join();
  EXPECT_EQ(server.manager().leaked_completions(), 0u);
  EXPECT_FALSE(fs::exists(socket_path));  // unlinked on clean exit
}

TEST(SocketDaemon, OversizedRequestLineFailsOnlyThatConnection) {
  const std::string socket_path =
      (fs::temp_directory_path() / ("chpo_daemon_big_" + std::to_string(::getpid()) + ".sock"))
          .string();
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 15);
  daemon::Server server(sim_options(), dataset);
  daemon::SocketDaemon front_end(
      {.socket_path = socket_path, .step_seconds = 1e5, .max_line_bytes = 256}, server);
  std::thread daemon_thread([&] { EXPECT_EQ(front_end.run(), 0); });

  {
    // One endless line: the daemon must reply with a protocol error and
    // close, never buffering the line past the cap.
    RawClient offender(socket_path);
    offender.send_raw(std::string(4096, 'x') + "\n");
    const json::Value error = offender.next();
    EXPECT_FALSE(reply_ok(error));
    EXPECT_NE(error.at("error").as_string().find("protocol error"), std::string::npos);
    EXPECT_TRUE(offender.eof());

    // Other clients are unaffected; the daemon still serves and drains.
    RawClient controller(socket_path);
    controller.send(op_request("ping"));
    EXPECT_TRUE(reply_ok(controller.next()));
    controller.send(op_request("shutdown"));
    EXPECT_TRUE(reply_ok(controller.next()));
  }
  daemon_thread.join();
}

}  // namespace
}  // namespace chpo
