// Unit tests for chpo_lint: each rule is fed a synthetic tree containing a
// violation (proving detection) and a clean variant (proving no false
// positive). The real repo is checked by the `chpo_lint` ctest itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace chpo::lint {
namespace {

namespace fs = std::filesystem;

std::vector<Finding> of_rule(const std::vector<Finding>& findings, const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

// ---------------------------------------------------------------------------
// Masking
// ---------------------------------------------------------------------------

TEST(Masking, StripsCommentsAndLiteralsButKeepsLines) {
  const std::string in =
      "int a; // trailing .lock()\n"
      "/* block\n spanning .unlock() */ int b;\n"
      "const char* s = \".lock()\";\n"
      "char c = '\\'';\n";
  const std::string out = mask_comments_and_literals(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("lock"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  EXPECT_NE(out.find("const char* s ="), std::string::npos);
}

TEST(Masking, HandlesSimpleRawStrings) {
  const std::string out = mask_comments_and_literals("auto s = R\"(.lock() inside)\"; int x;");
  EXPECT_EQ(out.find("lock"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
}

TEST(Masking, BlockCommentsSpanningManyLinesStayMasked) {
  const std::string in =
      "int before;\n"
      "/*\n"
      " * mutex_.lock();\n"
      " * server_.step(0.1);\n"
      " */\n"
      "int after;\n";
  const std::string out = mask_comments_and_literals(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("lock"), std::string::npos);
  EXPECT_EQ(out.find("step"), std::string::npos);
  EXPECT_NE(out.find("int before;"), std::string::npos);
  EXPECT_NE(out.find("int after;"), std::string::npos);
}

TEST(Masking, CustomDelimiterRawStringsSpanningLines) {
  // The regression: with a custom delimiter, an interior `)"` is NOT the
  // terminator — the old masker dropped back to code there and leaked the
  // rest of the literal into rule matching.
  const std::string in =
      "auto s = R\"x(\n"
      "  not closed by )\" this\n"
      "  mutex_.lock();\n"
      ")x\";\n"
      "int tail;\n";
  const std::string out = mask_comments_and_literals(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("lock"), std::string::npos);
  EXPECT_NE(out.find("int tail;"), std::string::npos);
}

TEST(Masking, RawStringEncodingPrefixes) {
  for (const std::string prefix : {"u8", "u", "U", "L"}) {
    const std::string in = "auto s = " + prefix + "R\"(.lock())\"; int k;";
    const std::string out = mask_comments_and_literals(in);
    EXPECT_EQ(out.find("lock"), std::string::npos) << prefix;
    EXPECT_NE(out.find("int k;"), std::string::npos) << prefix;
  }
  // An identifier merely ending in R does not open a raw string.
  const std::string out = mask_comments_and_literals("call(VAR\"text\", x); int m;");
  EXPECT_NE(out.find("int m;"), std::string::npos);
}

TEST(Masking, BackslashContinuedLineComments) {
  // A `//` comment ending in a backslash continues onto the next line; the
  // old masker dropped back to code at the newline and leaked it.
  const std::string in =
      "int a; // comment continues \\\n"
      "mutex_.lock();\n"
      "int b;\n";
  const std::string out = mask_comments_and_literals(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("lock"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// raw-lock-call
// ---------------------------------------------------------------------------

TEST(RawLockCall, FlagsManualLockAndUnlock) {
  const auto findings = lint_files({{"src/foo/bar.cpp",
                                     "void f() {\n"
                                     "  mutex_.lock();\n"
                                     "  ptr->unlock();\n"
                                     "  mu.lock_shared();\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "raw-lock-call");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_EQ(hits[1].line, 3);
  EXPECT_EQ(hits[2].line, 4);
}

TEST(RawLockCall, AllowsTheAnnotatedWrappersThemselves) {
  const auto findings = lint_files(
      {{"src/support/thread_annotations.hpp", "void lock() { m_.lock(); }\n"}});
  EXPECT_TRUE(of_rule(findings, "raw-lock-call").empty());
}

TEST(RawLockCall, IgnoresCommentsStringsAndNonMemberCalls) {
  const auto findings = lint_files({{"src/foo/bar.cpp",
                                     "// call .lock() manually\n"
                                     "const char* s = \".unlock()\";\n"
                                     "lock();  // free function, not a member call\n"}});
  EXPECT_TRUE(of_rule(findings, "raw-lock-call").empty());
}

// ---------------------------------------------------------------------------
// raw-std-mutex
// ---------------------------------------------------------------------------

TEST(RawStdMutex, FlagsStdSyncPrimitivesInSrc) {
  const auto findings = lint_files({{"src/foo/bar.hpp",
                                     "std::mutex m_;\n"
                                     "std::shared_mutex rw_;\n"
                                     "std::condition_variable cv_;\n"
                                     "std::condition_variable_any cva_;\n"}});
  EXPECT_EQ(of_rule(findings, "raw-std-mutex").size(), 4u);
}

TEST(RawStdMutex, AllowsWrapperHeaderAndNonSrcTrees) {
  EXPECT_TRUE(of_rule(lint_files({{"src/support/thread_annotations.hpp", "std::mutex m_;\n"}}),
                      "raw-std-mutex")
                  .empty());
  EXPECT_TRUE(
      of_rule(lint_files({{"tools/x.cpp", "std::mutex m_;\n"}}), "raw-std-mutex").empty());
}

// ---------------------------------------------------------------------------
// nondeterministic-rng
// ---------------------------------------------------------------------------

TEST(NondeterministicRng, FlagsEntropySourcesInRuntimeAndReuse) {
  const auto findings = lint_files({{"src/runtime/sched.cpp", "std::random_device rd;\n"},
                                    {"src/reuse/cache.cpp", "int r = rand();\n"},
                                    {"src/runtime/fault.cpp", "srand(42);\n"}});
  EXPECT_EQ(of_rule(findings, "nondeterministic-rng").size(), 3u);
}

TEST(NondeterministicRng, IgnoresOtherPathsAndLongerIdentifiers) {
  const auto findings = lint_files({{"src/hpo/tpe.cpp", "int r = rand();\n"},
                                    {"src/runtime/x.cpp",
                                     "int operand(int x);\n"
                                     "int y = my_rand(3);\n"}});
  EXPECT_TRUE(of_rule(findings, "nondeterministic-rng").empty());
}

// ---------------------------------------------------------------------------
// raw-runtime-ref
// ---------------------------------------------------------------------------

TEST(RawRuntimeRef, FlagsRuntimeReferencesInHpoAndService) {
  const auto findings = lint_files(
      {{"src/hpo/driver.hpp", "HpoDriver(rt::Runtime& runtime, const Dataset& d);\n"},
       {"src/service/manager.cpp", "void drive(rt::Runtime & runtime) {}\n"},
       {"src/hpo/hyperband.cpp", "Outcome halve(Runtime& runtime, int n);\n"}});
  EXPECT_EQ(of_rule(findings, "raw-runtime-ref").size(), 3u);
}

TEST(RawRuntimeRef, AllowsSessionsValuesAndOtherLayers) {
  const auto findings = lint_files(
      // Sessions, by-value Runtime construction and RuntimeOptions are the
      // sanctioned spellings; other layers (runtime itself, ml) may still
      // take Runtime&.
      {{"src/hpo/optimize.cpp",
        "rt::RuntimeOptions runtime_options;\n"
        "rt::Runtime runtime(std::move(runtime_options));\n"
        "HpoDriver driver(runtime.main_study(), dataset, options);\n"},
       {"src/hpo/driver.hpp", "HpoDriver(rt::StudySession session, const Dataset& d);\n"},
       {"src/runtime/study_session.hpp", "StudySession(Runtime* runtime, StudyId id);\n"},
       {"src/ml/distributed.hpp", "Result distributed_train(rt::Runtime& runtime);\n"}});
  EXPECT_TRUE(of_rule(findings, "raw-runtime-ref").empty());
}

// ---------------------------------------------------------------------------
// callback-in-engine-mutation
// ---------------------------------------------------------------------------

TEST(CallbackInEngineMutation, FlagsTerminalListenerOutsideFlush) {
  const auto findings = lint_files({{"src/runtime/engine.cpp",
                                     "void Engine::complete_attempt(int id) {\n"
                                     "  on_terminal_(id);\n"
                                     "}\n"
                                     "void Engine::flush_notifications() {\n"
                                     "  on_terminal_(0);\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "callback-in-engine-mutation");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("complete_attempt"), std::string::npos);
}

TEST(CallbackInEngineMutation, AllowsNullChecksAndOtherFiles) {
  // `if (on_terminal_)` is a test, not an invocation; other files may hold
  // callbacks of the same name.
  const auto findings =
      lint_files({{"src/runtime/engine.cpp",
                   "void Engine::mark_terminal(int id) {\n"
                   "  if (on_terminal_) pending_.push_back(id);\n"
                   "}\n"},
                  {"src/runtime/runtime.cpp", "void f() { on_terminal_(3); }\n"}});
  EXPECT_TRUE(of_rule(findings, "callback-in-engine-mutation").empty());
}

// ---------------------------------------------------------------------------
// hot-path-std-function
// ---------------------------------------------------------------------------

TEST(HotPathStdFunction, FlagsAllocationInPerDispatchMethods) {
  const auto findings = lint_files(
      {{"src/runtime/engine.cpp",
        "std::vector<Dispatch> Engine::schedule(double now) {\n"
        "  std::function<void()> hook = [&] { retire(); };\n"
        "  hook();\n"
        "}\n"
        "Engine::Completion Engine::complete_attempt(std::uint64_t id) {\n"
        "  callbacks_.push_back(std::function<void(TaskId)>(notify));\n"
        "}\n"},
       {"src/runtime/thread_backend.cpp",
        "void ThreadBackend::run_job(void* ctx, StealPool::Job&& job) {\n"
        "  std::function<void()> deferred = std::move(job.work);\n"
        "}\n"},
       {"src/runtime/sim_backend.cpp",
        "void SimBackend::launch(const Dispatch& d, bool staged) {\n"
        "  std::function<double()> duration = [&] { return cost(d); };\n"
        "}\n"}});
  const auto hits = of_rule(findings, "hot-path-std-function");
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_NE(hits[0].message.find("Engine::schedule"), std::string::npos);
  EXPECT_NE(hits[1].message.find("Engine::complete_attempt"), std::string::npos);
  EXPECT_NE(hits[2].message.find("SimBackend::launch"), std::string::npos);
  EXPECT_NE(hits[3].message.find("ThreadBackend::run_job"), std::string::npos);
}

TEST(HotPathStdFunction, FlagsAllocationInTheCandidateSource) {
  // The scheduler pulls every candidate of a round through these methods.
  const auto findings = lint_files(
      {{"src/runtime/engine.cpp",
        "std::optional<TaskId> Engine::next_by_priority() {\n"
        "  std::function<bool(const RankedTask&, const RankedTask&)> better = std::less<>{};\n"
        "  return pick(better);\n"
        "}\n"
        "TaskId Engine::walk_fifo(RoundCursor& cursor) {\n"
        "  std::function<bool(TaskId)> held = [this](TaskId id) { return round_holds(id); };\n"
        "  return step(cursor, held);\n"
        "}\n"}});
  const auto hits = of_rule(findings, "hot-path-std-function");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("Engine::next_by_priority"), std::string::npos);
  EXPECT_NE(hits[1].message.find("Engine::walk_fifo"), std::string::npos);
}

TEST(HotPathStdFunction, FlagsAllocationInTheEventBuilderAndTerminalFunnel) {
  // Every traced transition goes through emit and every early end through
  // end_task, once per task or more.
  const auto findings = lint_files(
      {{"src/runtime/engine.cpp",
        "void Engine::emit(trace::EventKind kind, const TaskRecord* task) {\n"
        "  std::function<void(trace::Event&)> fill = [task](trace::Event& e) { name(e, task); };\n"
        "}\n"
        "void Engine::end_task(TaskRecord& record, TaskState state, std::string reason) {\n"
        "  std::function<void()> doom = [&] { cancel_dependents(record.id); };\n"
        "}\n"}});
  const auto hits = of_rule(findings, "hot-path-std-function");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("Engine::emit"), std::string::npos);
  EXPECT_NE(hits[1].message.find("Engine::end_task"), std::string::npos);
}

TEST(HotPathStdFunction, AllowsColdMethodsAndOtherFiles) {
  // Backend::drive takes a std::function once per wait (its own definition
  // line — the method tracker must attribute it to drive, not the previous
  // hot method); cold Engine methods and other files are out of scope.
  const auto findings = lint_files(
      {{"src/runtime/thread_backend.cpp",
        "void ThreadBackend::launch(const Dispatch& dispatch, bool) {\n"
        "  pool_.push(dispatch);\n"
        "}\n"},
       {"src/runtime/backend.cpp",
        "void Backend::launch(const Dispatch& d, bool staged) { start(d); }\n"
        "bool Backend::drive(const std::function<bool()>& finished, double deadline) {\n"
        "  std::function<bool()> again = finished;\n"
        "  while (!again()) collect(deadline, std::nullopt, batch);\n"
        "}\n"},
       {"src/runtime/engine.cpp",
        "void Engine::set_terminal_listener(std::function<void(TaskId)> listener) {\n"
        "  on_terminal_ = std::move(listener);\n"
        "}\n"},
       {"src/runtime/runtime.cpp",
        "void Runtime::submit() { std::function<void()> cb; }\n"}});
  EXPECT_TRUE(of_rule(findings, "hot-path-std-function").empty());
}

// ---------------------------------------------------------------------------
// full-graph-scan
// ---------------------------------------------------------------------------

TEST(FullGraphScan, FlagsWholeGraphLoopsInRuntimeServiceAndDaemon) {
  const auto findings = lint_files(
      {{"src/runtime/runtime.cpp",
        "StudyProgress Runtime::study_progress(StudyId study) const {\n"
        "  for (TaskId id = 0; id < graph_.size(); ++id) count(id);\n"
        "}\n"},
       {"src/runtime/engine.cpp",
        "std::size_t Engine::cancel_study(StudyId study, double now) {\n"
        "  const std::size_t total = graph_.size();\n"
        "  for (TaskId id = 0;\n"
        "       id < total;\n"
        "       ++id) cancel(id, now);\n"
        "}\n"},
       {"src/service/study_manager.cpp",
        "void StudyManager::sweep() {\n"
        "  for (rt::TaskId t = 0; t < runtime_.graph().size(); ++t) route(t);\n"
        "}\n"},
       {"src/daemon/server.cpp",
        "void Server::scan() { for (rt::TaskId t{0}; t < graph_->size(); t++) {} }\n"}});
  const auto hits = of_rule(findings, "full-graph-scan");
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].file, "src/daemon/server.cpp");
  EXPECT_EQ(hits[1].line, 3);  // the `for` line of the multi-line header
  EXPECT_NE(hits[1].message.find("cancel_study"), std::string::npos);
  EXPECT_NE(hits[2].message.find("study_progress"), std::string::npos);
}

TEST(FullGraphScan, AllowsDotExportDebugAssertsIndexWalksAndOtherLayers) {
  const auto findings = lint_files(
      {{"src/runtime/graph.cpp",
        "std::string TaskGraph::to_dot() const {\n"
        "  for (TaskId id = 0; id < graph_.size(); ++id) draw(id);\n"
        "}\n"},
       {"src/runtime/engine.cpp",
        "bool Engine::check_quiescent_invariant() const {\n"
        "  for (TaskId id = 0; id < graph_.size(); ++id) assert(terminal(id));\n"
        "}\n"
        "std::size_t Engine::cancel_study(StudyId study, double now) {\n"
        "  for (const TaskId id : study_tasks(study)) cancel(id, now);\n"
        "  for (std::size_t node = 0; node < resources_.node_count(); ++node) poke(node);\n"
        "  for (std::size_t i = 0; i < graph_.size(); ++i) count(i);\n"
        "  const std::size_t tasks = study_tasks(study).size();\n"
        "  for (TaskId id = 0; id < tasks; ++id) count(id);\n"
        "}\n"},
       {"src/trace/analysis.cpp",
        "void Analysis::build() { for (TaskId id = 0; id < graph_.size(); ++id) {} }\n"},
       {"src/runtime/runtime.cpp",
        "// for (TaskId id = 0; id < graph_.size(); ++id) was the old scan\n"}});
  EXPECT_TRUE(of_rule(findings, "full-graph-scan").empty());
}

// ---------------------------------------------------------------------------
// registry-lock-blocking-call
// ---------------------------------------------------------------------------

TEST(RegistryLockBlockingCall, FlagsManagerCallsUnderConnectionLock) {
  // The synthetic violation: draining the command queue AND dispatching
  // into the server inside the same MutexLock scope, so a slow engine step
  // holds the queue lock against the I/O thread.
  const auto findings = lint_files({{"src/daemon/socket_daemon.cpp",
                                     "void SocketDaemon::run() {\n"
                                     "  {\n"
                                     "    MutexLock lock(queue_mutex_);\n"
                                     "    for (Command& cmd : commands_) {\n"
                                     "      server_.handle(cmd.client, cmd.frame);\n"
                                     "    }\n"
                                     "    server_.step(0.05);\n"
                                     "    manager_->step_for(0.05);\n"
                                     "  }\n"
                                     "  server_.step(0.05);\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "registry-lock-blocking-call");
  ASSERT_EQ(hits.size(), 3u);  // handle + step under the lock; step_for too
  EXPECT_EQ(hits[0].line, 5);
  EXPECT_EQ(hits[1].line, 7);
  EXPECT_EQ(hits[2].line, 8);  // the post-unlock step() on line 10 is fine
}

TEST(RegistryLockBlockingCall, AllowsDataMovesCondVarWaitsAndOtherLayers) {
  const auto findings = lint_files(
      {{"src/daemon/socket_daemon.cpp",
        // The sanctioned shape: lock to move data (plus a CondVar wait,
        // which releases the mutex while blocked), unlock, then act.
        "void SocketDaemon::run() {\n"
        "  std::vector<Command> batch;\n"
        "  {\n"
        "    MutexLock lock(queue_mutex_);\n"
        "    if (commands_.empty()) queue_cv_.wait_for(queue_mutex_, kIdle);\n"
        "    while (!commands_.empty()) {\n"
        "      batch.push_back(std::move(commands_.front()));\n"
        "      commands_.pop_front();\n"
        "    }\n"
        "  }\n"
        "  for (Command& cmd : batch) server_.handle(cmd.client, cmd.frame);\n"
        "  if (server_.busy()) server_.step(0.05);\n"
        "}\n"},
       // Same text outside src/daemon/ is out of the rule's scope.
       {"src/service/study_manager.cpp",
        "void f() {\n  MutexLock lock(m_);\n  manager_.step_for(0.1);\n}\n"}});
  EXPECT_TRUE(of_rule(findings, "registry-lock-blocking-call").empty());
}

TEST(RegistryLockBlockingCall, FollowsCallsOneHopIntoHelpers) {
  // The helper-hidden violation: run() holds the queue lock and calls a
  // file-local helper whose body makes the blocking server call. A line
  // scanner cannot see this; the one-hop call graph can.
  const auto findings = lint_files({{"src/daemon/socket_daemon.cpp",
                                     "void SocketDaemon::pump_locked() {\n"
                                     "  server_.step(0.05);\n"
                                     "}\n"
                                     "void SocketDaemon::run() {\n"
                                     "  MutexLock lock(queue_mutex_);\n"
                                     "  pump_locked();\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "registry-lock-blocking-call");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6);  // the call site under the lock, not the helper body
  EXPECT_NE(hits[0].message.find("pump_locked"), std::string::npos);
  EXPECT_NE(hits[0].message.find(".step"), std::string::npos);
}

TEST(RegistryLockBlockingCall, HelperWithoutBlockingCallsAndUnlockedHelperAreFine) {
  const auto findings = lint_files({{"src/daemon/socket_daemon.cpp",
                                     // poke() only writes the self-pipe; and the
                                     // blocking helper is called after the scope ends.
                                     "void SocketDaemon::poke() {\n"
                                     "  write(wake_write_, buf, 1);\n"
                                     "}\n"
                                     "void SocketDaemon::pump() {\n"
                                     "  server_.step(0.05);\n"
                                     "}\n"
                                     "void SocketDaemon::run() {\n"
                                     "  {\n"
                                     "    MutexLock lock(out_mutex_);\n"
                                     "    poke();\n"
                                     "  }\n"
                                     "  pump();\n"
                                     "}\n"}});
  EXPECT_TRUE(of_rule(findings, "registry-lock-blocking-call").empty());
}

TEST(RegistryLockBlockingCall, FlagsJournalSyncAndFsyncUnderLock) {
  const auto findings = lint_files({{"src/daemon/server.cpp",
                                     "void Server::ack() {\n"
                                     "  MutexLock lock(registry_mutex_);\n"
                                     "  journal_.sync();\n"
                                     "  fsync(fd_);\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "registry-lock-blocking-call");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_EQ(hits[1].line, 4);
}

TEST(RegistryLockBlockingCall, FlagsNextCompletionUnderLock) {
  // next_completion drives the engine until a tracked task lands, as
  // blocking as wait_on, so it may not run under a queue lock either.
  const auto findings = lint_files({{"src/daemon/server.cpp",
                                     "void Server::drain() {\n"
                                     "  MutexLock lock(queue_mutex_);\n"
                                     "  session_.next_completion(deadline);\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "registry-lock-blocking-call");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
}

TEST(RegistryLockBlockingCall, JournalImplementationIsExempt) {
  // The journal's lock class IS the append/fsync barrier: holding its
  // mutex across fsync is the documented design, not a violation.
  const auto findings = lint_files({{"src/daemon/journal.cpp",
                                     "void StateJournal::sync() {\n"
                                     "  MutexLock lock(mutex_);\n"
                                     "  fsync(fd_);\n"
                                     "}\n"}});
  EXPECT_TRUE(of_rule(findings, "registry-lock-blocking-call").empty());
}

TEST(RegistryLockBlockingCall, GuardSurvivesNestedBlocks) {
  const auto findings = lint_files({{"src/daemon/server_loop.cpp",
                                     "void loop() {\n"
                                     "  MutexLock lock(conn_registry_mutex_);\n"
                                     "  if (ready) {\n"
                                     "    flush();\n"
                                     "  }\n"
                                     "  server_.run_all();\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "registry-lock-blocking-call");
  ASSERT_EQ(hits.size(), 1u);  // still under the lock after the nested block
  EXPECT_EQ(hits[0].line, 6);
}

// ---------------------------------------------------------------------------
// lock-rank-order
// ---------------------------------------------------------------------------

SourceFile rank_table() {
  return {"src/support/lockdep.hpp",
          "inline constexpr LockClass kOuter{\"daemon.queue\", 10};\n"
          "inline constexpr LockClass kInner{\"support.log_sink\", 120};\n"};
}

SourceFile rank_members() {
  // Members declared in the .hpp; the .cpp sibling shares them.
  return {"src/foo/thing.hpp",
          "class Thing {\n"
          "  mutable Mutex inner_{lockdep::kInner};\n"
          "  chpo::Mutex outer_{chpo::lockdep::kOuter};\n"
          "};\n"};
}

TEST(LockRankOrder, FlagsInvertedDirectNesting) {
  const auto findings = lint_files({rank_table(), rank_members(),
                                    {"src/foo/thing.cpp",
                                     "void Thing::bad() {\n"
                                     "  MutexLock a(inner_);\n"
                                     "  MutexLock b(outer_);\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "lock-rank-order");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_NE(hits[0].message.find("kOuter"), std::string::npos);
  EXPECT_NE(hits[0].message.find("kInner"), std::string::npos);
}

TEST(LockRankOrder, FollowsCallsOneHopIntoHelpers) {
  const auto findings = lint_files({rank_table(), rank_members(),
                                    {"src/foo/thing.cpp",
                                     "void Thing::helper() {\n"
                                     "  MutexLock g(outer_);\n"
                                     "}\n"
                                     "void Thing::bad() {\n"
                                     "  MutexLock a(inner_);\n"
                                     "  helper();\n"
                                     "}\n"}});
  const auto hits = of_rule(findings, "lock-rank-order");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6);  // the call site, attributed with both classes
  EXPECT_NE(hits[0].message.find("helper"), std::string::npos);
}

TEST(LockRankOrder, AllowsBlessedOrderScopedGuardsAndUnrankedLocks) {
  const auto findings = lint_files(
      {rank_table(), rank_members(),
       {"src/foo/thing.cpp",
        // Low-to-high nesting is the blessed order; a guard whose scope
        // closed no longer constrains; unranked members are exempt.
        "void Thing::fine() {\n"
        "  MutexLock a(outer_);\n"
        "  MutexLock b(inner_);\n"
        "}\n"
        "void Thing::sequential() {\n"
        "  {\n"
        "    MutexLock a(inner_);\n"
        "  }\n"
        "  MutexLock b(outer_);\n"
        "}\n"
        "void Thing::unranked() {\n"
        "  MutexLock a(inner_);\n"
        "  MutexLock b(scratch_mutex_);\n"
        "}\n"}});
  EXPECT_TRUE(of_rule(findings, "lock-rank-order").empty());
}

TEST(LockRankOrder, TreesWithoutARankTableAreOutOfScope) {
  const auto findings = lint_files({rank_members(),
                                    {"src/foo/thing.cpp",
                                     "void Thing::bad() {\n"
                                     "  MutexLock a(inner_);\n"
                                     "  MutexLock b(outer_);\n"
                                     "}\n"}});
  EXPECT_TRUE(of_rule(findings, "lock-rank-order").empty());
}

// ---------------------------------------------------------------------------
// trace-kind-coverage
// ---------------------------------------------------------------------------

SourceFile trace_hpp(const std::string& last, const std::string& count_member) {
  return {"src/trace/trace.hpp",
          "enum class EventKind : std::uint8_t {\n"
          "  TaskRun,\n"
          "  Transfer,\n"
          "  " + last + ",\n"
          "};\n"
          "inline constexpr int kEventKindCount = static_cast<int>(EventKind::" +
              count_member + ") + 1;\n"};
}

SourceFile trace_cpp(const std::vector<std::string>& cases) {
  std::string body = "const char* kind_name(EventKind kind) {\n  switch (kind) {\n";
  for (const std::string& c : cases) body += "    case EventKind::" + c + ": return \"x\";\n";
  body += "  }\n  return \"unknown\";\n}\n";
  return {"src/trace/trace.cpp", body};
}

SourceFile prv_cpp(bool uses_count) {
  return {"src/trace/prv_writer.cpp",
          uses_count ? std::string("for (int k = 0; k < kEventKindCount; ++k) emit(k);\n")
                     : std::string("emit_all_labels_by_hand();\n")};
}

TEST(TraceKindCoverage, CleanTreePasses) {
  const auto findings = lint_files(
      {trace_hpp("Sync", "Sync"), trace_cpp({"TaskRun", "Transfer", "Sync"}), prv_cpp(true)});
  EXPECT_TRUE(of_rule(findings, "trace-kind-coverage").empty());
}

TEST(TraceKindCoverage, FlagsMissingKindNameCase) {
  const auto findings =
      lint_files({trace_hpp("Sync", "Sync"), trace_cpp({"TaskRun", "Sync"}), prv_cpp(true)});
  const auto hits = of_rule(findings, "trace-kind-coverage");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("Transfer"), std::string::npos);
}

TEST(TraceKindCoverage, FlagsStaleKindCount) {
  // kEventKindCount still names Transfer after Sync was appended.
  const auto findings = lint_files(
      {trace_hpp("Sync", "Transfer"), trace_cpp({"TaskRun", "Transfer", "Sync"}), prv_cpp(true)});
  const auto hits = of_rule(findings, "trace-kind-coverage");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("last EventKind member"), std::string::npos);
}

TEST(TraceKindCoverage, FlagsHandRolledPcfLabels) {
  const auto findings = lint_files(
      {trace_hpp("Sync", "Sync"), trace_cpp({"TaskRun", "Transfer", "Sync"}), prv_cpp(false)});
  const auto hits = of_rule(findings, "trace-kind-coverage");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("kEventKindCount"), std::string::npos);
}

TEST(TraceKindCoverage, PrefixMemberNamesDoNotSatisfyEachOther) {
  // A case for TaskRunEnd must not count as covering TaskRun.
  const auto findings = lint_files({{"src/trace/trace.hpp",
                                     "enum class EventKind {\n"
                                     "  TaskRun,\n"
                                     "  TaskRunEnd,\n"
                                     "};\n"
                                     "inline constexpr int kEventKindCount = "
                                     "static_cast<int>(EventKind::TaskRunEnd) + 1;\n"},
                                    trace_cpp({"TaskRunEnd"})});
  const auto hits = of_rule(findings, "trace-kind-coverage");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("EventKind::TaskRun "), std::string::npos);
}

// ---------------------------------------------------------------------------
// lint_tree (directory walking)
// ---------------------------------------------------------------------------

TEST(LintTree, WalksSrcAndReportsRelativePaths) {
  const fs::path root = fs::path(testing::TempDir()) / "chpo_lint_tree_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "runtime");
  {
    std::ofstream out(root / "src" / "runtime" / "bad.cpp");
    out << "std::random_device rd;\n";
  }
  const auto findings = lint_tree(root.string());
  const auto hits = of_rule(findings, "nondeterministic-rng");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/runtime/bad.cpp");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_FALSE(format_findings(findings).empty());
  fs::remove_all(root);
}

TEST(LintTree, MissingSubtreesAreNotAnError) {
  const fs::path root = fs::path(testing::TempDir()) / "chpo_lint_empty_test";
  fs::remove_all(root);
  fs::create_directories(root);
  EXPECT_TRUE(lint_tree(root.string()).empty());
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// scan_tree (the CLI's view: I/O failures are errors, not empty results)
// ---------------------------------------------------------------------------

TEST(ScanTree, MissingRootIsAnError) {
  const TreeScan scan =
      scan_tree((fs::path(testing::TempDir()) / "chpo_lint_no_such_root").string());
  EXPECT_EQ(scan.files_scanned, 0u);
  ASSERT_FALSE(scan.errors.empty());
  EXPECT_NE(scan.errors.front().find("not a directory"), std::string::npos);
}

TEST(ScanTree, TreeWithNoSourcesIsAnError) {
  // An existing root with nothing to scan must not read as "clean": CI
  // pointing chpo_lint at the wrong directory has to fail loudly.
  const fs::path root = fs::path(testing::TempDir()) / "chpo_lint_no_sources";
  fs::remove_all(root);
  fs::create_directories(root / "src");
  const TreeScan scan = scan_tree(root.string());
  EXPECT_EQ(scan.files_scanned, 0u);
  ASSERT_FALSE(scan.errors.empty());
  EXPECT_NE(scan.errors.front().find("no C++ sources"), std::string::npos);
  fs::remove_all(root);
}

TEST(ScanTree, CountsScannedFilesAndReportsFindings) {
  const fs::path root = fs::path(testing::TempDir()) / "chpo_lint_scan_count";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "runtime");
  {
    std::ofstream out(root / "src" / "runtime" / "ok.cpp");
    out << "int x;\n";
  }
  {
    std::ofstream out(root / "src" / "runtime" / "bad.cpp");
    out << "std::random_device rd;\n";
  }
  const TreeScan scan = scan_tree(root.string());
  EXPECT_TRUE(scan.errors.empty());
  EXPECT_EQ(scan.files_scanned, 2u);
  EXPECT_EQ(of_rule(scan.findings, "nondeterministic-rng").size(), 1u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace chpo::lint
