// daemon_mixed: an in-process daemon::Server behind a daemon::SocketDaemon
// (fsync on, fresh state dir, default step_seconds, thread backend with
// tiny trials). Four closed-loop clients, one Unix-socket connection each,
// are driven from one thread. Each repeats a cycle: submit a small study,
// status, pause, resume, status, kill it or let it finish, then accounting
// or list.
//
// Why: acknowledgement latency is set by the per-request journal fsync and
// the coordinator's step slice. Fsynced writes share the coordinator with
// reads, so a change that helps one class and hurts the other shows.
// Studies accumulate, so unbounded daemon state shows in peak_rss_mb.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon/server.hpp"
#include "daemon/socket_daemon.hpp"
#include "jsonlite/wire.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace chpo;

constexpr unsigned kSlots = 4;
constexpr int kClients = 4;
constexpr std::size_t kTrainSamples = 200;
constexpr std::size_t kTestSamples = 60;
/// The coordinator's default engine slice (chpo_serve --step-ms 50).
constexpr double kStepSeconds = 0.05;
/// Latency samples per class (state-changing, read-only) a full run gathers
/// before it may stop, so each p99 has at least ten samples beyond it.
constexpr std::size_t kMinSamples = 1000;
constexpr std::size_t kTinySamples = 100;
/// Timed set-ups (about 5 ms each, mostly fsync) before and after the
/// socket session of an untraced run.
constexpr int kSetupsPerRound = 27;

enum class OpClass { Mutate, Read };

daemon::ServerOptions server_options(const std::string& state_dir) {
  daemon::ServerOptions options;
  cluster::NodeSpec node;
  node.name = "local";
  node.cpus = kSlots;
  options.manager.runtime.cluster = cluster::homogeneous(1, node);
  options.defaults.driver.epoch_divisor = 10;
  options.state_dir = state_dir;
  options.fsync = true;
  return options;
}

json::Value op(const char* name) {
  json::Value request;
  request.set("op", json::Value(name));
  return request;
}

bool reply_ok(const json::Value& reply) {
  const json::Value* ok = reply.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

/// The expected error of a lifecycle op: the study finished first.
bool finished_first(const json::Value& reply) {
  const json::Value* error = reply.find("error");
  return error != nullptr && error->is_string() &&
         error->as_string().find("finished") != std::string::npos;
}

bool ok_or_finished(const json::Value& reply) { return reply_ok(reply) || finished_first(reply); }

/// One client's seeded request program: a cycle of submit, status, pause,
/// resume, status, kill-or-let-finish, then accounting or list. Replies to
/// a lifecycle op on a study that already finished are expected errors.
class ClientProgram {
 public:
  ClientProgram(int index, std::uint64_t seed)
      : index_(index), tenant_("tenant-" + std::to_string(index % 2)), rng_(seed) {}

  /// The next request and its latency class.
  std::pair<json::Value, OpClass> next() {
    json::Value request;
    request.set("id", json::Value(static_cast<std::int64_t>(index_) * 1000000 +
                                    static_cast<std::int64_t>(sent_++)));
    switch (step_) {
      case 0: {
        kill_ = rng_.next_bool(0.5);
        read_op_ = rng_.next_bool(0.5) ? "accounting" : "list";
        request.set("op", json::Value("submit"));
        request.set("tenant", json::Value(tenant_));
        request.set("spec", study_spec());
        return {request, OpClass::Mutate};
      }
      case 1:
      case 4:
        request.set("op", json::Value("status"));
        request.set("study", json::Value(static_cast<std::int64_t>(study_)));
        return {request, OpClass::Read};
      case 2:
      case 3:
      case 5:
        request.set("op", json::Value(step_ == 2 ? "pause" : step_ == 3 ? "resume" : "kill"));
        request.set("study", json::Value(static_cast<std::int64_t>(study_)));
        return {request, OpClass::Mutate};
      default:
        request.set("op", json::Value(read_op_));
        return {request, OpClass::Read};
    }
  }

  /// Consume the reply to the request next() returned; false when the
  /// reply is neither ok nor an expected error.
  bool on_reply(const json::Value& reply) {
    bool good = reply_ok(reply);
    if (good && step_ == 0) {
      const json::Value* study = reply.find("study");
      good = study != nullptr && study->is_int();
      if (good) study_ = static_cast<rt::StudyId>(study->as_int());
    }
    if (!good && (step_ == 2 || step_ == 3 || step_ == 5) && finished_first(reply)) {
      good = true;
      ++expected_errors_;
    }
    step_ = step_ == 4 && !kill_ ? 6 : (step_ + 1) % 7;
    return good;
  }

  std::size_t expected_errors() const { return expected_errors_; }

 private:
  json::Value study_spec() {
    json::Value space;
    space.set("optimizer", json::Value(json::Array{json::Value("Adam"), json::Value("SGD")}));
    space.set("num_epochs", json::Value(json::Array{json::Value(10)}));
    space.set("batch_size", json::Value(json::Array{json::Value(32), json::Value(64)}));
    json::Value spec;
    spec.set("algorithm", json::Value(rng_.next_bool(0.5) ? "grid" : "random"));
    spec.set("space", space);
    spec.set("budget", json::Value(static_cast<std::int64_t>(rng_.next_int(2, 3))));
    spec.set("epoch_cap", json::Value(1));
    spec.set("seed", json::Value(static_cast<std::int64_t>(rng_.next_int(1, 1000000))));
    return spec;
  }

  int index_;
  std::string tenant_;
  Rng rng_;
  int step_ = 0;
  std::uint64_t sent_ = 0;
  rt::StudyId study_ = rt::kMainStudy;
  bool kill_ = false;
  std::string read_op_ = "list";
  std::size_t expected_errors_ = 0;
};

/// A long study submitted before the clients start and killed after they
/// stop. It keeps two slots busy with long trials for the whole session, so
/// requests always compete with engine work, and its rare completions leave
/// the coordinator's slice timing to the clients' own tiny trials (shorter
/// background trials made the p99 jump between runs). It also keeps a task
/// running at every instant:
/// Runtime::wait_any_for on the thread backend throws instead of timing out
/// when a paused study's trials are all still queued and nothing else runs,
/// and the pause/resume in every cycle would otherwise hit that.
json::Value background_submit() {
  json::Value space;
  space.set("optimizer", json::Value(json::Array{json::Value("Adam")}));
  space.set("num_epochs", json::Value(json::Array{json::Value(300)}));
  space.set("batch_size", json::Value(json::Array{json::Value(32)}));
  json::Value spec;
  spec.set("name", json::Value("background"));
  // A sequential search keeps exactly two trials in flight, however long
  // the session runs, without queueing its whole budget up front.
  spec.set("algorithm", json::Value("tpe"));
  spec.set("parallel_suggestions", json::Value(2));
  spec.set("space", space);
  spec.set("budget", json::Value(1000000));
  spec.set("epoch_divisor", json::Value(1));
  json::Value request;
  request.set("op", json::Value("submit"));
  request.set("tenant", json::Value("background"));
  request.set("spec", spec);
  return request;
}

/// Kill requests for every study a `list` reply shows as not yet finished,
/// newest first, so the background study (the oldest) keeps a task running
/// until every paused study is gone.
std::vector<json::Value> kill_live(const json::Value& list_reply) {
  std::vector<json::Value> kills;
  const json::Value* rows = list_reply.find("studies");
  if (rows == nullptr || !rows->is_array()) return kills;
  for (auto it = rows->as_array().rbegin(); it != rows->as_array().rend(); ++it) {
    const json::Value& row = *it;
    const json::Value* state = row.find("state");
    if (state == nullptr || !state->is_string() || state->as_string() == "finished" ||
        state->as_string() == "killed")
      continue;
    json::Value kill;
    kill.set("op", json::Value("kill"));
    kill.set("study", *row.find("study"));
    kills.push_back(std::move(kill));
  }
  return kills;
}

std::vector<ClientProgram> make_clients(std::uint64_t seed) {
  std::vector<ClientProgram> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back(c, seed * 1000003ULL + static_cast<std::uint64_t>(c) * 7919ULL + 1);
  return clients;
}

/// Latencies of one session, by class, plus reply bookkeeping.
struct Session {
  std::vector<double> mutate_ms;
  std::vector<double> read_ms;
  std::size_t requests = 0;  ///< measured (sent after the warm-up)
  std::size_t answered = 0;  ///< every reply, warm-up included
  std::size_t bad_replies = 0;
  std::size_t expected_errors = 0;
  double seconds = 0.0;  ///< first measured send -> last reply
  double served_seconds = 0.0;  ///< first send, warm-up included -> last reply
  json::Value final_stats;
  bool background_ok = false;
  bool wind_down_ok = true;  ///< kills of the studies still live at the end
  bool enough() const { return mutate_ms.size() >= min && read_ms.size() >= min; }
  std::size_t min = kMinSamples;
};

/// Blocking line-oriented connection to the daemon socket.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const double give_up = now_s() + 10.0;
    while (true) {  // the daemon thread binds asynchronously
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return;
      ::close(fd_);
      fd_ = -1;
      if (now_s() > give_up) throw std::runtime_error("cannot connect to " + path);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void send(const json::Value& message) {
    const std::string bytes = json::encode_frame(message);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to daemon failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available; false on EOF or error.
  bool pump() {
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    return true;
  }

  /// Next reply line (watch events are skipped), if one is buffered.
  std::optional<json::Value> reply() {
    while (std::optional<json::Frame> frame = decoder_.next()) {
      if (!frame->ok()) throw std::runtime_error("undecodable reply: " + frame->error);
      if (!frame->value.contains("event")) return std::move(frame->value);
    }
    return std::nullopt;
  }

  /// Send and block for the reply.
  json::Value call(const json::Value& request) {
    send(request);
    while (true) {
      if (std::optional<json::Value> r = reply()) return *r;
      if (!pump()) throw std::runtime_error("daemon closed the connection");
    }
  }

 private:
  int fd_ = -1;
  json::LineDecoder decoder_;
};

/// The daemon under test: Server + SocketDaemon, run() on its own thread.
/// The destructor asks for a shutdown if the session did not, then joins,
/// so no path leaves the coordinator thread running.
class LiveDaemon {
 public:
  LiveDaemon(daemon::Server& server, std::string socket_path)
      : front_end_({.socket_path = std::move(socket_path), .step_seconds = kStepSeconds}, server),
        thread_([this] { exit_code_ = front_end_.run(); }) {}
  ~LiveDaemon() {
    if (!shut_down_) {
      try {
        shutdown();
      } catch (const std::exception&) {
        // Nothing reachable to shut down; run() has already returned.
      }
    }
    if (thread_.joinable()) thread_.join();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  const std::string& socket_path() const { return front_end_.socket_path(); }

  /// Drain-and-stop over the protocol; returns the shutdown reply.
  json::Value shutdown() {
    shut_down_ = true;
    Connection control(socket_path());
    json::Value reply = control.call(op("shutdown"));
    thread_.join();
    return reply;
  }
  int exit_code() const { return exit_code_; }

 private:
  daemon::SocketDaemon front_end_;
  int exit_code_ = -1;
  bool shut_down_ = false;
  std::thread thread_;
};

/// Closed-loop load from one thread: each client has one request in
/// flight; its next request goes out when the reply arrives. Stops sending
/// once `seconds` have passed and both classes have their samples.
Session drive_socket(const std::string& socket_path, std::uint64_t seed, double seconds,
                     std::size_t min_samples, Spans& spans) {
  std::vector<ClientProgram> programs = make_clients(seed);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kClients; ++c) conns.push_back(std::make_unique<Connection>(socket_path));

  Session session;
  session.min = min_samples;
  session.background_ok = reply_ok(conns[0]->call(background_submit()));
  std::vector<double> sent_at(kClients, 0.0);
  std::vector<OpClass> op_class(kClients, OpClass::Read);
  std::vector<bool> waiting(kClients, false);
  // The first tenth of the session is warm-up: the background study's
  // first trials and the worker pool's first tasks start there, and the
  // requests it overlaps are answered and checked but not measured.
  const double begin = now_s();
  const double start = begin + 0.1 * seconds;
  const double deadline = start + seconds;
  const double hard_stop = start + 3.0 * seconds;
  const auto send_next = [&](int c) {
    auto [request, cls] = programs[c].next();
    op_class[c] = cls;
    sent_at[c] = now_s();
    conns[c]->send(request);
    waiting[c] = true;
  };
  for (int c = 0; c < kClients; ++c) send_next(c);

  int in_flight = kClients;
  double last_reply = start;
  while (in_flight > 0) {
    std::vector<pollfd> fds;
    for (int c = 0; c < kClients; ++c) fds.push_back(pollfd{conns[c]->fd(), POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), 30000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("daemon stopped answering");
    for (int c = 0; c < kClients; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[c]->pump()) throw std::runtime_error("daemon closed a client connection");
      while (std::optional<json::Value> reply = conns[c]->reply()) {
        if (!waiting[c]) throw std::runtime_error("reply without a request");
        const double t_reply = now_s();
        spans.record(op_class[c] == OpClass::Mutate ? "daemon.ack" : "daemon.read", sent_at[c],
                     t_reply);
        if (sent_at[c] >= start) {
          last_reply = t_reply;
          const double ms = (t_reply - sent_at[c]) * 1e3;
          (op_class[c] == OpClass::Mutate ? session.mutate_ms : session.read_ms).push_back(ms);
          ++session.requests;
        }
        ++session.answered;
        if (!programs[c].on_reply(*reply)) {
          ++session.bad_replies;
          std::fprintf(stderr, "perfbench: unexpected daemon reply: %s\n",
                       json::serialize(*reply).c_str());
        }
        waiting[c] = false;
        const double t = now_s();
        if ((t < deadline || !session.enough()) && t < hard_stop) {
          send_next(c);
        } else {
          --in_flight;
        }
      }
    }
  }
  session.seconds = last_reply - start;
  session.served_seconds = last_reply - begin;
  for (const ClientProgram& p : programs) session.expected_errors += p.expected_errors();
  session.final_stats = conns[0]->call(op("stats"));
  for (const json::Value& kill : kill_live(conns[0]->call(op("list"))))
    session.wind_down_ok = ok_or_finished(conns[0]->call(kill)) && session.wind_down_ok;
  return session;
}

std::int64_t int_of(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_int() ? f->as_int() : -1;
}

/// Output checks shared by every session: replies, leaks, and the ledger
/// agreeing with the per-study trial counts (read in-process after the
/// daemon thread has stopped).
void check_session(const Session& session, const daemon::Server& server, Report& report) {
  report.attempted += session.answered;
  report.failed += session.bad_replies;
  report.check("every_reply_ok_or_expected", session.bad_replies == 0);
  report.check("background_study_submitted", session.background_ok);
  report.check("live_studies_killed_at_end", session.wind_down_ok);
  report.check("stats_leaked_completions_zero", int_of(session.final_stats, "leaked_completions") == 0);
  report.check("stats_lineage_violations_zero", int_of(session.final_stats, "lineage_violations") == 0);
  std::size_t study_trials = 0;
  for (const rt::StudyId id : server.manager().studies())
    study_trials += server.manager().status(id).trials_done;
  std::size_t ledger_trials = 0;
  for (const std::string& tenant : server.ledger().tenants())
    ledger_trials += server.ledger().stats(tenant).trials_completed;
  report.check("ledger_trials_match_studies", ledger_trials == study_trials);
  report.check("manager_leaked_completions_zero", server.manager().leaked_completions() == 0);
}

struct SocketRun {
  Session session;
  double bytes_written = 0.0;
  std::size_t live_studies = 0;
  std::size_t trace_events = 0;
  std::size_t trials_done = 0;
  TraceFigures figures;
};

SocketRun socket_run(const ml::Dataset& dataset, const std::string& dir, std::uint64_t seed,
                     double seconds, std::size_t min_samples, Spans& spans, Report& report) {
  fresh_dir(dir);
  daemon::Server server(server_options(dir), dataset);
  SocketRun run;
  const double written_before = bytes_written();
  {
    LiveDaemon live(server, dir + "/daemon.sock");
    run.session = drive_socket(live.socket_path(), seed, seconds, min_samples, spans);
    const json::Value reply = live.shutdown();
    report.check("shutdown_drained", int_of(reply, "persisted_studies") >= 0);
    report.check("daemon_exit_clean", live.exit_code() == 0);
  }
  run.bytes_written = bytes_written() - written_before;
  report.check("min_samples_per_class", run.session.enough());
  check_session(run.session, server, report);
  run.live_studies = server.manager().studies().size();
  run.trace_events = server.manager().trace().size();
  if (spans.enabled()) run.figures = trace_figures(server.manager().trace().events(), kSlots);
  run.trials_done = static_cast<std::size_t>(std::max<std::int64_t>(0, int_of(run.session.final_stats, "trials_done")));
  return run;
}

/// The same request programs replayed through in-process Server::handle /
/// Server::step, in the coordinator's order: a round of one request per
/// client, then one engine slice while the server is busy.
void replay_in_process(const ml::Dataset& dataset, const std::string& dir, std::uint64_t seed,
                       double seconds, std::size_t min_samples, Spans& spans, Report& report) {
  fresh_dir(dir);
  daemon::Server server(server_options(dir), dataset);
  std::vector<ClientProgram> programs = make_clients(seed);
  Session session;
  const auto call = [&](const json::Value& request) {
    return server.handle(1, request).front().message;
  };
  session.background_ok = reply_ok(call(background_submit()));
  std::size_t mutates = 0;
  std::size_t reads = 0;
  const double start = now_s();
  while ((now_s() < start + seconds || mutates < min_samples || reads < min_samples) &&
         now_s() < start + 3.0 * seconds) {
    for (int c = 0; c < kClients; ++c) {
      auto [request, cls] = programs[c].next();
      std::vector<daemon::Outbound> out;
      {
        Spans::Scope span(spans, cls == OpClass::Mutate ? "daemon.handle_mutate" : "daemon.handle_read");
        out = server.handle(static_cast<daemon::ClientId>(c + 1), request);
      }
      ++session.requests;
      ++session.answered;
      bool answered = false;
      for (const daemon::Outbound& o : out)
        if (!answered && o.message.contains("ok")) {
          answered = true;
          if (!programs[c].on_reply(o.message)) ++session.bad_replies;
        }
      if (!answered) ++session.bad_replies;
      ++(cls == OpClass::Mutate ? mutates : reads);
    }
    if (server.busy()) {
      Spans::Scope span(spans, "daemon.step");
      server.step(kStepSeconds);
    }
  }
  session.final_stats = call(op("stats"));
  for (const json::Value& kill : kill_live(call(op("list"))))
    session.wind_down_ok = ok_or_finished(call(kill)) && session.wind_down_ok;
  server.handle(1, op("shutdown"));
  while (!server.done() && now_s() < start + 4.0 * seconds) server.step(kStepSeconds);
  report.check("replay_shutdown_done", server.done());
  report.check("replay_min_samples_per_class", mutates >= min_samples && reads >= min_samples);
  check_session(session, server, report);
  report.samples.set("replay_requests", json::Value(static_cast<std::int64_t>(session.requests)));
}

}  // namespace

void run_daemon_mixed(const Args& args, Report& report) {
  const std::size_t min_samples = args.tiny ? kTinySamples : kMinSamples;
  report.fail_base = "requests";
  report.shape.set("backend", json::Value("thread"));
  report.shape.set("nodes", json::Value(1));
  report.shape.set("slots", json::Value(static_cast<std::int64_t>(kSlots)));
  report.shape.set("clients", json::Value(kClients));
  report.shape.set("connections", json::Value(kClients));
  report.shape.set("fsync", json::Value(true));
  report.shape.set("step_seconds", json::Value(kStepSeconds));
  report.shape.set("min_samples_per_class", json::Value(static_cast<std::int64_t>(min_samples)));

  // Set-up: dataset generation plus Server construction and recovery over
  // a fresh state dir (which writes and fsyncs the first manifest).
  ml::Dataset dataset;
  int setups = 0;
  SetupTimer setup([&] {
    const std::string dir = "daemon/setup" + std::to_string(setups++);
    fresh_dir(dir);
    dataset = ml::make_mnist_like(kTrainSamples, kTestSamples, args.seed * 104729 + 5);
    return std::make_unique<daemon::Server>(server_options(dir), dataset);
  });
  setup.round(kSetupsPerRound);

  Spans no_spans(false);
  if (!args.trace) {
    const SocketRun run = socket_run(dataset, "daemon/live", args.seed, args.seconds, min_samples,
                                     no_spans, report);
    setup.round(kSetupsPerRound);
    const Session& s = run.session;
    std::vector<double> all = s.mutate_ms;
    all.insert(all.end(), s.read_ms.begin(), s.read_ms.end());
    report.metric("ops_per_s", static_cast<double>(s.requests) / s.seconds, "1/s");
    // The final stats count every trial since the session began.
    report.metric("tasks_per_s", static_cast<double>(run.trials_done) / s.served_seconds, "1/s");
    report.metric("op_p50_ms", percentile(all, 50), "ms");
    report.metric("op_p99_ms", percentile(all, 99), "ms");
    report.metric("setup_s", setup.median_s(), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.samples.set("requests", json::Value(static_cast<std::int64_t>(s.requests)));
    report.samples.set("mutate", json::Value(static_cast<std::int64_t>(s.mutate_ms.size())));
    report.samples.set("read", json::Value(static_cast<std::int64_t>(s.read_ms.size())));
    report.samples.set("setups", json::Value(setup.calls()));
    for (const double q : {50.0, 90.0, 95.0, 99.0, 100.0})
      report.extra.set("op_p" + std::to_string(static_cast<int>(q)) + "_ms", json::Value(percentile(all, q)));
    report.extra.set("ack_p50_ms", json::Value(percentile(s.mutate_ms, 50)));
    report.extra.set("ack_p99_ms", json::Value(percentile(s.mutate_ms, 99)));
    report.extra.set("read_p99_ms", json::Value(percentile(s.read_ms, 99)));
    report.extra.set("expected_errors", json::Value(static_cast<std::int64_t>(s.expected_errors)));
    report.extra.set("served_trials", json::Value(static_cast<std::int64_t>(run.trials_done)));
    report.extra.set("studies", json::Value(static_cast<std::int64_t>(run.live_studies)));
    return;
  }

  // Traced run: an untraced and a traced socket session (the span
  // overhead), then the in-process replay that splits request time into
  // Server::handle and Server::step.
  const double third = args.seconds / 3.0;
  const SocketRun plain = socket_run(dataset, "daemon/plain", args.seed, third, min_samples,
                                     no_spans, report);
  Spans spans(true);
  const SocketRun traced = socket_run(dataset, "daemon/traced", args.seed, third, min_samples,
                                      spans, report);
  replay_in_process(dataset, "daemon/replay", args.seed, third, min_samples, spans, report);

  const Session& s = traced.session;
  const double ack_p50 = percentile(s.mutate_ms, 50);
  const double handle_mutate_p50 = percentile(spans.durations_ms("daemon.handle_mutate"), 50);
  report.metric("daemon.ack_p50_ms", ack_p50, "ms");
  report.metric("daemon.ack_p99_ms", percentile(s.mutate_ms, 99), "ms");
  report.metric("daemon.read_p99_ms", percentile(s.read_ms, 99), "ms");
  report.metric("daemon.handle_mutate_p50_ms", handle_mutate_p50, "ms");
  report.metric("daemon.handle_mutate_p99_ms",
                percentile(spans.durations_ms("daemon.handle_mutate"), 99), "ms");
  report.metric("daemon.handle_read_p99_ms",
                percentile(spans.durations_ms("daemon.handle_read"), 99), "ms");
  report.metric("daemon.step_p99_ms", percentile(spans.durations_ms("daemon.step"), 99), "ms");
  report.metric("daemon.frontend_wait_ms", ack_p50 - handle_mutate_p50, "ms");
  report.metric("daemon.bytes_written", traced.bytes_written, "B");
  report.metric("daemon.live_studies", static_cast<double>(traced.live_studies), "count");
  report.metric("daemon.trace_events", static_cast<double>(traced.trace_events), "count");
  const TraceFigures& f = traced.figures;
  report.metric("runtime.schedule_to_run_p99_us", f.schedule_to_run_p99_us, "us");
  report.metric("trace.events_per_task",
                f.tasks ? static_cast<double>(f.events) / static_cast<double>(f.tasks) : 0.0,
                "events/task");
  report.metric("ml.body_s", f.body_s, "s");
  report.metric("ml.experiment_mean_ms", f.experiment_mean_ms, "ms");
  report.metric("hpo.slot_util", f.body_s / (s.served_seconds * kSlots), "ratio");
  report.metric("hpo.tail_s", f.tail_s, "s");
  report.metric("bench.span_overhead_pct",
                100.0 * ((static_cast<double>(plain.session.requests) / plain.session.seconds) /
                             (static_cast<double>(s.requests) / s.seconds) -
                         1.0),
                "%");
  report.samples.set("mutate", json::Value(static_cast<std::int64_t>(s.mutate_ms.size())));
  report.samples.set("read", json::Value(static_cast<std::int64_t>(s.read_ms.size())));
  report.samples.set("handle_mutate",
                     json::Value(static_cast<std::int64_t>(spans.durations_ms("daemon.handle_mutate").size())));
  report.samples.set("step", json::Value(static_cast<std::int64_t>(spans.durations_ms("daemon.step").size())));
  report.extra.set("spans", spans.summary());
}

}  // namespace perfbench
