// Server — the daemon's protocol brain, socket-free.
//
// One Server owns one StudyManager (and through it the Runtime) plus the
// per-tenant ledger, and turns parsed request objects into reply/event
// objects. It never touches a file descriptor: the socket front-end
// (socket_daemon.hpp) feeds it decoded frames and ships back the Outbound
// messages it returns — which is exactly what makes the full protocol
// (including shutdown-drain, watch streaming and crash recovery)
// unit-testable without a socket in sight.
//
// Threading: every method must be called from one thread (the daemon's
// coordinator), because the engine underneath is single-thread confined.
// step() is the cooperation point — it drives the manager for a bounded
// slice so trial completions and admissions interleave with request
// handling instead of blocking it.
//
// Dynamic admission: submit() only queues into the StudyManager; actual
// pump start happens inside the next step()'s admission pass, so a submit
// landing while the engine is saturated never stalls the running pumps.
//
// Crash safety (the daemon process is a fault domain, like worker nodes):
// every state-changing request is appended to a write-ahead journal
// (journal.hpp) and fsynced before its reply leaves handle()/step() — an
// acknowledged submit/kill/pause/resume/quota survives kill -9 at any
// instant. Every `journal_compact_every` records the journal is folded
// into the manifest snapshot (atomic tmp+rename+fsync) and truncated.
// Startup is a two-phase recovery: load the snapshot, replay the journal
// on top (stopping at a torn tail, detected by per-record CRCs), resubmit
// the surviving studies (their per-study checkpoints replay completed
// trials) and reconcile the TenantLedger so every trial and engine-second
// is counted exactly once across the restart. A submit whose request "id"
// is a string is idempotent: the id seeds a dedup window (persisted via
// journal + snapshot), so a client retrying a reply lost to a crash gets
// the original study back instead of a duplicate.
//
// Shutdown ("checkpoint-everything-then-drain"): admission is gated,
// every Running study is paused (refills stop; in-flight attempts finish
// and are checkpointed per-trial as always), and once nothing is in
// flight the final snapshot is written and the journal truncated. The
// reply to the shutdown request is only sent then — a client that got
// the reply knows the manifest is on disk. A restarting Server resubmits
// the manifest entries; their per-study checkpoint files replay completed
// trials, so work resumes where the drain cut it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "daemon/journal.hpp"
#include "daemon/protocol.hpp"
#include "jsonlite/json.hpp"
#include "ml/dataset.hpp"
#include "service/study_manager.hpp"
#include "service/study_spec.hpp"
#include "service/tenant_ledger.hpp"

namespace chpo::daemon {

/// Connection identity as the front-end sees it (fd, test index, ...).
using ClientId = std::uint64_t;

/// One message to deliver to one client.
struct Outbound {
  ClientId client = 0;
  json::Value message;
};

struct ServerOptions {
  /// The runtime trace is off by default: the daemon never reads it, and it
  /// grows with every study served. In-process callers that want it set
  /// `manager.runtime.tracing` and read `Server::manager().trace()`.
  service::ManagerOptions manager = [] {
    service::ManagerOptions untraced;
    untraced.runtime.tracing = false;
    return untraced;
  }();
  /// Defaults a submitted spec starts from (host-configured driver knobs).
  service::StudySpecDefaults defaults;
  /// Per-study checkpoint files, the write-ahead journal and the manifest
  /// snapshot live here; empty = stateless (no journal, no recovery).
  std::string state_dir;
  /// Quota seeded for tenants that never got an explicit `quota` request.
  service::TenantQuota default_quota;
  /// fsync the journal before acknowledgements (--fsync / --no-fsync).
  bool fsync = true;
  /// Journal records between snapshot compactions (0 = only at shutdown).
  std::size_t journal_compact_every = 256;
};

class Server {
 public:
  /// Runs crash recovery against <state_dir> if present: snapshot, then
  /// journal replay, then resubmission of surviving studies (their
  /// checkpoints replay completed trials). `dataset` must outlive the
  /// server.
  Server(ServerOptions options, const ml::Dataset& dataset);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Dispatch one request; returns the reply plus any events it caused
  /// (e.g. a state event to watchers when the request was `pause`). The
  /// journal is synced before returning, so a delivered reply implies a
  /// durable operation. Shutdown requests get their reply later, from
  /// step(), once drained.
  std::vector<Outbound> handle(ClientId client, const json::Value& request);

  /// A line that failed to decode: an error reply, connection kept.
  std::vector<Outbound> handle_line_error(ClientId client, const std::string& error);

  /// The front-end lost this client: drop its watch subscriptions (and
  /// its pending shutdown reply, if it was the requester).
  void disconnect(ClientId client);

  /// Drive the manager for at most `seconds`; returns watch events (and
  /// the shutdown reply once the drain completes).
  std::vector<Outbound> step(double seconds);

  /// True while step() has (or may soon have) work: studies queued,
  /// running, in flight, closed studies awaiting retirement, or a drain in
  /// progress. O(live studies).
  bool busy() const;

  bool draining() const { return draining_; }
  /// Shutdown finished: manifest written, reply emitted. The front-end
  /// exits its loop when this is true and its outboxes are empty.
  bool done() const { return done_; }

  /// Startup found a corrupt manifest (quarantined to manifest.json.bad)
  /// — state was recovered degraded, not silently reset. Also surfaced
  /// over the `stats` op.
  bool recovered_degraded() const { return recovered_degraded_; }

  const service::StudyManager& manager() const { return manager_; }
  const service::TenantLedger& ledger() const { return ledger_; }

 private:
  struct StudyInfo {
    std::string tenant;
    std::string name;
    std::size_t trials_counted = 0;  ///< metered live via trial events
    /// Attempt/replay meters applied live alongside trials_counted — the
    /// exactly-once close subtracts these from the study's totals.
    service::TrialDelta counted_delta;
    bool closed_accounted = false;  ///< close already applied
    std::string dedup_key;          ///< idempotent-submit key ("" = none)
    /// Client-visible pause intent (submit paused / pause / resume ops).
    /// Tracked here because the manager reports pause-on-queued as Queued,
    /// and the drain's internal pauses must not look client-requested.
    bool paused_wanted = false;
  };

  /// One idempotent-submit window entry: what a retried submit gets back.
  struct DedupEntry {
    bool live = false;  ///< study currently known to the manager
    rt::StudyId study = rt::kMainStudy;
    std::string name;
    std::string last_state;  ///< state name once no longer live
  };

  json::Value op_submit(const json::Value& request);
  json::Value op_list(const json::Value& request) const;
  json::Value op_status(const json::Value& request) const;
  json::Value op_lifecycle(const json::Value& request, const std::string& op);
  /// Subscribes and appends an immediate state snapshot for the watched
  /// studies to `snapshots` (so watch-after-finish still terminates).
  json::Value op_watch(ClientId client, const json::Value& request,
                       std::vector<Outbound>& snapshots);
  json::Value op_unwatch(ClientId client, const json::Value& request);
  json::Value op_accounting(const json::Value& request) const;
  json::Value op_stats(const json::Value& request) const;
  json::Value op_quota(const json::Value& request);

  void on_manager_event(const service::StudyEvent& event);
  /// Convert buffered manager events into watcher Outbounds and settle
  /// closed studies' accounting (deferred: taps must not re-enter the
  /// manager, but outcome() is safe here).
  void drain_events(std::vector<Outbound>& out);
  void fan_out(rt::StudyId study, const json::Value& event, std::vector<Outbound>& out) const;
  rt::StudyId submit_spec(const std::string& tenant, json::Value spec_json);
  json::Value status_json(rt::StudyId id) const;

  // --- write-ahead journal + snapshot ---------------------------------
  /// Append one record (tagged with the current epoch) to the journal.
  void journal_event(json::Value record);
  /// Snapshot (studies + ledger + dedup + ordinal + epoch) atomically to
  /// manifest.json. `include_paused` preserves client-visible pause state
  /// (compaction); the graceful-shutdown snapshot drops it, because pause
  /// is connection-era policy, not study identity.
  void write_snapshot(bool include_paused) const;
  /// Snapshot + truncate the journal + bump the epoch.
  void compact(bool include_paused);
  void maybe_compact();
  /// Two-phase recovery: snapshot, then journal replay, then candidate
  /// resubmission, then an immediate compaction (so the on-disk state
  /// references this lifetime's study ids).
  void recover();
  void remember_dedup(const std::string& key, DedupEntry entry);
  /// Retire every study whose close record an earlier handle()/step()
  /// journaled and synced (see StudyManager::retire).
  void retire_closed();

  /// Manager event copied out of the tap (the Trial pointer dies with the
  /// tap call, so the fields a wire event needs are flattened here).
  struct PendingEvent {
    service::StudyEvent::Kind kind = service::StudyEvent::Kind::StateChanged;
    rt::StudyId study = rt::kMainStudy;
    service::StudyState state = service::StudyState::Queued;
    std::size_t trials_done = 0;
    int trial_index = -1;
    double accuracy = 0.0;
    bool trial_failed = false;
  };

  ServerOptions options_;
  const ml::Dataset& dataset_;
  service::StudyManager manager_;
  service::TenantLedger ledger_;
  StateJournal journal_;
  std::map<rt::StudyId, StudyInfo> studies_;
  /// Spec as admitted (checkpoint/name injected) of every study not yet
  /// retired: what snapshots persist for resubmission.
  std::map<rt::StudyId, json::Value> specs_;
  /// Closed studies whose close record is journaled; the next step()
  /// retires them, after the sync that made the record durable.
  std::vector<rt::StudyId> to_retire_;
  std::map<rt::StudyId, std::set<ClientId>> watchers_;
  std::set<ClientId> watch_all_;
  std::vector<PendingEvent> pending_;
  /// Tenants whose quota is pinned (explicit `quota` request or already
  /// seeded with the default) — first submit seeds options_.default_quota.
  std::set<std::string> quota_known_;
  /// Idempotent-submit window, insertion-ordered and bounded.
  static constexpr std::size_t kDedupWindow = 128;
  std::map<std::string, DedupEntry> dedup_;
  std::deque<std::string> dedup_order_;
  std::uint64_t ordinal_ = 0;  ///< default study-name counter
  /// Compaction epoch: journal records carry it, the snapshot stores it,
  /// and replay skips records from epochs the snapshot already folded in
  /// (a crash between snapshot-rename and journal-truncate is harmless).
  std::uint64_t epoch_ = 1;
  bool recovered_degraded_ = false;
  bool draining_ = false;
  bool done_ = false;
  bool shutdown_reply_pending_ = false;
  ClientId shutdown_client_ = 0;
  json::Value shutdown_request_;
};

}  // namespace chpo::daemon
