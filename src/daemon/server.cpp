#include "daemon/server.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "jsonlite/record.hpp"
#include "support/log.hpp"

namespace chpo::daemon {

namespace {

/// File-system-safe study name for checkpoint paths.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') c = '_';
  return out;
}

bool terminal(service::StudyState state) {
  return state == service::StudyState::Finished || state == service::StudyState::Killed;
}

JournalOptions journal_options(const ServerOptions& options) {
  JournalOptions j;
  if (!options.state_dir.empty()) j.path = options.state_dir + "/journal.ndjson";
  j.fsync = options.fsync;
  j.compact_every = options.journal_compact_every;
  return j;
}

// Tolerant field readers for journal/manifest records: a missing or
// mistyped field degrades to a default instead of aborting recovery.
std::int64_t int_field(const json::Value& rec, std::string_view key, std::int64_t fallback = 0) {
  const json::Value* v = rec.find(key);
  return v != nullptr && v->is_int() ? v->as_int() : fallback;
}

std::string string_field(const json::Value& rec, std::string_view key) {
  const json::Value* v = rec.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

bool bool_field(const json::Value& rec, std::string_view key) {
  const json::Value* v = rec.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

double double_field(const json::Value& rec, std::string_view key) {
  const json::Value* v = rec.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

service::StudyCloseTotals totals_from_record(const json::Value& rec) {
  service::StudyCloseTotals totals;
  totals.trials = static_cast<std::size_t>(int_field(rec, "trials"));
  totals.task_attempts = static_cast<std::size_t>(int_field(rec, "attempts"));
  totals.replayed_trials = static_cast<std::size_t>(int_field(rec, "replayed"));
  totals.cache_hits = static_cast<std::uint64_t>(int_field(rec, "cache_hits"));
  totals.engine_seconds = double_field(rec, "engine_seconds");
  totals.killed = bool_field(rec, "killed");
  return totals;
}

}  // namespace

Server::Server(ServerOptions options, const ml::Dataset& dataset)
    : options_(std::move(options)),
      dataset_(dataset),
      manager_(std::move(options_.manager), dataset),
      journal_(journal_options(options_)) {
  manager_.set_event_tap([this](const service::StudyEvent& event) { on_manager_event(event); });
  recover();
}

void Server::on_manager_event(const service::StudyEvent& event) {
  PendingEvent ev;
  ev.kind = event.kind;
  ev.study = event.study;
  ev.state = event.state;
  ev.trials_done = event.trials_done;
  if (event.kind == service::StudyEvent::Kind::TrialComplete) {
    const auto it = studies_.find(event.study);
    if (it != studies_.end()) {
      ++it->second.trials_counted;
      const service::TrialDelta delta = ledger_.on_trial(it->second.tenant, event.trial);
      it->second.counted_delta.task_attempts += delta.task_attempts;
      it->second.counted_delta.replayed_trials += delta.replayed_trials;
    }
    if (event.trial != nullptr) {
      ev.trial_index = event.trial->index;
      ev.trial_failed = event.trial->failed;
      ev.accuracy = event.trial->failed ? 0.0 : event.trial->result.final_val_accuracy;
    }
  }
  pending_.push_back(ev);
}

void Server::fan_out(rt::StudyId study, const json::Value& event,
                     std::vector<Outbound>& out) const {
  const auto it = watchers_.find(study);
  if (it != watchers_.end())
    for (const ClientId client : it->second) out.push_back({client, event});
  for (const ClientId client : watch_all_) {
    if (it != watchers_.end() && it->second.count(client)) continue;  // no duplicates
    out.push_back({client, event});
  }
}

void Server::drain_events(std::vector<Outbound>& out) {
  std::vector<PendingEvent> events;
  events.swap(pending_);
  for (const PendingEvent& ev : events) {
    const auto info_it = studies_.find(ev.study);
    const std::string name =
        info_it != studies_.end() ? info_it->second.name : manager_.status(ev.study).name;
    if (ev.kind == service::StudyEvent::Kind::TrialComplete)
      fan_out(ev.study,
              make_trial_event(ev.study, name, ev.trial_index, ev.accuracy, ev.trial_failed,
                               ev.trials_done),
              out);
    else
      fan_out(ev.study, make_state_event(ev.study, name, ev.state, ev.trials_done), out);
    // Settle accounting when a study leaves the fleet. Deferred to here
    // (not done in the tap) because outcome() must not be called from
    // inside a manager method.
    if (ev.kind != service::StudyEvent::Kind::TrialComplete && terminal(ev.state) &&
        info_it != studies_.end() && !info_it->second.closed_accounted) {
      StudyInfo& info = info_it->second;
      info.closed_accounted = true;
      const bool killed = ev.state == service::StudyState::Killed;
      const service::StudyCloseTotals totals =
          service::study_close_totals(manager_.outcome(ev.study), killed);
      // The closed record carries the study's ABSOLUTE totals (not a
      // delta): replaying it after a crash applies the whole study with
      // zero counted-live, so it lands exactly once either way.
      json::Value rec;
      rec.set("rec", json::Value("closed"));
      rec.set("study", json::Value(static_cast<std::int64_t>(ev.study)));
      rec.set("tenant", json::Value(info.tenant));
      rec.set("name", json::Value(info.name));
      rec.set("killed", json::Value(totals.killed));
      rec.set("trials", json::Value(static_cast<std::int64_t>(totals.trials)));
      rec.set("attempts", json::Value(static_cast<std::int64_t>(totals.task_attempts)));
      rec.set("replayed", json::Value(static_cast<std::int64_t>(totals.replayed_trials)));
      rec.set("cache_hits", json::Value(static_cast<std::int64_t>(totals.cache_hits)));
      rec.set("engine_seconds", json::Value(totals.engine_seconds));
      if (!info.dedup_key.empty()) rec.set("key", json::Value(info.dedup_key));
      journal_event(std::move(rec));
      ledger_.apply_closed(info.tenant, totals, info.trials_counted, info.counted_delta);
      if (!info.dedup_key.empty()) {
        const auto dd = dedup_.find(info.dedup_key);
        if (dd != dedup_.end()) {
          dd->second.live = false;
          dd->second.last_state = service::study_state_name(ev.state);
        }
      }
      to_retire_.push_back(ev.study);
    }
  }
}

void Server::retire_closed() {
  for (const rt::StudyId id : to_retire_) {
    manager_.retire(id);
    specs_.erase(id);
    watchers_.erase(id);
  }
  to_retire_.clear();
}

rt::StudyId Server::submit_spec(const std::string& tenant, json::Value spec_json) {
  if (!spec_json.is_object()) throw service::SpecError("submit: 'spec' must be a JSON object");

  std::string name;
  if (const json::Value* v = spec_json.find("name"); v != nullptr && v->is_string())
    name = v->as_string();
  if (name.empty()) {
    std::string algorithm = "random";
    if (const json::Value* v = spec_json.find("algorithm"); v != nullptr && v->is_string())
      algorithm = v->as_string();
    name = tenant + "-" + algorithm + "-" + std::to_string(ordinal_++);
    spec_json.set("name", json::Value(name));
  }
  // Stateful deployments checkpoint every study so a drained shutdown can
  // resume it; an explicit per-spec checkpoint wins.
  if (!options_.state_dir.empty() && spec_json.find("checkpoint") == nullptr)
    spec_json.set("checkpoint",
                  json::Value(options_.state_dir + "/" + sanitize(name) + ".trials.json"));

  service::StudySpec spec = service::study_spec_from_json(spec_json, options_.defaults);
  spec.weight *= ledger_.quota(tenant).weight;

  bool start_paused = false;
  if (const json::Value* v = spec_json.find("paused")) start_paused = v->as_bool();

  const rt::StudyId id = manager_.submit(std::move(spec));
  if (start_paused) manager_.pause(id);

  // The stored spec seeds snapshots; pause intent is tracked separately
  // (kept across a crash, dropped across a graceful shutdown).
  if (spec_json.contains("paused")) {
    json::Object& object = spec_json.as_object();
    object.erase(std::remove_if(object.begin(), object.end(),
                                [](const auto& member) { return member.first == "paused"; }),
                 object.end());
  }
  StudyInfo info;
  info.tenant = tenant;
  info.name = name;
  info.paused_wanted = start_paused;
  studies_.emplace(id, std::move(info));
  specs_.emplace(id, std::move(spec_json));
  ledger_.on_submitted(tenant);
  return id;
}

json::Value Server::op_submit(const json::Value& request) {
  if (draining_) return make_error(request, "shutting down: submissions are closed");
  const json::Value* spec = request.find("spec");
  if (spec == nullptr) return make_error(request, "submit: missing 'spec'");
  const std::string tenant = tenant_field(request);

  // Idempotent resubmit: a string request id is a client-chosen dedup key
  // (scoped per tenant). A retry of an already-acknowledged submit —
  // reply lost to a daemon crash or a network timeout — gets the original
  // study back and charges nothing.
  std::string key;
  if (const json::Value* id = request.find("id"); id != nullptr && id->is_string() &&
                                                  !id->as_string().empty())
    key = tenant + "\n" + id->as_string();
  if (!key.empty()) {
    const auto hit = dedup_.find(key);
    if (hit != dedup_.end()) {
      json::Value reply = make_reply(request, true);
      reply.set("duplicate", json::Value(true));
      reply.set("name", json::Value(hit->second.name));
      if (hit->second.live && manager_.known(hit->second.study)) {
        reply.set("study", json::Value(static_cast<std::int64_t>(hit->second.study)));
        reply.set("state",
                  json::Value(service::study_state_name(manager_.state(hit->second.study))));
      } else {
        reply.set("state", json::Value(hit->second.last_state));
      }
      return reply;
    }
  }

  if (quota_known_.insert(tenant).second) ledger_.set_quota(tenant, options_.default_quota);
  if (!ledger_.admit_study(tenant)) {
    json::Value rec;
    rec.set("rec", json::Value("reject"));
    rec.set("tenant", json::Value(tenant));
    journal_event(std::move(rec));
    return make_error(request, "tenant '" + tenant + "' is over its active-study quota");
  }
  try {
    const rt::StudyId id = submit_spec(tenant, *spec);
    StudyInfo& info = studies_.at(id);
    if (!key.empty()) {
      info.dedup_key = key;
      DedupEntry entry;
      entry.live = true;
      entry.study = id;
      entry.name = info.name;
      remember_dedup(key, entry);
    }
    json::Value rec;
    rec.set("rec", json::Value("submit"));
    rec.set("study", json::Value(static_cast<std::int64_t>(id)));
    rec.set("tenant", json::Value(tenant));
    rec.set("spec", specs_.at(id));
    rec.set("paused", json::Value(info.paused_wanted));
    rec.set("ordinal", json::Value(static_cast<std::int64_t>(ordinal_)));
    if (!key.empty()) rec.set("key", json::Value(key));
    journal_event(std::move(rec));
    json::Value reply = make_reply(request, true);
    reply.set("study", json::Value(static_cast<std::int64_t>(id)));
    reply.set("name", json::Value(info.name));
    reply.set("state", json::Value(service::study_state_name(manager_.state(id))));
    return reply;
  } catch (const service::SpecError& e) {
    return make_error(request, e.what());
  }
}

json::Value Server::status_json(rt::StudyId id) const {
  // Built with exact sizes: `list` holds one of these per study ever run.
  const service::StudyStatus status = manager_.status(id);
  const bool closed = terminal(status.state);
  json::Object row;
  row.reserve(7 + (closed ? 1 + (status.best_accuracy ? 1 : 0) : 0));
  const auto count = [](std::size_t n) { return json::Value(static_cast<std::int64_t>(n)); };
  row.emplace_back("study", json::Value(static_cast<std::int64_t>(id)));
  row.emplace_back("name", json::Value(status.name));
  const auto info = studies_.find(id);
  row.emplace_back("tenant",
                   json::Value(info != studies_.end() ? info->second.tenant : std::string()));
  row.emplace_back("algorithm", json::Value(status.algorithm));
  row.emplace_back("state", json::Value(service::study_state_name(status.state)));
  row.emplace_back("trials_done", count(status.trials_done));
  const rt::StudyProgress progress = manager_.progress(id);
  json::Object tasks;
  tasks.reserve(7);
  tasks.emplace_back("total", count(progress.total));
  tasks.emplace_back("waiting", count(progress.waiting));
  tasks.emplace_back("ready", count(progress.ready));
  tasks.emplace_back("running", count(progress.running));
  tasks.emplace_back("done", count(progress.done));
  tasks.emplace_back("failed", count(progress.failed));
  tasks.emplace_back("cancelled", count(progress.cancelled));
  row.emplace_back("tasks", json::Value(std::move(tasks)));
  if (closed) {
    if (status.best_accuracy) row.emplace_back("best_accuracy", json::Value(*status.best_accuracy));
    row.emplace_back("elapsed_seconds", json::Value(status.elapsed_seconds));
  }
  return json::Value(std::move(row));
}

json::Value Server::op_list(const json::Value& request) const {
  json::Value reply = make_reply(request, true);
  json::Array rows;
  const std::vector<rt::StudyId> ids = manager_.studies();
  rows.reserve(ids.size());
  for (const rt::StudyId id : ids) rows.push_back(status_json(id));
  reply.set("studies", json::Value(std::move(rows)));
  return reply;
}

json::Value Server::op_status(const json::Value& request) const {
  const std::optional<rt::StudyId> id = study_field(request);
  if (!id || !manager_.known(*id)) return make_error(request, "unknown study");
  json::Value reply = make_reply(request, true);
  const json::Value row = status_json(*id);  // named: the loop borrows its object
  for (const auto& [key, value] : row.as_object()) reply.set(key, value);
  return reply;
}

json::Value Server::op_lifecycle(const json::Value& request, const std::string& op) {
  const std::optional<rt::StudyId> id = study_field(request);
  if (!id || !manager_.known(*id)) return make_error(request, "unknown study");
  const service::StudyState before = manager_.state(*id);
  const auto info = studies_.find(*id);
  if (op == "pause") {
    if (terminal(before) || before == service::StudyState::Paused)
      return make_error(request, std::string("cannot pause a ") +
                                     service::study_state_name(before) + " study");
    manager_.pause(*id);
    if (info != studies_.end()) info->second.paused_wanted = true;
  } else if (op == "resume") {
    if (terminal(before))
      return make_error(request, std::string("cannot resume a ") +
                                     service::study_state_name(before) + " study");
    manager_.resume(*id);
    if (info != studies_.end()) info->second.paused_wanted = false;
  } else {  // kill
    if (terminal(before))
      return make_error(request, std::string("study is already ") +
                                     service::study_state_name(before));
    manager_.kill(*id);
  }
  json::Value rec;
  rec.set("rec", json::Value(op));
  rec.set("study", json::Value(static_cast<std::int64_t>(*id)));
  journal_event(std::move(rec));
  json::Value reply = make_reply(request, true);
  reply.set("study", json::Value(static_cast<std::int64_t>(*id)));
  reply.set("state", json::Value(service::study_state_name(manager_.state(*id))));
  return reply;
}

json::Value Server::op_watch(ClientId client, const json::Value& request,
                             std::vector<Outbound>& snapshots) {
  const json::Value* study = request.find("study");
  std::vector<rt::StudyId> snapshot_ids;
  if (study == nullptr) {
    watch_all_.insert(client);
    snapshot_ids = manager_.studies();
  } else {
    const std::optional<rt::StudyId> id = study_field(request);
    if (!id || !manager_.known(*id)) return make_error(request, "unknown study");
    // A closed study sends no further events: the snapshot below is all
    // the watcher gets, so there is nothing to subscribe to.
    if (!terminal(manager_.state(*id))) watchers_[*id].insert(client);
    snapshot_ids.push_back(*id);
  }
  // Immediate state snapshot to just this client: a watch on an already
  // finished study terminates without waiting for an event that will
  // never come.
  for (const rt::StudyId id : snapshot_ids) {
    const service::StudyStatus status = manager_.status(id);
    snapshots.push_back(
        {client, make_state_event(id, status.name, status.state, status.trials_done)});
  }
  return make_reply(request, true);
}

json::Value Server::op_unwatch(ClientId client, const json::Value& request) {
  const std::optional<rt::StudyId> id = study_field(request);
  if (!id) {
    watch_all_.erase(client);
  } else if (const auto it = watchers_.find(*id); it != watchers_.end()) {
    it->second.erase(client);
  }
  return make_reply(request, true);
}

json::Value Server::op_accounting(const json::Value& request) const {
  json::Value reply = make_reply(request, true);
  json::Array rows;
  for (const std::string& tenant : ledger_.tenants()) rows.push_back(ledger_.tenant_to_json(tenant));
  reply.set("tenants", json::Value(std::move(rows)));
  return reply;
}

json::Value Server::op_stats(const json::Value& request) const {
  const service::ManagerStats stats = manager_.stats();
  json::Value reply = make_reply(request, true);
  reply.set("queued", json::Value(static_cast<std::int64_t>(stats.queued)));
  reply.set("running", json::Value(static_cast<std::int64_t>(stats.running)));
  reply.set("paused", json::Value(static_cast<std::int64_t>(stats.paused)));
  reply.set("finished", json::Value(static_cast<std::int64_t>(stats.finished)));
  reply.set("killed", json::Value(static_cast<std::int64_t>(stats.killed)));
  reply.set("total_studies", json::Value(static_cast<std::int64_t>(stats.total_studies)));
  reply.set("trials_done", json::Value(static_cast<std::int64_t>(stats.trials_done)));
  reply.set("inflight", json::Value(static_cast<std::int64_t>(stats.inflight)));
  reply.set("completions_routed",
            json::Value(static_cast<std::int64_t>(stats.completions_routed)));
  reply.set("leaked_completions",
            json::Value(static_cast<std::int64_t>(stats.leaked_completions)));
  reply.set("lineage_violations",
            json::Value(static_cast<std::int64_t>(manager_.lineage_violations())));
  reply.set("draining", json::Value(draining_));
  reply.set("recovered_degraded", json::Value(recovered_degraded_));
  reply.set("journal_records",
            json::Value(static_cast<std::int64_t>(journal_.appended_since_reset())));
  return reply;
}

json::Value Server::op_quota(const json::Value& request) {
  const json::Value* tenant = request.find("tenant");
  if (tenant == nullptr || !tenant->is_string())
    return make_error(request, "quota: missing 'tenant'");
  service::TenantQuota quota = ledger_.quota(tenant->as_string());
  if (const json::Value* v = request.find("weight")) {
    if (!v->is_number() || v->as_double() <= 0.0)
      return make_error(request, "quota: 'weight' must be a positive number");
    quota.weight = v->as_double();
  }
  if (const json::Value* v = request.find("max_active_studies")) {
    if (!v->is_int() || v->as_int() < 0)
      return make_error(request, "quota: 'max_active_studies' must be a non-negative integer");
    quota.max_active_studies = static_cast<std::size_t>(v->as_int());
  }
  quota_known_.insert(tenant->as_string());
  ledger_.set_quota(tenant->as_string(), quota);
  json::Value rec;
  rec.set("rec", json::Value("quota"));
  rec.set("tenant", *tenant);
  rec.set("weight", json::Value(quota.weight));
  rec.set("max_active_studies", json::Value(static_cast<std::int64_t>(quota.max_active_studies)));
  journal_event(std::move(rec));
  return make_reply(request, true);
}

std::vector<Outbound> Server::handle(ClientId client, const json::Value& request) {
  std::vector<Outbound> out;
  const json::Value* op_value = request.is_object() ? request.find("op") : nullptr;
  if (op_value == nullptr || !op_value->is_string()) {
    out.push_back({client, make_error(request, "request must be an object with a string 'op'")});
    return out;
  }
  const std::string& op = op_value->as_string();

  json::Value reply;
  bool has_reply = true;
  std::vector<Outbound> snapshots;
  try {
    if (op == "ping") {
      reply = make_reply(request, true);
      reply.set("pong", json::Value(true));
    } else if (op == "submit") {
      reply = op_submit(request);
    } else if (op == "list") {
      reply = op_list(request);
    } else if (op == "status") {
      reply = op_status(request);
    } else if (op == "pause" || op == "resume" || op == "kill") {
      reply = op_lifecycle(request, op);
    } else if (op == "watch") {
      reply = op_watch(client, request, snapshots);
    } else if (op == "unwatch") {
      reply = op_unwatch(client, request);
    } else if (op == "accounting") {
      reply = op_accounting(request);
    } else if (op == "stats") {
      reply = op_stats(request);
    } else if (op == "quota") {
      reply = op_quota(request);
    } else if (op == "shutdown") {
      if (draining_) {
        reply = make_error(request, "already shutting down");
      } else {
        // Checkpoint-everything-then-drain: gate admission, stop every
        // running pump's refills (in-flight attempts finish and are
        // checkpointed per trial), reply from step() once drained.
        draining_ = true;
        manager_.set_admission_paused(true);
        for (const rt::StudyId id : manager_.studies())
          if (manager_.state(id) == service::StudyState::Running) manager_.pause(id);
        shutdown_reply_pending_ = true;
        shutdown_client_ = client;
        shutdown_request_ = request;
        has_reply = false;
        log_info("daemon", "shutdown requested: draining {} in-flight trials",
                 manager_.stats().inflight);
      }
    } else {
      reply = make_error(request, "unknown op '" + op + "'");
    }
  } catch (const std::exception& e) {
    reply = make_error(request, e.what());
  }

  if (has_reply) out.push_back({client, std::move(reply)});
  for (Outbound& snapshot : snapshots) out.push_back(std::move(snapshot));
  drain_events(out);  // state changes caused by this request reach watchers
  // Durability barrier: every record this request appended hits the disk
  // before any reply in `out` can leave the process.
  journal_.sync();
  maybe_compact();
  return out;
}

std::vector<Outbound> Server::handle_line_error(ClientId client, const std::string& error) {
  return {{client, make_parse_error("parse error: " + error)}};
}

void Server::disconnect(ClientId client) {
  watch_all_.erase(client);
  for (auto& [_, clients] : watchers_) clients.erase(client);
  if (shutdown_reply_pending_ && shutdown_client_ == client) shutdown_reply_pending_ = false;
}

bool Server::busy() const {
  if (done_) return false;
  return draining_ || !to_retire_.empty() || manager_.busy();
}

std::vector<Outbound> Server::step(double seconds) {
  std::vector<Outbound> out;
  if (done_) return out;
  retire_closed();  // their close records were synced before the last reply
  manager_.step_for(seconds);
  drain_events(out);
  journal_.sync();  // closed-study records are durable before their events leave
  maybe_compact();
  if (draining_ && manager_.stats().inflight == 0) {
    // Final snapshot folds the journal in; pause intent is dropped on a
    // graceful shutdown (it is connection-era policy, and the operator
    // asked for a clean restart point).
    compact(/*include_paused=*/false);
    if (shutdown_reply_pending_) {
      json::Value reply = make_reply(shutdown_request_, true);
      reply.set("drained", json::Value(true));
      std::int64_t persisted = 0;
      for (const auto& [id, _] : specs_)
        if (!terminal(manager_.state(id))) ++persisted;
      reply.set("persisted_studies", json::Value(persisted));
      out.push_back({shutdown_client_, std::move(reply)});
      shutdown_reply_pending_ = false;
    }
    done_ = true;
    log_info("daemon", "drain complete; manifest written, {} leaked completions",
             manager_.leaked_completions());
  }
  return out;
}

void Server::journal_event(json::Value record) {
  if (!journal_.enabled()) return;
  record.set("epoch", json::Value(static_cast<std::int64_t>(epoch_)));
  journal_.append(record);
}

void Server::remember_dedup(const std::string& key, DedupEntry entry) {
  const auto [it, inserted] = dedup_.emplace(key, entry);
  if (!inserted) {
    it->second = std::move(entry);
    return;
  }
  dedup_order_.push_back(key);
  if (dedup_order_.size() > kDedupWindow) {
    dedup_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
}

void Server::write_snapshot(bool include_paused) const {
  if (options_.state_dir.empty()) return;
  json::Array entries;
  for (const auto& [id, spec] : specs_) {
    if (terminal(manager_.state(id))) continue;
    const StudyInfo& info = studies_.at(id);
    json::Value entry;
    entry.set("study", json::Value(static_cast<std::int64_t>(id)));
    entry.set("tenant", json::Value(info.tenant));
    entry.set("spec", spec);
    if (include_paused && info.paused_wanted) entry.set("paused", json::Value(true));
    if (!info.dedup_key.empty()) entry.set("key", json::Value(info.dedup_key));
    entries.push_back(std::move(entry));
  }
  // Persist the ledger MINUS live-study contributions: recovery resubmits
  // the studies above (re-applying their submissions) and their eventual
  // close re-applies their trials — subtracting here is what keeps the
  // meter exactly-once across a restart.
  service::TenantLedger persisted = ledger_;
  for (const auto& [id, _] : specs_) {
    if (terminal(manager_.state(id))) continue;
    const StudyInfo& info = studies_.at(id);
    persisted.withdraw_live(info.tenant, info.trials_counted, info.counted_delta);
  }
  json::Array ledger_rows;
  for (const std::string& tenant : persisted.tenants())
    ledger_rows.push_back(persisted.tenant_to_json(tenant));
  json::Array dedup_rows;
  for (const std::string& key : dedup_order_) {
    const auto it = dedup_.find(key);
    if (it == dedup_.end()) continue;
    json::Value row;
    row.set("key", json::Value(key));
    row.set("name", json::Value(it->second.name));
    row.set("live", json::Value(it->second.live));
    if (it->second.live)
      row.set("study", json::Value(static_cast<std::int64_t>(it->second.study)));
    else
      row.set("state", json::Value(it->second.last_state));
    dedup_rows.push_back(std::move(row));
  }
  json::Value manifest;
  manifest.set("studies", json::Value(std::move(entries)));
  manifest.set("ledger", json::Value(std::move(ledger_rows)));
  manifest.set("dedup", json::Value(std::move(dedup_rows)));
  manifest.set("ordinal", json::Value(static_cast<std::int64_t>(ordinal_)));
  manifest.set("epoch", json::Value(static_cast<std::int64_t>(epoch_)));
  const std::string path = options_.state_dir + "/manifest.json";
  if (!json::atomic_write_file(path, json::serialize_pretty(manifest) + "\n", options_.fsync))
    log_warn("daemon", "failed to write manifest snapshot at {}", path);
}

void Server::compact(bool include_paused) {
  if (options_.state_dir.empty()) return;
  write_snapshot(include_paused);
  journal_.reset();
  ++epoch_;
}

void Server::maybe_compact() {
  if (draining_ || !journal_.wants_compaction()) return;
  compact(/*include_paused=*/true);
}

void Server::recover() {
  if (options_.state_dir.empty()) return;
  const std::string path = options_.state_dir + "/manifest.json";

  /// A study to resubmit at the end of recovery.
  struct Candidate {
    rt::StudyId old_id = rt::kMainStudy;  ///< id in the previous lifetime
    bool has_old_id = false;              ///< pre-journal manifests lack it
    std::string tenant;
    json::Value spec_json;
    bool paused = false;
    std::string dedup_key;
    bool dead = false;  ///< tombstoned by a kill/closed journal record
  };
  std::vector<Candidate> candidates;
  std::map<rt::StudyId, std::size_t> by_old_id;
  std::uint64_t snapshot_epoch = 0;

  // Phase 1: the manifest snapshot. A corrupt (unparseable) file is
  // quarantined, not silently discarded: the journal may still hold
  // enough to recover, and the operator keeps the evidence.
  json::Value manifest;
  bool have_manifest = false;
  try {
    manifest = json::parse_file(path);
    have_manifest = true;
  } catch (const json::JsonError& e) {
    if (std::ifstream(path).good()) {
      const std::string bad = path + ".bad";
      if (std::rename(path.c_str(), bad.c_str()) == 0)
        log_warn("daemon", "manifest {} is corrupt ({}); quarantined to {}, recovering degraded",
                 path, e.what(), bad);
      else
        log_warn("daemon", "manifest {} is corrupt ({}), recovering degraded", path, e.what());
      recovered_degraded_ = true;
    }
  }
  if (have_manifest) {
    snapshot_epoch = static_cast<std::uint64_t>(int_field(manifest, "epoch"));
    ordinal_ = static_cast<std::uint64_t>(int_field(manifest, "ordinal"));
    if (const json::Value* rows = manifest.find("ledger"); rows != nullptr && rows->is_array())
      for (const json::Value& row : rows->as_array()) {
        ledger_.restore_tenant(row);
        if (const std::string tenant = string_field(row, "tenant"); !tenant.empty())
          quota_known_.insert(tenant);
      }
    if (const json::Value* rows = manifest.find("dedup"); rows != nullptr && rows->is_array())
      for (const json::Value& row : rows->as_array()) {
        const std::string key = string_field(row, "key");
        if (key.empty()) continue;
        DedupEntry entry;
        entry.name = string_field(row, "name");
        entry.live = bool_field(row, "live");
        entry.study = static_cast<rt::StudyId>(int_field(row, "study"));
        entry.last_state = string_field(row, "state");
        remember_dedup(key, entry);
      }
    if (const json::Value* rows = manifest.find("studies"); rows != nullptr && rows->is_array())
      for (const json::Value& entry : rows->as_array()) {
        const json::Value* spec = entry.find("spec");
        if (spec == nullptr) continue;
        Candidate c;
        c.tenant = string_field(entry, "tenant");
        if (c.tenant.empty()) c.tenant = "default";
        c.spec_json = *spec;
        c.paused = bool_field(entry, "paused");
        c.dedup_key = string_field(entry, "key");
        if (const json::Value* v = entry.find("study"); v != nullptr && v->is_int()) {
          c.old_id = static_cast<rt::StudyId>(v->as_int());
          c.has_old_id = true;
          by_old_id[c.old_id] = candidates.size();
        }
        candidates.push_back(std::move(c));
      }
  }

  // Phase 2: replay the journal on top of the snapshot, stopping at the
  // first torn/corrupt record (a torn tail is an operation that was never
  // acknowledged — the client retries it). Records from epochs the
  // snapshot already folded in are skipped, so a crash between the
  // snapshot rename and the journal truncate double-applies nothing.
  const json::RecordReplay replay = StateJournal::load(options_.state_dir + "/journal.ndjson");
  if (replay.torn())
    log_warn("daemon",
             "journal tail torn after {} intact records ({}); dropping the unacknowledged tail",
             replay.records.size(), replay.torn_error);
  const auto candidate_of = [&](const json::Value& rec) -> Candidate* {
    const json::Value* v = rec.find("study");
    if (v == nullptr || !v->is_int()) return nullptr;
    const auto it = by_old_id.find(static_cast<rt::StudyId>(v->as_int()));
    return it == by_old_id.end() ? nullptr : &candidates[it->second];
  };
  // Kills whose closed record was lost to the crash: settle them with
  // empty totals so the tenant's active/killed counters stay exact.
  std::map<rt::StudyId, std::string> pending_kills;
  std::size_t replayed_records = 0;
  for (const json::Value& rec : replay.records) {
    if (!rec.is_object()) continue;
    const std::int64_t rec_epoch = int_field(rec, "epoch", -1);
    if (rec_epoch >= 0 && static_cast<std::uint64_t>(rec_epoch) <= snapshot_epoch)
      continue;  // already folded into the snapshot
    if (rec_epoch >= 0) epoch_ = std::max(epoch_, static_cast<std::uint64_t>(rec_epoch));
    ++replayed_records;
    const std::string kind = string_field(rec, "rec");
    if (kind == "submit") {
      Candidate c;
      c.tenant = string_field(rec, "tenant");
      if (c.tenant.empty()) c.tenant = "default";
      if (const json::Value* spec = rec.find("spec")) c.spec_json = *spec;
      c.paused = bool_field(rec, "paused");
      c.dedup_key = string_field(rec, "key");
      c.old_id = static_cast<rt::StudyId>(int_field(rec, "study"));
      c.has_old_id = true;
      ordinal_ = std::max(ordinal_, static_cast<std::uint64_t>(int_field(rec, "ordinal")));
      if (quota_known_.insert(c.tenant).second)
        ledger_.set_quota(c.tenant, options_.default_quota);
      if (!c.dedup_key.empty()) {
        DedupEntry entry;
        entry.live = true;
        entry.study = c.old_id;
        entry.name = string_field(c.spec_json, "name");
        remember_dedup(c.dedup_key, entry);
      }
      by_old_id[c.old_id] = candidates.size();
      candidates.push_back(std::move(c));
    } else if (kind == "pause" || kind == "resume") {
      if (Candidate* c = candidate_of(rec)) c->paused = kind == "pause";
    } else if (kind == "kill") {
      if (Candidate* c = candidate_of(rec); c != nullptr && !c->dead) {
        c->dead = true;
        pending_kills[c->old_id] = c->tenant;
      }
    } else if (kind == "closed") {
      const std::string tenant = string_field(rec, "tenant");
      // Re-apply the close with zero counted-live: the recovered ledger
      // holds no live contribution for this study (the snapshot subtracted
      // it, or the submission itself is being replayed right here).
      ledger_.on_submitted(tenant);
      ledger_.apply_closed(tenant, totals_from_record(rec), 0, {});
      if (Candidate* c = candidate_of(rec)) {
        c->dead = true;
        pending_kills.erase(c->old_id);
      }
      if (const std::string key = string_field(rec, "key"); !key.empty()) {
        DedupEntry entry;
        entry.live = false;
        entry.name = string_field(rec, "name");
        entry.last_state = bool_field(rec, "killed") ? "killed" : "finished";
        remember_dedup(key, entry);
      }
    } else if (kind == "quota") {
      const std::string tenant = string_field(rec, "tenant");
      if (tenant.empty()) continue;
      service::TenantQuota quota;
      quota.weight = double_field(rec, "weight");
      if (quota.weight <= 0.0) quota.weight = 1.0;
      quota.max_active_studies = static_cast<std::size_t>(int_field(rec, "max_active_studies"));
      ledger_.set_quota(tenant, quota);
      quota_known_.insert(tenant);
    } else if (kind == "reject") {
      ledger_.note_rejected(string_field(rec, "tenant"));
    }
  }
  for (const auto& [old_id, tenant] : pending_kills) {
    // Acknowledged kill whose close never reached the journal: the study
    // is gone either way — settle the counters with empty totals.
    ledger_.on_submitted(tenant);
    service::StudyCloseTotals totals;
    totals.killed = true;
    ledger_.apply_closed(tenant, totals, 0, {});
  }

  // Phase 3: resubmit the surviving studies. Their per-study checkpoints
  // replay completed trials, so work resumes where the crash cut it; the
  // close-time reconciliation re-counts those trials exactly once.
  std::size_t resumed = 0;
  std::set<std::string> remapped_keys;
  for (Candidate& c : candidates) {
    if (c.dead) continue;
    try {
      if (quota_known_.insert(c.tenant).second) ledger_.set_quota(c.tenant, options_.default_quota);
      const rt::StudyId id = submit_spec(c.tenant, std::move(c.spec_json));
      StudyInfo& info = studies_.at(id);
      if (c.paused && !info.paused_wanted) {
        manager_.pause(id);
        info.paused_wanted = true;
      }
      if (!c.dedup_key.empty()) {
        info.dedup_key = c.dedup_key;
        const auto it = dedup_.find(c.dedup_key);
        if (it != dedup_.end()) {
          it->second.live = true;
          it->second.study = id;  // ids renumber across a restart
        }
        remapped_keys.insert(c.dedup_key);
      }
      ++resumed;
    } catch (const std::exception& e) {
      log_warn("daemon", "recovered study skipped: {}", e.what());
    }
  }
  // Any dedup entry still pointing at a previous-lifetime id (tombstoned
  // study, or a resubmission that failed) must not alias a fresh id.
  for (auto& [key, entry] : dedup_) {
    if (entry.live && remapped_keys.find(key) == remapped_keys.end()) {
      entry.live = false;
      if (entry.last_state.empty()) entry.last_state = "killed";
    }
  }
  if (resumed > 0 || replayed_records > 0 || recovered_degraded_)
    log_info("daemon",
             "recovery: {} journal records replayed, {} studies resubmitted from {} "
             "(checkpoints replay completed trials){}",
             replayed_records, resumed, path, recovered_degraded_ ? ", DEGRADED" : "");
  // Fold recovery into a fresh snapshot immediately: the old journal
  // references the previous lifetime's study ids, the new one must not.
  // The new snapshot's epoch must exceed every surviving journal record's,
  // so a crash between its rename and the truncate replays nothing stale.
  epoch_ = std::max(epoch_, snapshot_epoch + 1);
  compact(/*include_paused=*/true);
}

}  // namespace chpo::daemon
