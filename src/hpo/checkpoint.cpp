#include "hpo/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "jsonlite/record.hpp"
#include "reuse/snapshot_io.hpp"
#include "support/log.hpp"

namespace chpo::hpo {

json::Value trial_to_json(const Trial& trial) {
  json::Value out;
  out.set("index", json::Value(static_cast<std::int64_t>(trial.index)));
  out.set("config", trial.config);
  out.set("failed", json::Value(trial.failed));
  if (trial.failed) {
    out.set("failure_reason", json::Value(trial.failure_reason));
    return out;
  }
  // The result fields share their representation with the reuse cache's
  // TrainResult entries; inline them at the trial's top level.
  json::Value result = reuse::train_result_to_json(trial.result);
  for (auto& [key, field] : result.as_object()) out.set(key, std::move(field));
  return out;
}

Trial trial_from_json(const json::Value& value) {
  Trial trial;
  trial.index = static_cast<int>(value.at("index").as_int());
  trial.config = value.at("config");
  trial.failed = value.at("failed").as_bool();
  if (trial.failed) {
    if (value.contains("failure_reason"))
      trial.failure_reason = value.at("failure_reason").as_string();
    return trial;
  }
  trial.result = reuse::train_result_from_json(value);
  return trial;
}

void append_checkpoint(const std::string& path, const Trial& trial) {
  const std::string record = json::encode_record(trial_to_json(trial));
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) throw std::runtime_error("checkpoint: cannot open " + path);
  const bool ok = json::write_all(fd, record);
  ::close(fd);
  if (!ok) throw std::runtime_error("checkpoint: cannot append to " + path);
}

std::vector<Trial> load_checkpoint(const std::string& path) {
  // A checkpoint exists to survive crashes — including a crash mid-append
  // (or disk corruption). Whatever does not frame as records is a torn
  // tail: dropped with a warning and cut off, so the next append starts
  // on a record boundary instead of gluing onto the damage.
  const json::RecordReplay replay = json::read_records(path);
  if (replay.torn()) {
    log_warn("hpo", "checkpoint {}: dropping {} torn bytes after {} records ({})", path,
             replay.torn_bytes, replay.records.size(), replay.torn_error);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) std::filesystem::resize_file(path, size - replay.torn_bytes, ec);
    if (ec) log_warn("hpo", "checkpoint {}: cannot cut the torn tail ({})", path, ec.message());
  }
  std::vector<Trial> out;
  out.reserve(replay.records.size());
  for (const json::Value& record : replay.records) {
    try {
      out.push_back(trial_from_json(record));
    } catch (const std::exception& e) {
      log_warn("hpo", "checkpoint {}: skipping corrupt trial record ({})", path, e.what());
    }
  }
  return out;
}

std::unordered_map<std::string, ml::TrainResult> completed_by_config(
    const std::vector<Trial>& trials) {
  std::unordered_map<std::string, ml::TrainResult> out;
  for (const Trial& t : trials)
    if (!t.failed) out.try_emplace(json::serialize(t.config), t.result);
  return out;
}

}  // namespace chpo::hpo
