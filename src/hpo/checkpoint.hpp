// Trial checkpointing — application-level fault tolerance.
//
// The runtime retries individual task failures (§3), but a crashed *main
// program* (login-node eviction, wall-clock limit) would otherwise lose
// every finished experiment. A checkpoint file is an append-only log of
// finished trials, one CRC-framed record per trial (the daemon journal's
// format, jsonlite/record.hpp), so recording a trial costs one append
// however long the study runs. On restart the driver replays matching
// configs from the log instead of retraining them ("continuity in case of
// failure", §3).
//
// A whole-file JSON checkpoint written before the record-log format does
// not frame as records; it loads as a warned fresh start, like any other
// unreadable file.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "hpo/driver.hpp"
#include "jsonlite/json.hpp"

namespace chpo::hpo {

/// Lossless-enough Trial serialization (configs, history, outcome flags).
json::Value trial_to_json(const Trial& trial);
Trial trial_from_json(const json::Value& value);

/// Append one trial record to the checkpoint log at `path` (created on
/// first use). No fsync: a trial lost to a machine crash just retrains.
/// Throws std::runtime_error when the file cannot be written.
void append_checkpoint(const std::string& path, const Trial& trial);

/// Replay a checkpoint log; empty vector when the file does not exist.
/// Never throws on damage. Records replay up to the first torn or
/// corrupt one, and that tail is cut off the file so later appends stay
/// readable. An intact record that is not a valid trial is skipped with a
/// warning (that trial retrains) — the same salvage policy the reuse
/// ResultCache applies to its snapshot files.
std::vector<Trial> load_checkpoint(const std::string& path);

/// Completed (non-failed) results keyed by serialized config. When a
/// config occurs more than once, the first completed occurrence wins.
std::unordered_map<std::string, ml::TrainResult> completed_by_config(
    const std::vector<Trial>& trials);

}  // namespace chpo::hpo
