#include "reuse/result_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "jsonlite/json.hpp"
#include "jsonlite/record.hpp"
#include "reuse/snapshot_io.hpp"
#include "support/log.hpp"

namespace fs = std::filesystem;

namespace chpo::reuse {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buf).str();
}

}  // namespace

ResultCache::ResultCache(ReusePolicy policy) : policy_(std::move(policy)) {
  if (policy_.cache_dir.empty()) return;
  std::error_code ec;
  fs::create_directories(policy_.cache_dir, ec);
  if (ec) {
    log_warn("reuse", "cache dir {} unusable ({}); falling back to in-memory cache",
             policy_.cache_dir, ec.message());
    return;
  }
  disk_ok_ = true;
  // Pre-existing entries, oldest first, so eviction drops stale ones.
  std::vector<std::pair<fs::file_time_type, std::pair<std::string, std::size_t>>> found;
  for (const auto& entry : fs::directory_iterator(policy_.cache_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".snap" && ext != ".json") continue;
    found.push_back({entry.last_write_time(ec),
                     {entry.path().string(), static_cast<std::size_t>(entry.file_size(ec))}});
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [time, file] : found) {
    stats_.disk_bytes += file.second;
    disk_files_.push_back(std::move(file));
  }
}

// ------------------------------------------------------------ in-memory

ResultCache::Entry* ResultCache::lookup_memory(const StageKey& key) {
  const auto it = memory_.find(key);
  if (it == memory_.end()) return nullptr;
  it->second.tick = ++tick_;
  return &it->second;
}

void ResultCache::insert_memory(const StageKey& key, Entry entry) {
  entry.tick = ++tick_;
  stats_.memory_bytes += entry.bytes;
  memory_.emplace(key, std::move(entry));
  evict_to_budget();
}

void ResultCache::evict_to_budget() {
  while (stats_.memory_bytes > policy_.max_memory_bytes && memory_.size() > 1) {
    auto lru = memory_.begin();
    for (auto it = memory_.begin(); it != memory_.end(); ++it)
      if (it->second.tick < lru->second.tick) lru = it;
    stats_.memory_bytes -= lru->second.bytes;
    ++stats_.evictions;
    memory_.erase(lru);
  }
}

// ----------------------------------------------------------------- disk

std::string ResultCache::snapshot_path(const StageKey& key) const {
  return (fs::path(policy_.cache_dir) / (key.hex() + ".snap")).string();
}

std::string ResultCache::result_path(const StageKey& key) const {
  return (fs::path(policy_.cache_dir) / (key.hex() + ".result.json")).string();
}

void ResultCache::drop_corrupt(const std::string& path, const char* what) {
  ++stats_.corrupt;
  log_warn("reuse", "corrupt cache entry {} ({}); dropping and recomputing", path, what);
  std::error_code ec;
  fs::remove(path, ec);
  const auto it = std::find_if(disk_files_.begin(), disk_files_.end(),
                               [&](const auto& f) { return f.first == path; });
  if (it != disk_files_.end()) {
    stats_.disk_bytes -= std::min(stats_.disk_bytes, it->second);
    disk_files_.erase(it);
  }
}

std::shared_ptr<const ml::TrainSnapshot> ResultCache::load_snapshot_from_disk(const StageKey& key) {
  if (!disk_ok_) return nullptr;
  const std::string path = snapshot_path(key);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return nullptr;
  try {
    return std::make_shared<const ml::TrainSnapshot>(deserialize_snapshot(*bytes));
  } catch (const std::exception& e) {
    drop_corrupt(path, e.what());
    return nullptr;
  }
}

std::optional<ml::TrainResult> ResultCache::load_result_from_disk(const StageKey& key) {
  if (!disk_ok_) return std::nullopt;
  const std::string path = result_path(key);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;
  try {
    return train_result_from_json(json::parse(*bytes));
  } catch (const std::exception& e) {
    drop_corrupt(path, e.what());
    return std::nullopt;
  }
}

void ResultCache::persist(const std::string& path, const std::string& bytes) {
  if (!disk_ok_) return;
  // Cache entries are recomputable, so no fsync: a crash costs a retrain.
  if (!json::atomic_write_file(path, bytes, /*durable=*/false)) {
    log_warn("reuse", "cannot write cache entry {}", path);
    return;
  }
  stats_.bytes_written += bytes.size();
  note_disk_file(path, bytes.size());
}

void ResultCache::note_disk_file(const std::string& path, std::size_t bytes) {
  stats_.disk_bytes += bytes;
  disk_files_.push_back({path, bytes});
  evict_disk_to_budget();
}

void ResultCache::evict_disk_to_budget() {
  while (stats_.disk_bytes > policy_.max_disk_bytes && disk_files_.size() > 1) {
    const auto [path, bytes] = disk_files_.front();
    disk_files_.erase(disk_files_.begin());
    std::error_code ec;
    fs::remove(path, ec);
    stats_.disk_bytes -= std::min(stats_.disk_bytes, bytes);
    ++stats_.evictions;
  }
}

// ------------------------------------------------------------ snapshots

std::shared_ptr<const ml::TrainSnapshot> ResultCache::get_snapshot(const StageKey& key) {
  const MutexLock lock(mutex_);
  if (Entry* e = lookup_memory(key); e && e->snapshot) {
    ++stats_.hits;
    return e->snapshot;
  }
  if (auto snap = load_snapshot_from_disk(key)) {
    ++stats_.hits;
    ++stats_.disk_hits;
    insert_memory(key, Entry{snap, std::nullopt, snapshot_bytes(*snap), 0});
    return snap;
  }
  ++stats_.misses;
  return nullptr;
}

std::shared_ptr<const ml::TrainSnapshot> ResultCache::probe_snapshot(const StageKey& key) {
  const MutexLock lock(mutex_);
  if (Entry* e = lookup_memory(key); e && e->snapshot) return e->snapshot;
  if (auto snap = load_snapshot_from_disk(key)) {
    insert_memory(key, Entry{snap, std::nullopt, snapshot_bytes(*snap), 0});
    return snap;
  }
  return nullptr;
}

bool ResultCache::put_snapshot(const StageKey& key, std::shared_ptr<const ml::TrainSnapshot> snap) {
  const MutexLock lock(mutex_);
  if (memory_.contains(key)) {
    ++stats_.duplicate_puts;
    return false;
  }
  ++stats_.puts;
  const std::size_t bytes = snapshot_bytes(*snap);
  if (disk_ok_ && policy_.persist_snapshots) {
    const std::string path = snapshot_path(key);
    std::error_code ec;
    if (fs::exists(path, ec))
      ++stats_.duplicate_puts;  // an earlier process already committed it
    else
      persist(path, serialize_snapshot(*snap));
  }
  insert_memory(key, Entry{std::move(snap), std::nullopt, bytes, 0});
  return true;
}

// -------------------------------------------------------------- results

std::optional<ml::TrainResult> ResultCache::get_result(const StageKey& key) {
  const MutexLock lock(mutex_);
  if (Entry* e = lookup_memory(key); e && e->result) {
    ++stats_.hits;
    return e->result;
  }
  if (auto result = load_result_from_disk(key)) {
    ++stats_.hits;
    ++stats_.disk_hits;
    insert_memory(key, Entry{nullptr, result, sizeof(ml::TrainResult) + result->history.size() * sizeof(ml::EpochStats), 0});
    return result;
  }
  ++stats_.misses;
  return std::nullopt;
}

bool ResultCache::put_result(const StageKey& key, const ml::TrainResult& result) {
  const MutexLock lock(mutex_);
  if (const auto it = memory_.find(key); it != memory_.end() && it->second.result) {
    ++stats_.duplicate_puts;
    return false;
  }
  ++stats_.puts;
  if (disk_ok_) {
    const std::string path = result_path(key);
    std::error_code ec;
    if (fs::exists(path, ec))
      ++stats_.duplicate_puts;
    else
      persist(path, json::serialize(train_result_to_json(result)));
  }
  insert_memory(key, Entry{nullptr, result,
                           sizeof(ml::TrainResult) + result.history.size() * sizeof(ml::EpochStats),
                           0});
  return true;
}

CacheStats ResultCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

}  // namespace chpo::reuse
