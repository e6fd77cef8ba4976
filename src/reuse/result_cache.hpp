// ResultCache — content-addressed store for stage outputs.
//
// Two tiers: an in-memory LRU map (hot snapshots flowing between stages of
// one run) and an optional on-disk store under ReusePolicy::cache_dir
// (survives the process; what warm reruns and rung promotions hit).
// Entries are immutable once written — keys are content hashes, so any
// writer for a key computes the same value and puts are first-write-wins:
// a duplicate put (speculative attempt, retry, racing unmerged twins) is
// counted and dropped, never overwrites (the no-double-commit rule in
// DESIGN.md).
//
// All methods are thread-safe; snapshot values are returned as
// shared_ptr<const ...> so task bodies keep them alive across eviction.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/trainer.hpp"
#include "reuse/policy.hpp"
#include "reuse/stage_key.hpp"
#include "support/thread_annotations.hpp"

namespace chpo::reuse {

struct CacheStats {
  std::size_t hits = 0;        ///< get_* served (memory or disk)
  std::size_t misses = 0;      ///< get_* came up empty
  std::size_t disk_hits = 0;   ///< subset of hits loaded from disk
  std::size_t puts = 0;        ///< entries committed
  std::size_t duplicate_puts = 0;  ///< dropped first-write-wins re-puts
  std::size_t evictions = 0;   ///< in-memory LRU evictions
  std::size_t corrupt = 0;     ///< unreadable disk entries dropped
  std::size_t memory_bytes = 0;
  std::size_t disk_bytes = 0;
  std::size_t bytes_written = 0;  ///< total bytes persisted to disk
};

class ResultCache {
 public:
  /// Scans policy.cache_dir (creating it if needed) so pre-existing
  /// entries are immediately visible. Unreadable directories degrade to
  /// in-memory-only with a warning.
  explicit ResultCache(ReusePolicy policy);

  /// Snapshot lookup; counts a hit or miss.
  std::shared_ptr<const ml::TrainSnapshot> get_snapshot(const StageKey& key);
  /// Like get_snapshot but silent — for speculative descending probes that
  /// would otherwise inflate the miss counter.
  std::shared_ptr<const ml::TrainSnapshot> probe_snapshot(const StageKey& key);
  /// First-write-wins; returns false (and counts duplicate_puts) when the
  /// key already exists.
  bool put_snapshot(const StageKey& key, std::shared_ptr<const ml::TrainSnapshot> snap);

  /// Result lookup/commit; same counting and write-once semantics.
  std::optional<ml::TrainResult> get_result(const StageKey& key);
  bool put_result(const StageKey& key, const ml::TrainResult& result);

  CacheStats stats() const;
  const ReusePolicy& policy() const { return policy_; }

 private:
  struct Entry {
    std::shared_ptr<const ml::TrainSnapshot> snapshot;  ///< one of the two is set
    std::optional<ml::TrainResult> result;
    std::size_t bytes = 0;
    std::uint64_t tick = 0;
  };

  // Locked helpers — the CHPO_REQUIRES contracts make "caller must hold
  // mutex_" a compile-time rule under clang's -Wthread-safety.
  Entry* lookup_memory(const StageKey& key) CHPO_REQUIRES(mutex_);
  void insert_memory(const StageKey& key, Entry entry) CHPO_REQUIRES(mutex_);
  void evict_to_budget() CHPO_REQUIRES(mutex_);
  std::string snapshot_path(const StageKey& key) const;
  std::string result_path(const StageKey& key) const;
  std::shared_ptr<const ml::TrainSnapshot> load_snapshot_from_disk(const StageKey& key)
      CHPO_REQUIRES(mutex_);
  std::optional<ml::TrainResult> load_result_from_disk(const StageKey& key)
      CHPO_REQUIRES(mutex_);
  void persist(const std::string& path, const std::string& bytes) CHPO_REQUIRES(mutex_);
  void drop_corrupt(const std::string& path, const char* what) CHPO_REQUIRES(mutex_);
  void note_disk_file(const std::string& path, std::size_t bytes) CHPO_REQUIRES(mutex_);
  void evict_disk_to_budget() CHPO_REQUIRES(mutex_);

  ReusePolicy policy_;
  /// Written once in the constructor (pre-sharing), read under mutex_.
  bool disk_ok_ = false;
  mutable Mutex mutex_{lockdep::kResultCache};
  std::unordered_map<StageKey, Entry, StageKeyHash> memory_ CHPO_GUARDED_BY(mutex_);
  /// On-disk files in write order (oldest first) for disk-side eviction.
  std::vector<std::pair<std::string, std::size_t>> disk_files_ CHPO_GUARDED_BY(mutex_);
  std::uint64_t tick_ CHPO_GUARDED_BY(mutex_) = 0;
  CacheStats stats_ CHPO_GUARDED_BY(mutex_);
};

}  // namespace chpo::reuse
