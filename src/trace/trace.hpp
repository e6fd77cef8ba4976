// Execution tracing — the Extrae/Paraver substitute.
//
// The paper's evaluation (Figures 4-6) is read off Paraver traces: which
// core ran which task, when, and how the runtime filled resources. TraceSink
// collects equivalent records from either backend (wall-clock seconds from
// the threaded backend, virtual seconds from the simulator). Analysis and
// rendering live in analysis.hpp / gantt.hpp; prv_writer.hpp emits a
// Paraver-compatible .prv file.
//
// Tracing can be disabled (the paper: "these two features can easily be
// turned off by a simple flag"), which turns record() into an atomic-flag
// check — the overhead benchmark measures exactly this.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"

namespace chpo::trace {

/// Point events mark instants; span events carry a duration.
enum class EventKind : std::uint8_t {
  TaskRun,       ///< span: task body executing on its resources
  Transfer,      ///< span: input staging onto the execution node
  TaskSubmit,    ///< point: main program submitted the task (event flag)
  TaskSchedule,  ///< point: scheduler placed the task
  TaskFailure,   ///< point: an attempt failed
  TaskRetry,     ///< point: runtime relaunched a failed task
  NodeDown,      ///< point: a node was lost
  Sync,          ///< point: wait_on barrier reached
  WaitAny,       ///< point: next_completion delivered task_id
  Cancel,        ///< point: caller cancelled the task (early stop)
  StragglerDetected,  ///< point: a running attempt crossed the straggler threshold
  SpeculativeLaunch,  ///< point: duplicate attempt launched on another node
  SpeculativeWin,     ///< point: a speculative duplicate finished first
  Backoff,            ///< span: retry delayed by exponential backoff
  CacheHit,           ///< point: reuse stage/result served from the cache
  CacheMiss,          ///< point: reuse stage had to be computed
  StageShared,        ///< point: one planned stage serves several trials
  NodeUp,             ///< point: a lost node rejoined the cluster
  DataLost,           ///< point: a committed version lost its last replica
  LineageRecompute,   ///< point: a recovery attempt recommitted lost data
  Quarantine,         ///< point: a flaky node entered health quarantine
  StudyOpen,          ///< point: a study session was opened (task_id = study)
  StudyPause,         ///< point: a study's ready queue was held
  StudyResume,        ///< point: a paused study resumed scheduling
  StudyCancel,        ///< point: a study's in-flight work was torn down
};

/// Number of EventKind values (for exhaustive .pcf / report iteration).
inline constexpr int kEventKindCount = static_cast<int>(EventKind::StudyCancel) + 1;

struct Event {
  EventKind kind = EventKind::TaskRun;
  std::uint64_t task_id = 0;
  /// Owning study of the task (or the subject study of a Study* event).
  std::uint32_t study = 0;
  int attempt = 0;
  std::string task_name;
  /// Resource placement. node < 0 means "not bound to a node" (e.g. submit).
  int node = -1;
  /// Core slots occupied on the node (affinity set); empty for point events.
  std::vector<unsigned> cores;
  std::vector<unsigned> gpus;
  double t_start = 0.0;  ///< seconds (wall or virtual)
  double t_end = 0.0;    ///< == t_start for point events
};

class TraceSink {
 public:
  explicit TraceSink(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record an event; no-op (single atomic load) when disabled.
  void record(Event event);

  /// Snapshot of all events sorted by t_start. Safe while recording.
  std::vector<Event> events() const;

  std::size_t size() const;
  void clear();

 private:
  std::atomic<bool> enabled_;
  mutable Mutex mutex_{lockdep::kTraceSink};
  std::vector<Event> events_ CHPO_GUARDED_BY(mutex_);
};

/// Human-readable name for an event kind.
const char* kind_name(EventKind kind);

}  // namespace chpo::trace
