// Runtime lock-order witness ("lockdep") — deadlock immunity, layer 1.
//
// clang's Thread Safety Analysis (support/thread_annotations.hpp) proves
// *which* lock guards a field; it says nothing about the *order* locks
// nest across threads. This header adds the missing half: every
// chpo::Mutex / chpo::SharedMutex may carry a LockClass (a name plus a
// rank in the global acquisition order), and under -DCHPO_LOCKDEP=ON a
// process-wide witness
//
//   - records the held-lock set of every thread on every acquire
//     (with the acquisition backtrace),
//   - maintains the observed lock-order graph over lock classes, and
//   - aborts the process on the FIRST violation it sees, printing both
//     acquisition stacks:
//       * a cycle in the order graph (the classic ABBA inversion),
//       * a rank inversion (acquiring a lower-ranked class while a
//         higher-ranked one is held), or
//       * a same-instance re-acquisition (guaranteed self-deadlock).
//
// The witness fires on the *potential* deadlock — the first run in which
// two locks are ever taken in opposite orders — not on the 1-in-10^6
// interleaving where the threads actually wedge. Checks run before the
// underlying mutex blocks, so a seeded ABBA aborts instead of hanging.
//
// Rank discipline: a thread may only acquire a class whose rank is >=
// every rank it already holds (outer subsystems are low, leaf locks are
// high; ties between *different* classes are legal and left to the order
// graph). Classes with rank kUnranked — including the anonymous per-
// instance classes given to default-constructed mutexes (test locals) —
// are exempt from the rank check but still tracked in the order graph,
// so an ABBA between unranked locks is caught too. Two instances of the
// same named class never nest in this codebase; nesting them is allowed
// by the witness but invisible to it (no self-edges), which is why every
// subsystem whose instances could ever nest must use distinct classes.
//
// The rank table below is the single source of truth for the blessed
// acquisition order. chpo_lint's `lock-rank-order` rule parses this file
// and cross-checks the declared ranks against the guard nesting it can
// see in source (one call level deep); the witness checks the orders
// that only materialize at runtime. DESIGN.md §11 documents the split.
//
// With CHPO_LOCKDEP off, everything here compiles to nothing: the hooks
// are empty inlines and a Mutex with a LockClass is exactly a Mutex.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace chpo::lockdep {

/// Rank for classes (and anonymous instances) outside the global order.
inline constexpr int kUnranked = -1;

/// One lock class: every mutex guarding the same kind of state shares a
/// class. `rank` is the class's position in the global acquisition order
/// (low = outer, acquired first; high = inner/leaf, acquired last).
struct LockClass {
  const char* name;
  int rank = kUnranked;
};

// ---------------------------------------------------------------------------
// The rank table: the blessed global acquisition order, outermost first.
// Gaps of 10 leave room to slot a new subsystem between two layers
// without renumbering. Parsed by chpo_lint (lock-rank-order), so keep
// each entry on one line in the form: LockClass kName{"label", rank};
// ---------------------------------------------------------------------------

/// SocketDaemon's I/O-thread -> coordinator command queue. Data moves
/// only (lint-enforced); ordered before every engine-side lock.
inline constexpr LockClass kDaemonCmdQueue{"daemon.cmd_queue", 10};
/// SocketDaemon's coordinator -> I/O-thread outbound-bytes queue.
inline constexpr LockClass kDaemonOutbox{"daemon.outbox", 20};
/// StateJournal fd state: the append/fsync barrier on the reply path.
inline constexpr LockClass kDaemonJournal{"daemon.journal", 30};
/// ThreadBackend's worker -> coordinator completion queue.
inline constexpr LockClass kBackendCompletions{"runtime.completions", 40};
/// One StealPool per-worker job deque (all shards share the class; a
/// worker or thief holds at most one shard at a time).
inline constexpr LockClass kStealShard{"runtime.steal_shard", 50};
/// StealPool park/wake epoch (taken after the shard lock is dropped).
inline constexpr LockClass kStealPark{"runtime.steal_park", 60};
/// FaultInjector rng + forced-failure table (hit from worker bodies).
inline constexpr LockClass kFaultInjector{"runtime.fault", 80};
/// DataRegistry version table (readers in bodies, writer on coordinator).
inline constexpr LockClass kDataRegistry{"runtime.data_registry", 90};
/// ResultCache memory/disk tiers. Logs warnings while held, so it must
/// stay below (outside) the log sink.
inline constexpr LockClass kResultCache{"reuse.result_cache", 100};
/// TraceSink event buffer.
inline constexpr LockClass kTraceSink{"trace.sink", 110};
/// The stderr log sink: the innermost lock in the process — anything may
/// log, so nothing may be acquired under it.
inline constexpr LockClass kLogSink{"support.log_sink", 120};

// ---------------------------------------------------------------------------
// Witness hooks (called by chpo::Mutex / chpo::SharedMutex).
// ---------------------------------------------------------------------------

#ifdef CHPO_LOCKDEP

/// Register a named class (dedups by LockClass address — the inline
/// constexpr table entries are unique program-wide). Returns the class id.
int register_class(const LockClass& cls);

/// Register an anonymous per-instance class for a default-constructed
/// mutex: unranked, but still a node in the order graph so ABBA between
/// ad-hoc (e.g. test-local) locks is caught.
int register_anonymous();

/// Pre-acquisition check + bookkeeping. Runs BEFORE the underlying mutex
/// blocks; aborts the process with both stacks on the first violation.
void note_acquire(int class_id, const void* instance);

/// Post-release bookkeeping (removes the instance from the held set).
void note_release(int class_id, const void* instance);

#else  // !CHPO_LOCKDEP — everything inlines to nothing.

constexpr int register_class(const LockClass&) { return -1; }
constexpr int register_anonymous() { return -1; }
inline void note_acquire(int, const void*) {}
inline void note_release(int, const void*) {}

#endif

// ---------------------------------------------------------------------------
// Introspection (tests, diagnostics). Real in lockdep.cpp under
// CHPO_LOCKDEP; trivial inlines otherwise.
// ---------------------------------------------------------------------------

#ifdef CHPO_LOCKDEP

/// True when the witness is compiled in and active.
bool enabled();
/// Distinct (from, to) class edges observed so far.
std::size_t edge_count();
/// True iff the observed lock-order graph is acyclic. (The witness
/// aborts on the first cycle, so a live process should always see true;
/// the positive nesting test asserts it explicitly.)
bool order_cycle_free();
/// Observed edges as (from-name, to-name) pairs, sorted.
std::vector<std::pair<std::string, std::string>> observed_edges();
/// Locks currently held by the calling thread (class names, outer first).
std::vector<std::string> held_by_this_thread();

#else

inline bool enabled() { return false; }
inline std::size_t edge_count() { return 0; }
inline bool order_cycle_free() { return true; }
inline std::vector<std::pair<std::string, std::string>> observed_edges() { return {}; }
inline std::vector<std::string> held_by_this_thread() { return {}; }

#endif

}  // namespace chpo::lockdep
