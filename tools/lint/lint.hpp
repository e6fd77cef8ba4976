// chpo_lint — repo-invariant linter.
//
// Enforces, at line level and with zero external dependencies, the
// conventions the compiler cannot check (clang's -Wthread-safety covers
// lock discipline *types*; these rules cover repo-specific idioms):
//
//   trace-kind-coverage        every trace::EventKind member has a
//                              kind_name() case in trace.cpp (which is what
//                              the .pcf writer iterates), kEventKindCount
//                              names the last member, and prv_writer.cpp
//                              emits labels exhaustively via the counter.
//   raw-lock-call              no .lock()/.unlock() (or shared variants)
//                              outside the RAII guards in
//                              support/thread_annotations.hpp.
//   raw-std-mutex              no std::mutex / std::shared_mutex /
//                              std::condition_variable members in src/ —
//                              use the annotated chpo::Mutex wrappers so
//                              the thread-safety analysis can see locks.
//   nondeterministic-rng       no std::random_device / rand() / srand() in
//                              deterministic runtime/reuse paths (replay,
//                              lineage recovery and the content-addressed
//                              cache all depend on seed-derived RNG only).
//   raw-runtime-ref            no rt::Runtime& in src/hpo/ or src/service/
//                              — drivers and the study manager speak
//                              through rt::StudySession handles so N
//                              studies can multiplex one engine
//                              (RuntimeOptions and by-value Runtime
//                              construction remain fine).
//   callback-in-engine-mutation  engine.cpp may invoke the terminal
//                              listener (on_terminal_) only inside
//                              flush_notifications() — never from a
//                              mutation path holding TaskRecord references.
//   registry-lock-blocking-call  src/daemon/ may not call a blocking
//                              Server/StudyManager/journal method (.handle,
//                              .step, .step_for, .run_all,
//                              .next_completion, .wait_on, .barrier,
//                              .sync) — or fsync() —
//                              while a MutexLock guard is live: the
//                              connection-registry/queue locks are for
//                              moving data across threads, and holding one
//                              across an engine call wedges the I/O thread
//                              behind the engine (lock, move, unlock, act).
//                              Cross-function: a call to a file-local
//                              helper from the guarded scope is followed
//                              one hop, so hiding the blocking call behind
//                              a helper does not evade the rule.
//                              daemon/journal.cpp is the one documented
//                              exemption — its lock IS the fsync barrier.
//   lock-rank-order            the rank table in support/lockdep.hpp is
//                              the blessed global acquisition order; this
//                              rule parses it, maps each `Mutex
//                              member{lockdep::kClass}` declaration
//                              (sibling .hpp/.cpp pairs share members) and
//                              flags any guard nesting visible in source —
//                              directly or one call hop away — that
//                              acquires a lower-ranked class while a
//                              higher-ranked one is held. The runtime
//                              witness (CHPO_LOCKDEP) checks the orders
//                              that only materialize at runtime; this rule
//                              catches the ones visible statically, on
//                              every build, with no test coverage needed.
//   full-graph-scan            no `for (TaskId id = 0; id < graph_.size();
//                              ...)` loop in src/runtime/, src/service/ or
//                              src/daemon/: the graph holds every task a
//                              long-running process ever ran, so such a
//                              loop makes a per-request cost grow with all
//                              history. Per-study work walks the engine's
//                              per-study task index. Allowed in the DOT
//                              export (to_dot) and quiescent-style debug
//                              asserts; trace analysis lives in src/trace/,
//                              outside the scanned trees.
//
// Header self-containedness (each public header compiles as its own
// translation unit) is the one rule not here: it needs a compiler, so it is
// generated into build targets by cmake/HeaderSelfCheck.cmake.
//
// Comments and string/char literals are masked before matching, so rule
// text in comments (or this very tool's pattern strings) never self-flags.
// The cross-function rules run on a token stream + per-file function index
// (lint/index.hpp) built from the same masked text.
#pragma once

#include <string>
#include <vector>

namespace chpo::lint {

struct Finding {
  std::string file;  ///< path as scanned (relative to the root passed in)
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

/// One in-memory source file (the unit tests feed synthetic trees).
struct SourceFile {
  std::string path;     ///< used for rule dispatch (suffix matching)
  std::string content;  ///< raw text
};

/// Replace comment bodies and string/char literal contents with spaces,
/// preserving line structure. Handles //, /* */ (including multi-line),
/// backslash-continued line comments, escapes, and raw strings with
/// arbitrary delimiters and encoding prefixes (R"( )", R"x( )x", u8R"...).
std::string mask_comments_and_literals(const std::string& text);

/// Run every rule over the given files.
std::vector<Finding> lint_files(const std::vector<SourceFile>& files);

/// Result of scanning a tree on disk: findings plus the I/O truth CI needs
/// to distinguish "clean" from "didn't actually scan anything".
struct TreeScan {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::vector<std::string> errors;  ///< missing root, unreadable files, empty scan
};

/// Collect .hpp/.cpp files under root/src, root/tools and root/bench (the
/// subtrees that exist) and lint them. Paths in findings are relative to
/// `root`. Records an error when the root is not a directory, a source
/// file cannot be read, or no source files were found at all.
TreeScan scan_tree(const std::string& root);

/// Back-compat wrapper around scan_tree(): findings only, I/O problems
/// ignored (a missing subtree is simply an empty result). The CLI uses
/// scan_tree() so CI gets a hard failure instead of a silent no-op.
std::vector<Finding> lint_tree(const std::string& root);

/// "file:line: [rule] message" per finding.
std::string format_findings(const std::vector<Finding>& findings);

}  // namespace chpo::lint
