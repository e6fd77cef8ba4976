#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/index.hpp"

namespace chpo::lint {

namespace {

namespace fs = std::filesystem;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

/// Path with '\\' normalised to '/'.
std::string normalise(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Find `token` in `line` at an identifier boundary on the left (so a match
/// inside a longer identifier does not count). Returns npos if absent.
std::string::size_type find_word(const std::string& line, const std::string& token,
                                 std::string::size_type from = 0) {
  for (auto pos = line.find(token, from); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    if (pos == 0 || !ident_char(line[pos - 1])) return pos;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Rule: raw-lock-call
// ---------------------------------------------------------------------------

void rule_raw_lock_call(const SourceFile& file, const std::vector<std::string>& lines,
                        std::vector<Finding>& out) {
  if (ends_with(file.path, "support/thread_annotations.hpp")) return;  // the RAII guards themselves
  static const std::string kMethods[] = {"lock()", "unlock()", "lock_shared()", "unlock_shared()"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (const std::string& method : kMethods) {
      for (auto pos = line.find(method); pos != std::string::npos;
           pos = line.find(method, pos + 1)) {
        // Only calls through an object: .method() or ->method().
        const bool via_dot = pos >= 1 && line[pos - 1] == '.';
        const bool via_arrow = pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>';
        if (!via_dot && !via_arrow) continue;
        out.push_back({file.path, static_cast<int>(i + 1), "raw-lock-call",
                       "raw " + method +
                           " call; use the RAII guards from support/thread_annotations.hpp "
                           "(MutexLock / ReaderLock / WriterLock)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-std-mutex
// ---------------------------------------------------------------------------

void rule_raw_std_mutex(const SourceFile& file, const std::vector<std::string>& lines,
                        std::vector<Finding>& out) {
  if (!contains(file.path, "src/")) return;  // wrappers are mandatory in the library only
  if (ends_with(file.path, "support/thread_annotations.hpp")) return;  // wraps the std types
  // The lockdep witness cannot guard itself with the instrumented wrappers
  // (its hooks would recurse into themselves), so it uses std::mutex.
  if (ends_with(file.path, "support/lockdep.cpp")) return;
  static const std::string kTypes[] = {"std::mutex",           "std::shared_mutex",
                                       "std::timed_mutex",     "std::recursive_mutex",
                                       "std::condition_variable",
                                       "std::condition_variable_any"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (const std::string& type : kTypes) {
      for (auto pos = find_word(line, type); pos != std::string::npos;
           pos = find_word(line, type, pos + 1)) {
        // Exact token only: a longer identifier (e.g. the _any variant,
        // checked as its own entry) is not a match for its prefix.
        const auto after = pos + type.size();
        if (after < line.size() && ident_char(line[after])) continue;
        out.push_back({file.path, static_cast<int>(i + 1), "raw-std-mutex",
                       type + " in src/; use the annotated chpo::Mutex / chpo::CondVar "
                              "wrappers so -Wthread-safety can check the lock discipline"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: nondeterministic-rng
// ---------------------------------------------------------------------------

void rule_nondeterministic_rng(const SourceFile& file, const std::vector<std::string>& lines,
                               std::vector<Finding>& out) {
  // Replay, lineage recovery and the content-addressed result cache all
  // assume seed-derived determinism; entropy sources are banned there.
  if (!contains(file.path, "/runtime/") && !contains(file.path, "/reuse/")) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (find_word(line, "std::random_device") != std::string::npos ||
        find_word(line, "random_device") != std::string::npos) {
      out.push_back({file.path, static_cast<int>(i + 1), "nondeterministic-rng",
                     "std::random_device in a deterministic path; derive RNG state from "
                     "the trial/task seed instead"});
      continue;
    }
    if (find_word(line, "rand(") != std::string::npos ||
        find_word(line, "srand(") != std::string::npos) {
      out.push_back({file.path, static_cast<int>(i + 1), "nondeterministic-rng",
                     "C rand()/srand() in a deterministic path; use a seeded "
                     "std::mt19937_64 derived from the trial/task seed"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-runtime-ref
// ---------------------------------------------------------------------------

void rule_raw_runtime_ref(const SourceFile& file, const std::vector<std::string>& lines,
                          std::vector<Finding>& out) {
  // The HPO and service layers speak to the engine through StudySession
  // handles only: a raw rt::Runtime& smuggles exclusive ownership back in
  // and breaks multi-study multiplexing (and its cancellation isolation).
  if (!contains(file.path, "src/hpo/") && !contains(file.path, "src/service/")) return;
  static const std::string kToken = "Runtime";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (auto pos = find_word(line, kToken); pos != std::string::npos;
         pos = find_word(line, kToken, pos + 1)) {
      auto after = pos + kToken.size();
      // Exact token only: RuntimeOptions etc. are fine (value types).
      if (after < line.size() && ident_char(line[after])) continue;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == '&') {
        out.push_back({file.path, static_cast<int>(i + 1), "raw-runtime-ref",
                       "rt::Runtime& in the hpo/service layer; take a rt::StudySession "
                       "instead (study-tagged, non-exclusive view of the runtime)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: callback-in-engine-mutation
// ---------------------------------------------------------------------------

void rule_callback_in_engine_mutation(const SourceFile& file,
                                      const std::vector<std::string>& lines,
                                      std::vector<Finding>& out) {
  if (!ends_with(file.path, "runtime/engine.cpp")) return;
  // Track the current Engine method from definition lines of the form
  // "<ret> Engine::name(". The terminal listener may only fire inside
  // flush_notifications(), the designated safe point where no TaskRecord
  // references are live.
  std::string current;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const auto def = line.find("Engine::");
    if (def != std::string::npos && (def == 0 || !ident_char(line[def - 1]))) {
      const auto name_start = def + std::string("Engine::").size();
      auto name_end = name_start;
      while (name_end < line.size() && ident_char(line[name_end])) ++name_end;
      if (name_end < line.size() && line[name_end] == '(' && name_end > name_start)
        current = line.substr(name_start, name_end - name_start);
    }
    const auto call = line.find("on_terminal_(");
    if (call == std::string::npos) continue;
    if (call > 0 && ident_char(line[call - 1])) continue;
    if (current == "flush_notifications") continue;
    out.push_back({file.path, static_cast<int>(i + 1), "callback-in-engine-mutation",
                   "terminal-listener invocation inside Engine::" +
                       (current.empty() ? std::string("<file scope>") : current) +
                       "; user callbacks may only fire from Engine::flush_notifications "
                       "(the no-live-references safe point)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: registry-lock-blocking-call
// ---------------------------------------------------------------------------

/// Blocking calls that may not run under a daemon queue lock. `sync` is
/// the journal's fsync barrier; the rest drive the Server/StudyManager/
/// engine. CondVar waits stay exempt — they release the mutex.
bool blocking_method(const std::string& name) {
  static const char* kBlocking[] = {"handle",  "handle_line_error", "step",    "step_for",
                                    "run_all", "next_completion",   "wait_on", "barrier",
                                    "sync"};
  for (const char* m : kBlocking)
    if (name == m) return true;
  return false;
}

/// Is this call site a blocking call by itself? Member calls of the
/// blocking set, or a free fsync() (the raw syscall).
bool directly_blocking(const CallSite& call) {
  if (call.member && blocking_method(call.callee)) return true;
  if (!call.member && call.callee == "fsync") return true;
  return false;
}

/// RAII guard declaration at token `i`: `MutexLock name(`. Returns the
/// token index of the `(` or 0 when not a guard.
std::size_t guard_open_paren(const std::vector<Token>& tokens, std::size_t i,
                             bool any_guard_kind) {
  const std::string& t = tokens[i].text;
  const bool is_guard =
      t == "MutexLock" || (any_guard_kind && (t == "WriterLock" || t == "ReaderLock"));
  if (!is_guard) return 0;
  if (i > 0 && (tokens[i - 1].text == "~" || tokens[i - 1].text == "class")) return 0;
  if (i + 2 >= tokens.size()) return 0;
  const std::string& name = tokens[i + 1].text;
  if (name.empty() || !(std::isalpha(static_cast<unsigned char>(name[0])) != 0 || name[0] == '_'))
    return 0;
  if (tokens[i + 2].text != "(") return 0;
  return i + 2;
}

void rule_registry_lock_blocking_call(const SourceFile& file, const FileIndex& index,
                                      std::vector<Finding>& out) {
  // The daemon's queues (connection registry, command/outbound queues) sit
  // between the I/O thread and the coordinator. Their locks exist to move
  // data, not to serialise work: a blocking Server/StudyManager call made
  // while one is held couples socket latency to engine latency (and is one
  // lock-order edge away from a deadlock). The rule follows calls one hop:
  // a file-local helper invoked from the guarded scope (free call or
  // this->) is checked for the same blocking calls, so moving the call
  // into a helper does not evade the rule. CondVar waits are exempt — they
  // release the mutex while sleeping, which is the one legitimate way to
  // block under a queue lock.
  if (!contains(file.path, "src/daemon/")) return;
  // The journal's own lock class (daemon.journal) IS the append/fsync
  // durability barrier — the one documented place that blocks under a lock
  // (DESIGN.md §11).
  if (ends_with(file.path, "daemon/journal.cpp")) return;
  const std::vector<Token>& tokens = index.tokens;
  for (const FunctionDef& def : index.functions) {
    int depth = 0;
    std::vector<int> guards;  // brace depth at each live guard declaration
    std::size_t call_cursor = 0;
    for (std::size_t i = def.body_begin; i <= def.body_end && i < tokens.size(); ++i) {
      const std::string& t = tokens[i].text;
      if (t == "{") {
        ++depth;
        continue;
      }
      if (t == "}") {
        --depth;
        while (!guards.empty() && guards.back() > depth) guards.pop_back();
        continue;
      }
      if (guard_open_paren(tokens, i, /*any_guard_kind=*/false) != 0) {
        guards.push_back(depth);
        i += 2;  // skip `name (` so the declaration is not seen as a call
        continue;
      }
      if (guards.empty()) continue;
      // Align with the precomputed call sites for this body.
      while (call_cursor < def.calls.size() && def.calls[call_cursor].token_index < i)
        ++call_cursor;
      if (call_cursor >= def.calls.size() || def.calls[call_cursor].token_index != i) continue;
      const CallSite& call = def.calls[call_cursor];
      if (directly_blocking(call)) {
        out.push_back(
            {file.path, call.line, "registry-lock-blocking-call",
             "blocking ." + call.callee +
                 "(...) while a MutexLock is held in daemon code; the "
                 "connection-registry/queue locks must bracket data moves only — "
                 "copy out under the lock, release it, then call the server/manager"});
        continue;
      }
      // One hop: a file-local helper called from the guarded scope.
      if (call.member && call.receiver != "this") continue;
      const FunctionDef* helper = find_function(index, call.callee);
      if (helper == nullptr || helper == &def) continue;
      for (const CallSite& inner : helper->calls) {
        if (!directly_blocking(inner)) continue;
        out.push_back(
            {file.path, call.line, "registry-lock-blocking-call",
             "call to " + helper->name + "() while a MutexLock is held in daemon code, and " +
                 helper->name + "() makes a blocking ." + inner.callee + "(...) call (line " +
                 std::to_string(inner.line) +
                 "); the queue locks must bracket data moves only — release the lock "
                 "before calling into the server/manager, even through a helper"});
        break;  // one finding per helper call site is enough
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lock-rank-order (cross-file)
// ---------------------------------------------------------------------------

/// Rank table entry parsed from support/lockdep.hpp.
struct RankTable {
  std::vector<std::pair<std::string, int>> classes;  // kName -> rank
  int rank_of(const std::string& cls) const {
    for (const auto& [name, rank] : classes)
      if (name == cls) return rank;
    return -1;
  }
  bool empty() const { return classes.empty(); }
};

/// Parse `inline constexpr LockClass kName{"label", rank};` entries.
/// The label is masked; the class identifier + trailing number carry the
/// information. Entries without a number (or spelled kUnranked) get -1.
RankTable parse_rank_table(const FileIndex& index) {
  RankTable table;
  const std::vector<Token>& tokens = index.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text != "LockClass") continue;
    const std::string& name = tokens[i + 1].text;
    if (name.empty() || name[0] != 'k') continue;  // `struct LockClass {` etc.
    if (tokens[i + 2].text != "{") continue;
    int rank = -1;
    for (std::size_t j = i + 3; j < tokens.size() && tokens[j].text != "}"; ++j) {
      const std::string& t = tokens[j].text;
      if (!t.empty() && std::isdigit(static_cast<unsigned char>(t[0])) != 0)
        rank = std::atoi(t.c_str());
    }
    table.classes.emplace_back(name, rank);
  }
  return table;
}

/// Member-name -> lock-class map from `Mutex member{lockdep::kClass}`
/// declarations (Mutex or SharedMutex, with or without chpo::).
using MemberClasses = std::vector<std::pair<std::string, std::string>>;

MemberClasses parse_member_classes(const FileIndex& index) {
  MemberClasses members;
  const std::vector<Token>& tokens = index.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text != "Mutex" && tokens[i].text != "SharedMutex") continue;
    const std::string& member = tokens[i + 1].text;
    if (member.empty() ||
        !(std::isalpha(static_cast<unsigned char>(member[0])) != 0 || member[0] == '_'))
      continue;
    if (tokens[i + 2].text != "{") continue;
    // Inside the braces: [chpo ::] lockdep :: kClass
    std::string cls;
    bool saw_lockdep = false;
    for (std::size_t j = i + 3; j < tokens.size() && tokens[j].text != "}"; ++j) {
      if (tokens[j].text == "lockdep") saw_lockdep = true;
      if (saw_lockdep && !tokens[j].text.empty() && tokens[j].text[0] == 'k')
        cls = tokens[j].text;
    }
    if (saw_lockdep && !cls.empty()) members.emplace_back(member, cls);
  }
  return members;
}

std::string class_of_member(const MemberClasses& members, const std::string& member) {
  for (const auto& [name, cls] : members)
    if (name == member) return cls;
  return {};
}

/// The lock member a guard declaration acquires: the last identifier
/// inside its parens (`mutex_`, `queues_[i].mutex`, `this->mutex_`).
std::string guarded_member(const std::vector<Token>& tokens, std::size_t open_paren) {
  std::string member;
  int depth = 0;
  for (std::size_t i = open_paren; i < tokens.size(); ++i) {
    if (tokens[i].text == "(") ++depth;
    if (tokens[i].text == ")" && --depth == 0) break;
    const std::string& t = tokens[i].text;
    if (!t.empty() &&
        (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_') && t != "this")
      member = t;
  }
  return member;
}

/// One resolved guard acquisition inside a function body.
struct GuardSite {
  std::string member;
  std::string lock_class;
  int rank = -1;
  int line = 0;
};

/// All guard declarations in `def` whose member resolves to a ranked class.
std::vector<GuardSite> ranked_guards(const FileIndex& index, const FunctionDef& def,
                                     const MemberClasses& members, const RankTable& table) {
  std::vector<GuardSite> sites;
  const std::vector<Token>& tokens = index.tokens;
  for (std::size_t i = def.body_begin; i <= def.body_end && i < tokens.size(); ++i) {
    const std::size_t open = guard_open_paren(tokens, i, /*any_guard_kind=*/true);
    if (open == 0) continue;
    const std::string member = guarded_member(tokens, open);
    const std::string cls = class_of_member(members, member);
    if (cls.empty()) continue;
    sites.push_back({member, cls, table.rank_of(cls), tokens[i].line});
    i = open;
  }
  return sites;
}

void rule_lock_rank_order(const std::vector<SourceFile>& files,
                          const std::vector<FileIndex>& indices, std::vector<Finding>& out) {
  // Cross-check the declared ranks (support/lockdep.hpp) against the guard
  // nesting visible in source: acquiring a lower-ranked class while a
  // higher-ranked one is held — directly or one call hop away — is exactly
  // what the runtime witness would abort on, caught at lint time instead.
  RankTable table;
  for (std::size_t i = 0; i < files.size(); ++i)
    if (ends_with(files[i].path, "support/lockdep.hpp")) table = parse_rank_table(indices[i]);
  if (table.empty()) return;  // tree without a rank table (synthetic tests)

  // Member maps per file; sibling .hpp/.cpp pairs share declarations.
  std::vector<MemberClasses> own(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) own[i] = parse_member_classes(indices[i]);
  const auto stem = [](const std::string& path) {
    const auto dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
  };
  std::vector<MemberClasses> effective = own;
  for (std::size_t i = 0; i < files.size(); ++i)
    for (std::size_t j = 0; j < files.size(); ++j)
      if (i != j && stem(files[i].path) == stem(files[j].path))
        effective[i].insert(effective[i].end(), own[j].begin(), own[j].end());

  for (std::size_t f = 0; f < files.size(); ++f) {
    const FileIndex& index = indices[f];
    const MemberClasses& members = effective[f];
    if (members.empty()) continue;
    const std::vector<Token>& tokens = index.tokens;
    for (const FunctionDef& def : index.functions) {
      int depth = 0;
      std::vector<std::pair<int, GuardSite>> held;  // (brace depth, guard)
      std::size_t call_cursor = 0;
      for (std::size_t i = def.body_begin; i <= def.body_end && i < tokens.size(); ++i) {
        const std::string& t = tokens[i].text;
        if (t == "{") {
          ++depth;
          continue;
        }
        if (t == "}") {
          --depth;
          while (!held.empty() && held.back().first > depth) held.pop_back();
          continue;
        }
        const std::size_t open = guard_open_paren(tokens, i, /*any_guard_kind=*/true);
        if (open != 0) {
          const std::string member = guarded_member(tokens, open);
          const std::string cls = class_of_member(members, member);
          if (!cls.empty()) {
            const GuardSite site{member, cls, table.rank_of(cls), tokens[i].line};
            for (const auto& [d, outer] : held) {
              if (outer.rank < 0 || site.rank < 0) continue;
              if (outer.lock_class == site.lock_class) continue;
              if (site.rank < outer.rank)
                out.push_back(
                    {files[f].path, site.line, "lock-rank-order",
                     "acquiring '" + site.lock_class + "' (rank " + std::to_string(site.rank) +
                         ") while holding '" + outer.lock_class + "' (rank " +
                         std::to_string(outer.rank) +
                         ", line " + std::to_string(outer.line) +
                         "); the rank table in support/lockdep.hpp orders acquisitions "
                         "low-to-high — reorder the guards or fix the table"});
            }
            held.emplace_back(depth, site);
          }
          i = open;
          continue;
        }
        if (held.empty()) continue;
        // One hop: a file-local helper acquiring a lower-ranked guard.
        while (call_cursor < def.calls.size() && def.calls[call_cursor].token_index < i)
          ++call_cursor;
        if (call_cursor >= def.calls.size() || def.calls[call_cursor].token_index != i)
          continue;
        const CallSite& call = def.calls[call_cursor];
        if (call.member && call.receiver != "this") continue;
        const FunctionDef* helper = find_function(index, call.callee);
        if (helper == nullptr || helper == &def) continue;
        for (const GuardSite& inner : ranked_guards(index, *helper, members, table)) {
          if (inner.rank < 0) continue;
          bool flagged = false;
          for (const auto& [d, outer] : held) {
            if (outer.rank < 0 || outer.lock_class == inner.lock_class) continue;
            if (inner.rank < outer.rank) {
              out.push_back(
                  {files[f].path, call.line, "lock-rank-order",
                   "call to " + helper->name + "() while holding '" + outer.lock_class +
                       "' (rank " + std::to_string(outer.rank) + "), and " + helper->name +
                       "() acquires '" + inner.lock_class + "' (rank " +
                       std::to_string(inner.rank) + ", line " + std::to_string(inner.line) +
                       "); the rank table in support/lockdep.hpp orders acquisitions "
                       "low-to-high — release the outer lock first or fix the table"});
              flagged = true;
              break;
            }
          }
          if (flagged) break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-std-function
// ---------------------------------------------------------------------------

/// Methods on the per-dispatch hot path: every admission, scheduling round
/// (including the candidate source the scheduler pulls from), attempt
/// registration and completion crosses these, so a std::function
/// there means a type-erasing heap allocation (and an indirect call the
/// optimiser cannot devirtualise) per task. On the backends that is the
/// per-dispatch launch and the per-completion collect (plus the thread
/// pool's run_job). Backend::drive legitimately takes a std::function —
/// once per wait, not once per task — and stays off this list.
bool hot_path_method(const std::string& qualifier, const std::string& name) {
  if (qualifier == "Engine") {
    static const char* kHot[] = {"on_submitted",     "make_ready",        "push_ready",
                                 "remove_from_ready", "count_demand",      "emit",
                                 "end_task",          "schedule",          "open_round",
                                 "next_by_readiness", "next_by_priority",  "smallest_demand",
                                 "walk_fifo",         "ranked_head",       "register_attempt",
                                 "prepare_body",      "complete_attempt",  "conclude_attempt"};
    for (const char* method : kHot)
      if (name == method) return true;
    return false;
  }
  static const char* kHot[] = {"launch", "collect", "run_job"};
  for (const char* method : kHot)
    if (name == method) return true;
  return false;
}

void rule_hot_path_std_function(const SourceFile& file, const std::vector<std::string>& lines,
                                std::vector<Finding>& out) {
  std::string qualifier;
  if (ends_with(file.path, "runtime/engine.cpp"))
    qualifier = "Engine";
  else if (ends_with(file.path, "runtime/thread_backend.cpp"))
    qualifier = "ThreadBackend";
  else if (ends_with(file.path, "runtime/sim_backend.cpp"))
    qualifier = "SimBackend";
  else if (ends_with(file.path, "runtime/backend.cpp"))
    qualifier = "Backend";
  else
    return;
  const std::string marker = qualifier + "::";
  std::string current;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    // Update the current method from *every* "<ret> Qual::name(" on the
    // line before flagging, so a definition whose own signature carries a
    // std::function is attributed to itself, not the previous method
    // (e.g. "bool Backend::drive(const std::function<bool()>& finished...").
    for (auto def = line.find(marker); def != std::string::npos;
         def = line.find(marker, def + 1)) {
      if (def > 0 && ident_char(line[def - 1])) continue;
      const auto name_start = def + marker.size();
      auto name_end = name_start;
      while (name_end < line.size() && ident_char(line[name_end])) ++name_end;
      if (name_end < line.size() && line[name_end] == '(' && name_end > name_start)
        current = line.substr(name_start, name_end - name_start);
    }
    if (find_word(line, "std::function") == std::string::npos) continue;
    if (!hot_path_method(qualifier, current)) continue;
    out.push_back({file.path, static_cast<int>(i + 1), "hot-path-std-function",
                   "std::function on the per-dispatch hot path (" + qualifier + "::" + current +
                       "); it type-erases through a heap allocation per task — use a "
                       "function pointer plus void* context (see StealPool::Sink) or a "
                       "pre-bound member"});
  }
}

// ---------------------------------------------------------------------------
// Rule: full-graph-scan
// ---------------------------------------------------------------------------

/// Functions that read the whole graph by design: the DOT export, and
/// quiescent-style debug asserts over a whole-graph invariant.
bool full_graph_scan_allowed(const std::string& function) {
  return function == "to_dot" || contains(function, "quiescent");
}

void rule_full_graph_scan(const SourceFile& file, const FileIndex& index,
                          std::vector<Finding>& out) {
  // The graph keeps every task a long-running process ever submitted, so a
  // per-request loop over it costs O(all history). Per-study work walks
  // the engine's per-study task index instead.
  if (!contains(file.path, "src/runtime/") && !contains(file.path, "src/service/") &&
      !contains(file.path, "src/daemon/"))
    return;
  const std::vector<Token>& tokens = index.tokens;
  const auto graph_size_at = [&](std::size_t k) {
    // graph_.size() / graph_->size() / graph().size() starting at token k.
    std::string glued;
    for (std::size_t j = k; j < tokens.size() && j < k + 7; ++j) glued += tokens[j].text;
    return glued.rfind("graph_.size()", 0) == 0 || glued.rfind("graph_->size()", 0) == 0 ||
           glued.rfind("graph().size()", 0) == 0;
  };
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "for" || tokens[i + 1].text != "(") continue;
    const FunctionDef* enclosing = nullptr;
    for (const FunctionDef& def : index.functions)
      if (def.body_begin < i && i < def.body_end) enclosing = &def;
    // Names bound to the graph size earlier in the function
    // (`const std::size_t total = graph_.size();`), so hoisting the bound
    // out of the header does not hide the scan.
    std::vector<std::string> size_names;
    for (std::size_t k = enclosing ? enclosing->body_begin : 0; k + 2 < i; ++k)
      if (tokens[k + 1].text == "=" && graph_size_at(k + 2)) size_names.push_back(tokens[k].text);
    // Walk the loop header up to the matching ')'.
    bool task_id = false;
    bool whole_graph = false;
    int depth = 0;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")" && --depth == 0) break;
      if (tokens[j].text == "TaskId") task_id = true;
      if (graph_size_at(j) || std::find(size_names.begin(), size_names.end(), tokens[j].text) !=
                                  size_names.end())
        whole_graph = true;
    }
    if (!task_id || !whole_graph) continue;
    const std::string function = enclosing ? enclosing->name : std::string();
    if (full_graph_scan_allowed(function)) continue;
    out.push_back({file.path, tokens[i].line, "full-graph-scan",
                   "loop over every task in the graph" +
                       (function.empty() ? std::string() : " in " + function + "()") +
                       "; the graph holds all history, so walk the engine's per-study task "
                       "index (Engine::study_tasks) instead"});
  }
}

// ---------------------------------------------------------------------------
// Rule: trace-kind-coverage (cross-file)
// ---------------------------------------------------------------------------

struct EnumMember {
  std::string name;
  int line = 0;
};

/// Parse the members of `enum class EventKind` from masked trace.hpp text.
std::vector<EnumMember> parse_event_kinds(const std::vector<std::string>& lines) {
  std::vector<EnumMember> members;
  bool in_enum = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (!in_enum) {
      if (contains(line, "enum class EventKind")) in_enum = true;
      continue;
    }
    if (contains(line, "};")) break;
    // Member lines look like "  Name," or "  Name = 3,".
    std::size_t p = 0;
    while (p < line.size() && std::isspace(static_cast<unsigned char>(line[p]))) ++p;
    if (p >= line.size() || !ident_char(line[p]) ||
        std::isdigit(static_cast<unsigned char>(line[p])))
      continue;
    auto end = p;
    while (end < line.size() && ident_char(line[end])) ++end;
    members.push_back({line.substr(p, end - p), static_cast<int>(i + 1)});
  }
  return members;
}

void rule_trace_kind_coverage(const std::vector<SourceFile>& files,
                              const std::vector<std::vector<std::string>>& masked_lines,
                              std::vector<Finding>& out) {
  const SourceFile* hpp = nullptr;
  const std::vector<std::string>* hpp_lines = nullptr;
  const SourceFile* cpp = nullptr;
  const std::vector<std::string>* cpp_lines = nullptr;
  const SourceFile* prv = nullptr;
  const std::vector<std::string>* prv_lines = nullptr;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (ends_with(files[i].path, "trace/trace.hpp")) {
      hpp = &files[i];
      hpp_lines = &masked_lines[i];
    } else if (ends_with(files[i].path, "trace/trace.cpp")) {
      cpp = &files[i];
      cpp_lines = &masked_lines[i];
    } else if (ends_with(files[i].path, "trace/prv_writer.cpp")) {
      prv = &files[i];
      prv_lines = &masked_lines[i];
    }
  }
  if (hpp == nullptr || hpp_lines == nullptr) return;  // tree without the trace subsystem
  const std::vector<EnumMember> members = parse_event_kinds(*hpp_lines);
  if (members.empty()) {
    out.push_back({hpp->path, 1, "trace-kind-coverage",
                   "could not parse any members of enum class EventKind"});
    return;
  }

  // kEventKindCount must name the *last* member, so exhaustive loops over
  // [0, kEventKindCount) cannot silently truncate when a kind is appended.
  {
    bool defined = false;
    for (std::size_t i = 0; i < hpp_lines->size(); ++i) {
      const std::string& line = (*hpp_lines)[i];
      if (find_word(line, "kEventKindCount") == std::string::npos) continue;
      if (!contains(line, "EventKind::")) continue;
      defined = true;
      if (!contains(line, "EventKind::" + members.back().name))
        out.push_back({hpp->path, static_cast<int>(i + 1), "trace-kind-coverage",
                       "kEventKindCount must be defined from the last EventKind member (" +
                           members.back().name + ")"});
      break;
    }
    if (!defined)
      out.push_back({hpp->path, members.back().line, "trace-kind-coverage",
                     "missing kEventKindCount defined from the last EventKind member (" +
                         members.back().name + ")"});
  }

  if (cpp == nullptr || cpp_lines == nullptr) {
    out.push_back({hpp->path, 1, "trace-kind-coverage",
                   "trace/trace.cpp (kind_name switch) not found next to trace.hpp"});
    return;
  }
  for (const EnumMember& m : members) {
    const std::string want = "case EventKind::" + m.name;
    bool found = false;
    for (const std::string& line : *cpp_lines) {
      const auto pos = find_word(line, want);
      if (pos == std::string::npos) continue;
      const auto after = pos + want.size();
      if (after < line.size() && ident_char(line[after])) continue;  // longer member name
      found = true;
      break;
    }
    if (!found)
      out.push_back({cpp->path, m.line, "trace-kind-coverage",
                     "EventKind::" + m.name +
                         " has no case in the kind_name switch (trace.cpp), so the .pcf "
                         "label table would miss it"});
  }

  // The .pcf label table must be generated by iterating kEventKindCount, not
  // by a hand-maintained list that can drift from the enum.
  if (prv != nullptr && prv_lines != nullptr) {
    bool uses_count = false;
    for (const std::string& line : *prv_lines)
      if (find_word(line, "kEventKindCount") != std::string::npos) uses_count = true;
    if (!uses_count)
      out.push_back({prv->path, 1, "trace-kind-coverage",
                     "prv_writer.cpp must emit .pcf labels by iterating kEventKindCount "
                     "so every EventKind gets a label"});
  }
}

}  // namespace

namespace {

/// If the `"` at `quote` opens a raw string literal, return the index of
/// its `R` prefix character (handling the u8R / uR / UR / LR encoding
/// prefixes); std::string::npos otherwise.
std::size_t raw_string_prefix(const std::string& text, std::size_t quote) {
  if (quote == 0 || text[quote - 1] != 'R') return std::string::npos;
  std::size_t start = quote - 1;  // the 'R'
  if (start >= 2 && text[start - 2] == 'u' && text[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 &&
             (text[start - 1] == 'u' || text[start - 1] == 'U' || text[start - 1] == 'L')) {
    start -= 1;
  }
  if (start > 0 && ident_char(text[start - 1])) return std::string::npos;  // e.g. `FooR"`
  return quote - 1;
}

}  // namespace

std::string mask_comments_and_literals(const std::string& text) {
  std::string out = text;
  enum class State { Code, LineComment, BlockComment, String, Char };
  State state = State::Code;
  std::size_t i = 0;
  const auto blank = [&](std::size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < out.size()) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '"' && raw_string_prefix(out, i) != std::string::npos) {
          // Raw string literal, any delimiter: R"delim( ... )delim". The
          // whole literal (delimiters included) is blanked in one pass so
          // multi-line content can never leak into rule matching.
          std::size_t p = i + 1;
          std::string delim;
          while (p < out.size() && out[p] != '(' && delim.size() < 16) delim += out[p++];
          const std::string closer = ")" + delim + "\"";
          const std::size_t close = out.find(closer, p);
          const std::size_t end =
              close == std::string::npos ? out.size() : close + closer.size();
          for (std::size_t q = i + 1; q < end; ++q) blank(q);
          i = end;
        } else if (c == '"') {
          state = State::String;
          ++i;
        } else if (c == '\'') {
          state = State::Char;
          ++i;
        } else {
          ++i;
        }
        break;
      case State::LineComment:
        if (c == '\\' && next == '\n') {
          // Backslash-continued // comment: the next line is comment too.
          blank(i);
          i += 2;
        } else if (c == '\n') {
          state = State::Code;
          ++i;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          blank(i);
          blank(i + 1);
          i += 2;
          state = State::Code;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::String:
        if (c == '\\' && i + 1 < out.size()) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '"') {
          ++i;
          state = State::Code;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::Char:
        if (c == '\\' && i + 1 < out.size()) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '\'') {
          ++i;
          state = State::Code;
        } else {
          blank(i);
          ++i;
        }
        break;
    }
  }
  return out;
}

std::vector<Finding> lint_files(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  std::vector<std::vector<std::string>> masked;
  std::vector<FileIndex> indices;
  masked.reserve(files.size());
  indices.reserve(files.size());
  for (const SourceFile& file : files) {
    const std::string masked_text = mask_comments_and_literals(file.content);
    masked.push_back(split_lines(masked_text));
    indices.push_back(build_file_index(masked_text));
  }

  std::vector<SourceFile> normalised_files;
  normalised_files.reserve(files.size());
  for (const SourceFile& file : files) normalised_files.push_back({normalise(file.path), {}});

  for (std::size_t i = 0; i < files.size(); ++i) {
    rule_raw_lock_call(normalised_files[i], masked[i], findings);
    rule_raw_std_mutex(normalised_files[i], masked[i], findings);
    rule_nondeterministic_rng(normalised_files[i], masked[i], findings);
    rule_raw_runtime_ref(normalised_files[i], masked[i], findings);
    rule_callback_in_engine_mutation(normalised_files[i], masked[i], findings);
    rule_registry_lock_blocking_call(normalised_files[i], indices[i], findings);
    rule_hot_path_std_function(normalised_files[i], masked[i], findings);
    rule_full_graph_scan(normalised_files[i], indices[i], findings);
  }

  rule_trace_kind_coverage(normalised_files, masked, findings);
  rule_lock_rank_order(normalised_files, indices, findings);

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  // Overlapping function definitions (a heuristic parse can nest them) may
  // report the same violation twice; findings are de-duplicated, not
  // suppressed.
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule && a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

TreeScan scan_tree(const std::string& root) {
  TreeScan scan;
  std::error_code root_ec;
  if (!fs::is_directory(root, root_ec)) {
    scan.errors.push_back("root is not a directory: " + root);
    return scan;
  }
  std::vector<SourceFile> files;
  static const char* kSubtrees[] = {"src", "tools", "bench"};
  for (const char* subtree : kSubtrees) {
    const fs::path dir = fs::path(root) / subtree;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") continue;
      const std::string rel = normalise(fs::relative(it->path(), root, ec).string());
      std::ifstream in(it->path(), std::ios::binary);
      if (!in) {
        scan.errors.push_back("cannot read " + rel);
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      if (in.bad()) {
        scan.errors.push_back("read error in " + rel);
        continue;
      }
      files.push_back({rel, buf.str()});
    }
    if (ec) scan.errors.push_back("walk error under " + (fs::path(root) / subtree).string() +
                                  ": " + ec.message());
  }
  scan.files_scanned = files.size();
  if (files.empty())
    scan.errors.push_back("no C++ sources found under " + root +
                          " (expected src/, tools/ or bench/ subtrees)");
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  scan.findings = lint_files(files);
  return scan;
}

std::vector<Finding> lint_tree(const std::string& root) { return scan_tree(root).findings; }

std::string format_findings(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings)
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  return out.str();
}

}  // namespace chpo::lint
