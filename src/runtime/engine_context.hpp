// EngineContext — a fake capability modelling the Engine's single-thread
// confinement.
//
// The Engine is deliberately lock-free: zero mutexes, because every
// mutation happens on the backend coordinator thread (the thread inside a
// Runtime submit/wait/cancel call, which is also the thread running
// Backend::drive). That convention kept the engine simple, but nothing
// used to stop a future change from calling into the engine off-thread —
// the exact class of bug TSan caught twice (PR 2's TaskRecord read from a
// worker, PR 4's zombie-body registry race).
//
// EngineContext turns the convention into a compile-time contract. It is a
// *capability in name only*: acquiring it takes no lock and costs nothing
// at runtime. Under clang's -Wthread-safety, however, every Engine method
// annotated CHPO_REQUIRES(g_engine_ctx) refuses to compile unless the
// caller statically holds the capability — and the only way to hold it is
// an EngineContextScope, which the Runtime facade opens at each public
// entry point and Backend::drive and its primitives require. A worker
// thread (or any new code path) calling a mutating Engine method without
// the scope is a hard compile error in the clang CI job, not a data race
// waiting for TSan to sample it.
//
// The capability is process-global because it models a *role* ("I am the
// coordinator"), not a resource; two Runtimes on two threads each have
// their own real coordinator, and since the capability carries no state,
// sharing the tag object is harmless.
#pragma once

#include "support/thread_annotations.hpp"

namespace chpo::rt {

class CHPO_CAPABILITY("engine_context") EngineContext {
 public:
  EngineContext() = default;
  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// Purely static bookkeeping — no runtime effect.
  void acquire() CHPO_ACQUIRE() {}
  void release() CHPO_RELEASE() {}
};

/// The process-wide coordinator-role capability every Engine contract
/// names. See the file comment: a tag, not a lock.
inline EngineContext g_engine_ctx;

/// RAII scope asserting "this code runs on the coordinator thread".
/// Opened by Runtime public entry points before touching the engine;
/// required (not re-acquired) by Backend::drive, which they call into.
class CHPO_SCOPED_CAPABILITY EngineContextScope {
 public:
  explicit EngineContextScope(EngineContext& ctx) CHPO_ACQUIRE(ctx) : ctx_(ctx) { ctx_.acquire(); }
  EngineContextScope(const EngineContextScope&) = delete;
  EngineContextScope& operator=(const EngineContextScope&) = delete;
  ~EngineContextScope() CHPO_RELEASE() { ctx_.release(); }

 private:
  EngineContext& ctx_;
};

/// Statically assert "this code already runs on the coordinator" inside
/// code the analysis cannot thread the capability through — completion
/// predicates and callbacks that Backend::drive invokes
/// (which hold the capability, but behind a std::function boundary).
/// No runtime effect; use only where that invariant is documented.
inline void assert_engine_context() CHPO_ASSERT_CAPABILITY(g_engine_ctx) {}

}  // namespace chpo::rt
