// Runtime lock-order discipline ("lockdep"), the dynamic complement to the
// Clang Thread Safety Analysis annotations in common/synchronization.h: TSA
// proves WHICH lock guards each field; lockdep proves the ORDER locks are
// taken in can never deadlock.
//
// Model (after the Linux kernel's lockdep): every Mutex/SharedMutex belongs
// to a named lock CLASS, registered at its declaration site
// (`Mutex mu_{"cluster.node"};`). Each thread keeps a stack of held locks,
// and a process-global directed graph over lock classes gains an edge
// A -> B the first time any thread acquires a B-class lock while holding an
// A-class lock. A new edge that closes a cycle is a POTENTIAL deadlock —
// two code paths disagree about the order — and is reported with both
// acquisition stacks and aborts the process immediately, even though the
// deadly interleaving itself never executed. Every test run under
// -DCOUCHKV_LOCKDEP=ON is therefore a deadlock detector that does not need
// to get lucky with thread timing.
//
// Also reported (as WARN + counter, not fatal, queryable for tests):
//   * condvar waits entered while holding any lock besides the waited one
//     (the held lock blocks for an unbounded time);
//   * ScopedBlockingCall sites (disk I/O, socket round-trips) reached while
//     a lock class flagged kHotPath is held — the inventory the
//     thread-per-core hot-path rework needs.
//
// Everything here is compiled out to zero-cost no-ops unless the build sets
// -DCOUCHKV_LOCKDEP (CMake: -DCOUCHKV_LOCKDEP=ON).
//
// The graph can be dumped as JSON for the static cross-checker
// (scripts/analysis/lock_order.py): pass --dump-lock-graph=FILE on any test
// binary's command line, or set COUCHKV_LOCKDEP_DUMP=FILE or
// COUCHKV_LOCKDEP_DUMP_DIR=DIR (one file per process) in the environment.
#ifndef COUCHKV_COMMON_LOCKDEP_H_
#define COUCHKV_COMMON_LOCKDEP_H_

#include <cstdint>
#include <string>

namespace couchkv::lockdep {

// Lock-class flags (second argument of the Mutex/SharedMutex constructors).
// kHotPath: blocking calls (ScopedBlockingCall) while holding a lock of
//           this class are reported — the class sits on the request hot
//           path and must never wait on disk or the network.
// kNestable: two locks of this SAME class may be held at once (e.g. a
//            migration holding source+target of a per-shard lock); without
//            it, same-class nesting is treated as a potential self-deadlock.
inline constexpr unsigned kHotPath = 1u << 0;
inline constexpr unsigned kNestable = 1u << 1;

#if defined(COUCHKV_LOCKDEP)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

// Statically declares the acquisition order `before` -> `after` between two
// lock classes. Expands to nothing at runtime: the declaration is consumed
// by scripts/analysis/lock_order.py, which builds the declared hierarchy
// DAG, fails the lint on cycles, and cross-checks each declared edge
// against the runtime-observed graph dump (a declared edge no test ever
// exercises is flagged as a coverage gap). Place these next to the mutex
// declarations they order.
#define COUCHKV_LOCK_ORDER(before, after) \
  static_assert(sizeof(before) > 1 && sizeof(after) > 1, "lock-order decl")

#if defined(COUCHKV_LOCKDEP)

// Registers (or finds) the class `name` and binds one mutex instance to it.
// Returns the class id stored in the mutex. Flags are OR-ed into the class:
// every declaration site of a class may pass them, the union applies.
uint32_t RegisterInstance(const char* name, unsigned flags);

// Acquisition hooks, called by the synchronization.h wrappers.
// OnAcquire runs BEFORE the underlying lock() blocks, so a cycle is
// reported even when the deadlock would actually hang. `trylock`
// acquisitions cannot block and therefore add no incoming edges (but the
// lock still joins the held stack and seeds outgoing edges).
void OnAcquire(const void* instance, uint32_t class_id, bool shared);
void OnTryAcquired(const void* instance, uint32_t class_id, bool shared);
void OnRelease(const void* instance);

// CondVar::Wait entry: reports (WARN + counter) when the thread holds any
// lock besides `waited_instance`.
void OnCondVarWait(const void* waited_instance);

// ScopedBlockingCall body: reports (WARN + counter) when any held lock's
// class carries kHotPath.
void OnBlockingCall(const char* what);

// --- Introspection (tests, tools) ---

// Process-lifetime counters for the non-fatal report kinds.
uint64_t CondVarHoldReports();
uint64_t BlockingWhileHotReports();
// Last non-fatal report line (empty when none yet).
std::string LastReport();

// Current class/edge graph as JSON:
//   {"classes":[{"name":...,"flags":...}],
//    "edges":[{"from":...,"to":...}]}
std::string DumpGraphJson();

// Number of distinct class->class edges observed so far.
uint64_t EdgeCount();

#else  // !COUCHKV_LOCKDEP — every hook is a no-op the optimizer deletes.

inline uint32_t RegisterInstance(const char*, unsigned) { return 0; }
inline void OnAcquire(const void*, uint32_t, bool) {}
inline void OnTryAcquired(const void*, uint32_t, bool) {}
inline void OnRelease(const void*) {}
inline void OnCondVarWait(const void*) {}
inline void OnBlockingCall(const char*) {}
inline uint64_t CondVarHoldReports() { return 0; }
inline uint64_t BlockingWhileHotReports() { return 0; }
inline std::string LastReport() { return {}; }
inline std::string DumpGraphJson() { return "{}"; }
inline uint64_t EdgeCount() { return 0; }

#endif  // COUCHKV_LOCKDEP

// Marks a region that may block on the outside world (disk I/O, a socket
// round-trip, a long sleep). Under lockdep, constructing one while holding
// any kHotPath lock class files a report. In non-lockdep builds this is a
// pure annotation with zero cost. Adopted at storage::Env I/O sites; adopt
// it in any new code that can block outside the process.
class ScopedBlockingCall {
 public:
  explicit ScopedBlockingCall(const char* what) { OnBlockingCall(what); }
  ScopedBlockingCall(const ScopedBlockingCall&) = delete;
  ScopedBlockingCall& operator=(const ScopedBlockingCall&) = delete;
};

}  // namespace couchkv::lockdep

#endif  // COUCHKV_COMMON_LOCKDEP_H_
