// The checked build ("lockdep"): the runtime complement to the Clang
// Thread Safety Analysis annotations in common/synchronization.h. TSA
// proves WHICH lock guards each field; lockdep proves the ORDER locks are
// taken in can never deadlock, and WHO — which execution domain — may run
// the code that owns single-threaded state.
//
// Lock order (after the Linux kernel's lockdep): every Mutex/SharedMutex
// belongs to a named lock CLASS, registered at its declaration site
// (`Mutex mu_{"cluster.node"};`). Each thread keeps a stack of held locks,
// and a process-global directed graph over lock classes gains an edge
// A -> B the first time any thread acquires a B-class lock while holding an
// A-class lock. The graph starts out holding the declared hierarchy (the
// order table in lockdep.cc), so an acquisition against a declared edge is
// caught as well as one against an observed edge. A new edge that closes a
// cycle is a POTENTIAL deadlock — two code paths disagree about the order —
// and is reported with both acquisition stacks and aborts the process
// immediately, even though the deadly interleaving itself never executed.
//
// Execution domains (after Linux lockdep's irq/softirq context tracking):
// every spawned thread adopts a Domain at birth with a ScopedDomain inside
// its spawn statement (scripts/lint.sh checks that), and threads that never
// adopt run in Domain::kClient. State owned by one domain declares
// COUCHKV_AFFINE_TO("what", Domain::kX) and asserts it on entry; an access
// from any other domain aborts, naming both domains.
//
// Also reported (as WARN + counter, not fatal, queryable for tests):
//   * condvar waits entered while holding any lock besides the waited one
//     (the held lock blocks for an unbounded time);
//   * ScopedBlockingCall sites (disk I/O) reached while a lock class
//     flagged kHotPath is held.
//
// Everything here is compiled out to zero-cost no-ops unless the build sets
// -DCOUCHKV_LOCKDEP (CMake: -DCOUCHKV_LOCKDEP=ON). With
// COUCHKV_LOCKDEP_DUMP_DIR=DIR in the environment, every process writes its
// graph to DIR/lock_graph.<pid>.json at exit; scripts/lockdep_check.py
// merges the dumps of a whole test run and checks them together.
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

// The execution domains. A thread adopts one at birth (ScopedDomain);
// threads that never adopt — tests, SDK callers, YCSB/loadgen workers — run
// in kClient.
enum class Domain : uint8_t {
  kClient,            // implicit: tests, SDK callers, YCSB/loadgen workers
  kMain,              // tool entry points (couchkv_server, loadgen)
  kThreadPoolWorker,  // common::ThreadPool workers
  kNetAccept,         // net::TcpServer accept loop
  kNetConn,           // net::TcpServer per-connection loops
  kStorageFlusher,    // cluster::Bucket disk-write flusher
  kDcpProducer,       // dcp::Dispatcher pump
  kClusterHealth,     // cluster::HealthMonitor ticker
};
inline constexpr int kNumDomains = 8;

constexpr const char* DomainName(Domain d) {
  constexpr const char* kNames[kNumDomains] = {
      "client",          "main",          "thread_pool.worker",
      "net.accept",      "net.conn",      "storage.flusher",
      "dcp.producer",    "cluster.health"};
  return kNames[static_cast<int>(d)];
}

#if defined(COUCHKV_LOCKDEP)

// Registers (or finds) the class `name` and binds one mutex instance to it.
// Returns the class id stored in the mutex. Flags are OR-ed into the class:
// every declaration site of a class may pass them, the union applies.
uint32_t RegisterInstance(const char* name, unsigned flags);

// Acquisition hooks, called by the synchronization.h wrappers.
// OnAcquire runs BEFORE the underlying lock() blocks, so a cycle is
// reported even when the deadlock would actually hang. Try-lock
// acquisitions cannot block and therefore add no incoming edges (but the
// lock still joins the held stack and seeds outgoing edges). Shared
// acquisitions are tracked like exclusive ones.
void OnAcquire(const void* instance, uint32_t class_id);
void OnTryAcquired(const void* instance, uint32_t class_id);
void OnRelease(const void* instance);

// CondVar::Wait entry: reports (WARN + counter) when the thread holds any
// lock besides `waited_instance`.
void OnCondVarWait(const void* waited_instance);

// ScopedBlockingCall body: reports (WARN + counter) when any held lock's
// class carries kHotPath.
void OnBlockingCall(const char* what);

// Registers the affinity checker `what` as owned by `domain`. Aborts when
// the same `what` was already registered with a different domain.
void RegisterAffine(const char* what, Domain domain);
// Aborts (naming `what`, its domain and the caller's) unless the calling
// thread runs in `domain`.
void AssertAffineImpl(const char* what, Domain domain);

// --- Introspection (tests, tools) ---

// The calling thread's current domain.
Domain CurrentDomain();
// How many times any thread adopted `domain` (ScopedDomain constructions).
uint64_t DomainAdoptions(Domain domain);

// Process-lifetime counters for the non-fatal report kinds.
uint64_t CondVarHoldReports();
uint64_t BlockingWhileHotReports();
// Last non-fatal report line (empty when none yet).
std::string LastReport();

// Current class/edge graph as JSON (the per-process dump):
//   {"classes":[{"name":...,"flags":...,"instances":N}],
//    "edges":[{"from":...,"to":...,"declared":true|false}]}
// `instances` counts the mutexes registered under the class (0 for a
// class only the order table names); `declared` marks table edges.
std::string DumpGraphJson();

// Number of distinct class->class edges observed so far (table edges not
// counted).
uint64_t EdgeCount();

#else  // !COUCHKV_LOCKDEP — every hook is a no-op the optimizer deletes.

inline uint32_t RegisterInstance(const char*, unsigned) { return 0; }
inline void OnAcquire(const void*, uint32_t) {}
inline void OnTryAcquired(const void*, uint32_t) {}
inline void OnRelease(const void*) {}
inline void OnCondVarWait(const void*) {}
inline void OnBlockingCall(const char*) {}
inline void RegisterAffine(const char*, Domain) {}
inline void AssertAffineImpl(const char*, Domain) {}
inline Domain CurrentDomain() { return Domain::kClient; }
inline uint64_t DomainAdoptions(Domain) { return 0; }
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

// Sets the calling thread's execution domain for the lifetime of the scope
// (the previous domain is restored on destruction, so nested adoption — a
// tool's main thread temporarily acting as a client — works). Every thread
// spawn in src/ and tools/ constructs one as the first statement of its
// thread function.
class ScopedDomain {
 public:
#if defined(COUCHKV_LOCKDEP)
  explicit ScopedDomain(Domain domain);
  ~ScopedDomain();
#else
  explicit ScopedDomain(Domain) {}
#endif
  ScopedDomain(const ScopedDomain&) = delete;
  ScopedDomain& operator=(const ScopedDomain&) = delete;

#if defined(COUCHKV_LOCKDEP)
 private:
  Domain prev_;
#endif
};

// Member object behind COUCHKV_AFFINE_TO; AssertAffine() is the access-site
// check.
class Affine {
 public:
#if defined(COUCHKV_LOCKDEP)
  Affine(const char* what, Domain domain) : what_(what), domain_(domain) {
    RegisterAffine(what, domain);
  }
  void AssertAffine() const { AssertAffineImpl(what_, domain_); }
#else
  Affine(const char*, Domain) {}
  void AssertAffine() const {}
#endif
  Affine(const Affine&) = delete;
  Affine& operator=(const Affine&) = delete;

#if defined(COUCHKV_LOCKDEP)
 private:
  const char* what_;
  Domain domain_;
#endif
};

// Declares state affine to one execution domain: the state named `what`
// (dotted, lock-class-style) may only be touched from `domain`, a Domain
// value. Expands to a checker member; accessors call
// COUCHKV_ASSERT_AFFINE().
#define COUCHKV_AFFINE_TO(what, domain) \
  ::couchkv::lockdep::Affine affine_checker_ { what, domain }

// Access-site check for the enclosing class's COUCHKV_AFFINE_TO member.
#define COUCHKV_ASSERT_AFFINE() affine_checker_.AssertAffine()

}  // namespace couchkv::lockdep

#endif  // COUCHKV_COMMON_LOCKDEP_H_
