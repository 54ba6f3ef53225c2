// The checked build's runtime. See lockdep.h for the model. The whole
// translation unit is empty unless -DCOUCHKV_LOCKDEP is set.
//
// Implementation notes:
//   * The detector's own state is protected by a raw std::mutex — it MUST
//     NOT use the instrumented couchkv::Mutex (the hooks would recurse).
//     scripts/lint.sh check 1 exempts this file for that reason.
//   * A steady-state acquisition takes no lock: class flags and the set of
//     known edges are mirrored in relaxed atomics, and the mutex is taken
//     only to record a new edge. Under TSan a lock taken on every
//     acquisition would order all threads' accesses and hide real races.
//   * The per-thread record is a fixed-depth array with no destructor
//     (Linux's MAX_LOCK_DEPTH idiom), so exited threads leak nothing.
//   * Report paths write to stderr with fprintf directly (not
//     common/logging.h) so a report can never deadlock on, or recurse
//     into, an instrumented logging mutex.
//   * Edges are recorded class->class (not instance->instance), so two
//     code paths that disagree about order are caught even when they touch
//     different objects of the same classes on different runs.
#include "common/lockdep.h"

#if defined(COUCHKV_LOCKDEP)

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace couchkv::lockdep {

namespace {

// The declared lock hierarchy: in each entry `before` is taken before
// `after` whenever a thread holds both. Every lockdep process seeds these
// edges into its graph, so code taking a pair in the reverse order aborts
// even when no test runs the forward order. Every subsystem that owns a
// lock class places itself here (scripts/lockdep_check.py fails a test
// run's dumps on a subsystem with no entry, or an entry naming a class no
// mutex registers).
struct OrderEdge {
  const char* before;
  const char* after;
};
constexpr OrderEdge kDeclaredOrder[] = {
    // Cluster topology above nodes, nodes above vBuckets, and a vBucket's
    // op lock above everything a front-end op touches.
    {"cluster.topology", "cluster.node"},
    {"cluster.topology", "cluster.vbucket.op"},
    {"cluster.node", "cluster.vbucket.op"},
    {"cluster.vbucket.op", "cluster.vbucket.file"},
    {"cluster.vbucket.op", "kv.hash_table"},
    {"cluster.vbucket.op", "dcp.changelog"},
    {"cluster.topology", "stats.registry"},
    // DCP: the stream map and per-stream delivery sit above the change log,
    // and delivery calls into each consumer's index.
    {"dcp.producer_streams", "dcp.changelog"},
    {"dcp.stream_delivery", "dcp.changelog"},
    {"dcp.stream_delivery", "views.index"},
    {"dcp.stream_delivery", "fts.index"},
    {"dcp.stream_delivery", "analytics.dataset"},
    // A consumer's feed is created and closed under its service's lock, and
    // holds its own lock across a whole wire or close, which reads the
    // topology, opens and removes streams, and runs the bind step.
    {"gsi.index_service", "cluster.feed"},
    {"views.engine", "cluster.feed"},
    {"fts.service", "cluster.feed"},
    {"analytics.service", "cluster.feed"},
    {"cluster.feed", "cluster.topology"},
    {"cluster.feed", "dcp.producer_streams"},
    {"cluster.feed", "dcp.stream_delivery"},
    {"cluster.feed", "views.view"},
    {"n1ql.query_service", "views.engine"},
    {"n1ql.query_service", "dcp.stream_delivery"},
    // Submission to the pool happens after the query service drops its
    // lock; the entry pins the order so no refactor can invert it.
    {"n1ql.query_service", "thread_pool.pool"},
    {"gsi.index_service", "gsi.indexer"},
    {"gsi.indexer", "storage.mem_file"},
    // Storage: a bucket's file creation above the file, the file above
    // its Env's per-file state.
    {"cluster.bucket.storage", "storage.couch_file"},
    {"storage.couch_file", "storage.posix_file"},
    {"storage.couch_file", "storage.mem_file"},
    // Transport fault tables above the metrics they publish into.
    {"net.faulty_transport", "net.transport_metrics"},
    {"net.transport_metrics", "stats.scope"},
    // logging.stderr is a leaf: LOG_* may run under any lock. These pin the
    // cold error paths that log under one (probe failures, reconnects).
    {"cluster.health", "logging.stderr"},
    {"client.wire_client", "logging.stderr"},
};

constexpr int kMaxFrames = 24;
// Class ids index the lock-free mirrors below; more classes than this
// aborts loudly (a diagnostic-build limit, not a data limit).
constexpr uint32_t kMaxClasses = 256;
// Held locks per thread (Linux lockdep's MAX_LOCK_DEPTH).
constexpr int kMaxLockDepth = 48;

struct Stack {
  void* pc[kMaxFrames];
  int depth = 0;

  void Capture() { depth = ::backtrace(pc, kMaxFrames); }
};

// Prints a captured backtrace to stderr, one indented frame per line.
// backtrace_symbols_fd writes straight to the fd, so this works even when
// the heap is in a bad state mid-abort.
void PrintStack(const Stack& s) {
  if (s.depth <= 0) {
    std::fprintf(stderr, "    <no stack captured>\n");
    return;
  }
  ::backtrace_symbols_fd(const_cast<void* const*>(s.pc), s.depth,
                         STDERR_FILENO);
}

void PrintStackHere() {
  Stack here;
  here.Capture();
  PrintStack(here);
}

// One acquisition-order edge from -> to. A declared edge comes from
// kDeclaredOrder; an observed one carries the stack of the acquisition
// that first created it.
struct EdgeInfo {
  bool declared = false;
  Stack stack;
  uint64_t thread_hash = 0;
};

struct State {
  std::mutex mu;
  std::vector<std::string> names;      // class id -> name
  std::vector<uint64_t> instances;     // class id -> mutexes registered
  std::unordered_map<std::string, uint32_t> by_name;
  std::unordered_map<uint64_t, EdgeInfo> edges;  // key: from << 32 | to
  std::vector<std::vector<uint32_t>> adj;        // from -> [to]
  uint64_t observed_edges = 0;
  std::unordered_map<std::string, Domain> affine;  // checker -> its domain
  std::string last_report;

  // Lock-free mirrors for the acquisition path (see the file comment).
  std::atomic<unsigned> flags[kMaxClasses] = {};
  std::atomic<uint64_t> edge_bits[kMaxClasses][kMaxClasses / 64] = {};

  std::atomic<uint64_t> adoptions[kNumDomains] = {};
  std::atomic<uint64_t> condvar_hold_reports{0};
  std::atomic<uint64_t> blocking_hot_reports{0};
};

struct Held {
  const void* instance;
  uint32_t class_id;
};

// Everything lockdep knows about one thread. Trivially destructible and
// constant-initialized: no allocation, nothing to free at thread exit.
struct ThreadRecord {
  Held held[kMaxLockDepth];
  int depth;
  Domain domain;
};
constinit thread_local ThreadRecord t_thread{};

uint64_t ThreadHash() {
  return std::hash<std::thread::id>()(std::this_thread::get_id());
}

uint64_t EdgeKey(uint32_t from, uint32_t to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

bool EdgeKnown(State& s, uint32_t from, uint32_t to) {
  return s.edge_bits[from][to / 64].load(std::memory_order_relaxed) &
         (1ull << (to % 64));
}

// DFS reachability from -> to over the edge graph (s.mu held). Fills
// `path` with the class-id chain from -> ... -> to when reachable.
bool FindPath(State& s, uint32_t from, uint32_t to,
              std::vector<uint32_t>* path) {
  std::vector<uint32_t> stack = {from};
  std::unordered_map<uint32_t, uint32_t> parent;  // node -> predecessor
  parent.emplace(from, from);
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (n == to) {
      std::vector<uint32_t> rev = {to};
      for (uint32_t p = to; p != from;) {
        p = parent.at(p);
        rev.push_back(p);
      }
      path->assign(rev.rbegin(), rev.rend());
      return true;
    }
    if (n >= s.adj.size()) continue;
    for (uint32_t next : s.adj[n]) {
      if (parent.emplace(next, n).second) stack.push_back(next);
    }
  }
  return false;
}

void PrintPath(State& s, const std::vector<uint32_t>& path) {
  for (size_t i = 0; i < path.size(); ++i) {
    std::fprintf(stderr, "%s\"%s\"", i ? " -> " : "",
                 s.names[path[i]].c_str());
  }
  std::fprintf(stderr, "\n");
}

[[noreturn]] void EndReport() {
  std::fprintf(stderr, "\n==== end lockdep report; aborting ====\n");
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void FatalCycle(State& s, uint32_t held_cls, uint32_t new_cls,
                             const std::vector<uint32_t>& path) {
  // path is new_cls -> ... -> held_cls: the previously recorded order that
  // the current acquisition (held_cls -> new_cls) contradicts.
  std::fprintf(stderr,
               "\n==== couchkv lockdep: POTENTIAL DEADLOCK "
               "(lock-order inversion) ====\n");
  std::fprintf(stderr,
               "thread %#llx acquiring lock class \"%s\" while holding "
               "\"%s\",\nbut the opposite order was already recorded:\n",
               static_cast<unsigned long long>(ThreadHash()),
               s.names[new_cls].c_str(), s.names[held_cls].c_str());
  std::fprintf(stderr, "  existing order: ");
  PrintPath(s, path);
  std::fprintf(stderr, "  new edge:       \"%s\" -> \"%s\"\n",
               s.names[held_cls].c_str(), s.names[new_cls].c_str());

  std::fprintf(stderr, "\n-- this acquisition (\"%s\" -> \"%s\") --\n",
               s.names[held_cls].c_str(), s.names[new_cls].c_str());
  PrintStackHere();

  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeInfo& e = s.edges.at(EdgeKey(path[i], path[i + 1]));
    if (e.declared) {
      std::fprintf(stderr,
                   "\n-- declared order \"%s\" -> \"%s\" (the order table "
                   "in common/lockdep.cc) --\n",
                   s.names[path[i]].c_str(), s.names[path[i + 1]].c_str());
      continue;
    }
    std::fprintf(stderr,
                 "\n-- prior acquisition (\"%s\" -> \"%s\", thread %#llx) "
                 "--\n",
                 s.names[path[i]].c_str(), s.names[path[i + 1]].c_str(),
                 static_cast<unsigned long long>(e.thread_hash));
    PrintStack(e.stack);
  }
  EndReport();
}

[[noreturn]] void FatalSelf(State& s, uint32_t cls, const char* what) {
  std::fprintf(stderr,
               "\n==== couchkv lockdep: %s on lock class \"%s\" ====\n",
               what, s.names[cls].c_str());
  PrintStackHere();
  EndReport();
}

// Registers (or finds) the class `name` (s.mu held).
uint32_t ClassIdLocked(State& s, const std::string& name) {
  auto [it, inserted] =
      s.by_name.emplace(name, static_cast<uint32_t>(s.names.size()));
  if (inserted) {
    if (s.names.size() >= kMaxClasses) {
      std::fprintf(stderr,
                   "\n==== couchkv lockdep: too many lock classes (\"%s\" "
                   "would exceed %u) ====\n",
                   name.c_str(), kMaxClasses);
      EndReport();
    }
    s.names.push_back(name);
    s.instances.push_back(0);
  }
  return it->second;
}

void AddEdgeLocked(State& s, uint32_t from, uint32_t to, bool declared) {
  EdgeInfo info;
  info.declared = declared;
  if (!declared) {
    info.stack.Capture();
    info.thread_hash = ThreadHash();
    ++s.observed_edges;
  }
  s.edges.emplace(EdgeKey(from, to), info);
  if (s.adj.size() <= from) s.adj.resize(from + 1);
  s.adj[from].push_back(to);
  s.edge_bits[from][to / 64].fetch_or(1ull << (to % 64),
                                      std::memory_order_relaxed);
}

void WriteDumpAtExit();

State& S() {
  static State* s = [] {
    State* st = new State();  // leaked: outlives all static dtors
    std::lock_guard<std::mutex> lock(st->mu);
    for (const OrderEdge& e : kDeclaredOrder) {
      uint32_t before = ClassIdLocked(*st, e.before);
      uint32_t after = ClassIdLocked(*st, e.after);
      std::vector<uint32_t> path;
      if (FindPath(*st, after, before, &path)) {
        std::fprintf(stderr,
                     "\n==== couchkv lockdep: the declared order table has "
                     "a cycle ====\n  \"%s\" -> \"%s\" closes: ",
                     e.before, e.after);
        PrintPath(*st, path);
        EndReport();
      }
      AddEdgeLocked(*st, before, after, /*declared=*/true);
    }
    std::atexit(WriteDumpAtExit);
    return st;
  }();
  return *s;
}

// Records an edge from every held lock to `new_cls`; aborts on a cycle or
// a same-class nesting the class does not allow.
void AddEdgesFromHeld(State& s, uint32_t new_cls) {
  for (int i = 0; i < t_thread.depth; ++i) {
    const uint32_t held_cls = t_thread.held[i].class_id;
    if (held_cls == new_cls) {
      if (s.flags[new_cls].load(std::memory_order_relaxed) & kNestable) {
        continue;  // nestable: instances of one class carry no order
      }
      std::lock_guard<std::mutex> lock(s.mu);
      FatalSelf(s, new_cls,
                "POTENTIAL DEADLOCK (same-class nested acquisition, "
                "class not marked kNestable)");
    }
    if (EdgeKnown(s, held_cls, new_cls)) continue;
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.edges.count(EdgeKey(held_cls, new_cls))) continue;
    // New edge held_cls -> new_cls. If new_cls already reaches held_cls,
    // this closes a cycle.
    std::vector<uint32_t> path;
    if (FindPath(s, new_cls, held_cls, &path)) {
      FatalCycle(s, held_cls, new_cls, path);
    }
    AddEdgeLocked(s, held_cls, new_cls, /*declared=*/false);
  }
}

void PushHeld(const void* instance, uint32_t class_id) {
  if (t_thread.depth == kMaxLockDepth) {
    State& s = S();
    std::lock_guard<std::mutex> lock(s.mu);
    std::fprintf(stderr,
                 "\n==== couchkv lockdep: more than %d locks held by one "
                 "thread (acquiring \"%s\") ====\nheld:",
                 kMaxLockDepth, s.names[class_id].c_str());
    for (int i = 0; i < t_thread.depth; ++i) {
      std::fprintf(stderr, " \"%s\"",
                   s.names[t_thread.held[i].class_id].c_str());
    }
    std::fprintf(stderr, "\n");
    PrintStackHere();
    EndReport();
  }
  t_thread.held[t_thread.depth++] = Held{instance, class_id};
}

void Warn(State& s, std::atomic<uint64_t>& counter, const std::string& msg) {
  counter.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.last_report = msg;
  }
  std::fprintf(stderr, "[WARN] lockdep: %s\n", msg.c_str());
}

std::string GraphJsonLocked(State& s) {
  std::string out = "{\n  \"classes\": [";
  for (size_t i = 0; i < s.names.size(); ++i) {
    if (i) out += ",";
    out += "\n    {\"name\": \"" + s.names[i] + "\", \"flags\": " +
           std::to_string(s.flags[i].load(std::memory_order_relaxed)) +
           ", \"instances\": " + std::to_string(s.instances[i]) + "}";
  }
  out += "\n  ],\n  \"edges\": [";
  bool first = true;
  for (const auto& [key, info] : s.edges) {
    uint32_t from = static_cast<uint32_t>(key >> 32);
    uint32_t to = static_cast<uint32_t>(key);
    if (!first) out += ",";
    first = false;
    out += "\n    {\"from\": \"" + s.names[from] + "\", \"to\": \"" +
           s.names[to] + "\", \"declared\": " +
           (info.declared ? "true" : "false") + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

// With COUCHKV_LOCKDEP_DUMP_DIR set, writes DIR/lock_graph.<pid>.json.
void WriteDumpAtExit() {
  const char* dir = std::getenv("COUCHKV_LOCKDEP_DUMP_DIR");
  if (dir == nullptr) return;
  std::string path = std::string(dir) + "/lock_graph." +
                     std::to_string(::getpid()) + ".json";
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "[WARN] lockdep: cannot write dump to %s\n",
                 path.c_str());
    return;
  }
  out << GraphJsonLocked(s);
}

}  // namespace

uint32_t RegisterInstance(const char* name, unsigned flags) {
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  uint32_t id = ClassIdLocked(s, name);
  ++s.instances[id];
  s.flags[id].fetch_or(flags, std::memory_order_relaxed);
  return id;
}

void OnAcquire(const void* instance, uint32_t class_id) {
  State& s = S();
  for (int i = 0; i < t_thread.depth; ++i) {
    if (t_thread.held[i].instance == instance) {
      std::lock_guard<std::mutex> lock(s.mu);
      FatalSelf(s, class_id,
                "DEADLOCK (recursive acquisition of the same instance)");
    }
  }
  AddEdgesFromHeld(s, class_id);
  PushHeld(instance, class_id);
}

void OnTryAcquired(const void* instance, uint32_t class_id) {
  // A successful try-lock can never have blocked, so it contributes no
  // incoming edge (and no cycle check); it still joins the held stack so
  // later blocking acquisitions see it as a source.
  PushHeld(instance, class_id);
}

void OnRelease(const void* instance) {
  for (int i = t_thread.depth - 1; i >= 0; --i) {
    if (t_thread.held[i].instance != instance) continue;
    for (int j = i; j + 1 < t_thread.depth; ++j) {
      t_thread.held[j] = t_thread.held[j + 1];
    }
    --t_thread.depth;
    return;
  }
  // Releasing a lock lockdep never saw acquired: a wrapper bug.
  std::fprintf(stderr,
               "[WARN] lockdep: release of untracked lock instance %p\n",
               instance);
}

void OnCondVarWait(const void* waited_instance) {
  bool holds_other = false;
  for (int i = 0; i < t_thread.depth; ++i) {
    holds_other |= t_thread.held[i].instance != waited_instance;
  }
  if (!holds_other) return;
  State& s = S();
  std::string waited = "<unknown>";
  std::string others;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (int i = 0; i < t_thread.depth; ++i) {
      const Held& h = t_thread.held[i];
      const std::string name = "\"" + s.names[h.class_id] + "\"";
      if (h.instance == waited_instance) {
        waited = name;
      } else {
        others += (others.empty() ? "" : ", ") + name;
      }
    }
  }
  Warn(s, s.condvar_hold_reports,
       "condvar wait on " + waited + " while holding " + others +
           " (held across an unbounded wait)");
}

void OnBlockingCall(const char* what) {
  State& s = S();
  for (int i = 0; i < t_thread.depth; ++i) {
    const uint32_t cls = t_thread.held[i].class_id;
    if (!(s.flags[cls].load(std::memory_order_relaxed) & kHotPath)) continue;
    std::string name;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      name = s.names[cls];
    }
    Warn(s, s.blocking_hot_reports,
         std::string("blocking call (") + what +
             ") while holding hot-path lock class \"" + name + "\"");
  }
}

void RegisterAffine(const char* what, Domain domain) {
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  auto [it, inserted] = s.affine.emplace(what, domain);
  if (inserted || it->second == domain) return;
  std::fprintf(stderr,
               "\n==== couchkv lockdep: CONFLICTING AFFINITY ====\n"
               "\"%s\" is declared affine to execution domain \"%s\" and "
               "to \"%s\"\n",
               what, DomainName(it->second), DomainName(domain));
  PrintStackHere();
  EndReport();
}

void AssertAffineImpl(const char* what, Domain domain) {
  if (t_thread.domain == domain) return;
  std::fprintf(stderr,
               "\n==== couchkv lockdep: WRONG-DOMAIN ACCESS ====\n"
               "\"%s\" is declared affine to execution domain \"%s\",\n"
               "but was accessed from a thread in domain \"%s\":\n",
               what, DomainName(domain), DomainName(t_thread.domain));
  PrintStackHere();
  EndReport();
}

Domain CurrentDomain() { return t_thread.domain; }

uint64_t DomainAdoptions(Domain domain) {
  return S().adoptions[static_cast<int>(domain)].load(
      std::memory_order_relaxed);
}

ScopedDomain::ScopedDomain(Domain domain) : prev_(t_thread.domain) {
  t_thread.domain = domain;
  S().adoptions[static_cast<int>(domain)].fetch_add(
      1, std::memory_order_relaxed);
}

ScopedDomain::~ScopedDomain() { t_thread.domain = prev_; }

uint64_t CondVarHoldReports() {
  return S().condvar_hold_reports.load(std::memory_order_relaxed);
}

uint64_t BlockingWhileHotReports() {
  return S().blocking_hot_reports.load(std::memory_order_relaxed);
}

std::string LastReport() {
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.last_report;
}

std::string DumpGraphJson() {
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  return GraphJsonLocked(s);
}

uint64_t EdgeCount() {
  State& s = S();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.observed_edges;
}

}  // namespace couchkv::lockdep

#else  // !COUCHKV_LOCKDEP

// Keep the translation unit non-empty; everything lives in the header as
// zero-cost inline no-ops.
namespace couchkv::lockdep {
namespace {
[[maybe_unused]] constexpr bool kCompiledOut = true;
}  // namespace
}  // namespace couchkv::lockdep

#endif  // COUCHKV_LOCKDEP
