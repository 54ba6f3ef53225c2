// Torture-test harness: drives a randomized KV workload against a cluster
// through smart clients while the test injects faults (via
// net::FaultyTransport and Cluster::CrashNode/RestartNode), records the fate
// of every write, and checks cluster-wide invariants afterwards:
//
//   * CheckAckedWritesDurable  — no acknowledged write is lost beyond what
//     the durability level permits (after a crash, persist-acked writes are
//     the floor; without one, every acked write must survive).
//   * CheckReplicaConvergence  — after partitions heal and the cluster
//     settles, every replica holds exactly its active's documents.
//   * CheckAllKeysReachable    — every key that must exist is readable
//     through a client (NotMyVBucket retries converge; no orphaned keys).
//
// The workers are SmartClients, or WireClients speaking the binary protocol
// over TCP when every node has a wire listener at Run(); the checks always
// read through a SmartClient.
//
// Each worker client owns a disjoint key range and writes versioned values,
// so a key's history is a single client's sequential writes — which is what
// makes the invariants checkable without a global ordering oracle.
#ifndef COUCHKV_TESTS_HARNESS_TORTURE_H_
#define COUCHKV_TESTS_HARNESS_TORTURE_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/smart_client.h"
#include "cluster/cluster.h"
#include "stats/registry.h"

namespace couchkv::harness {

struct TortureOptions {
  uint64_t seed = 1;
  int num_clients = 4;        // worker threads, one client each
  int ops_per_client = 200;
  int keys_per_client = 32;   // clients use disjoint key ranges
  double write_fraction = 0.8;
  // Every Nth write per client requests persist_to=1 durability; those
  // writes must survive even a node crash.
  int persist_every = 8;
  // Every Nth write per client requests replicate_to=1 AND persist_to=1
  // (with durability_timeout_ms); those writes must survive even a
  // failover, since an acked copy provably reached a replica. 0 disables.
  int durable_every = 0;
  uint64_t durability_timeout_ms = 2500;
  // Transport endpoint ids for the workers are base_client_id, +1, ... so
  // fault schedules are reproducible across runs with the same seed.
  uint32_t base_client_id = 1000;
  client::RetryPolicy retry;
};

// The fate of one write, in the owning client's program order.
struct WriteRecord {
  std::string value;
  bool acked = false;          // client saw OK
  bool persist_acked = false;  // acked with persist_to >= 1
  bool replicate_acked = false;  // acked with replicate_to >= 1
  bool in_doubt = false;       // failed ambiguously: may or may not be there
};

class TortureDriver {
 public:
  TortureDriver(cluster::Cluster* cluster, std::string bucket,
                TortureOptions opts);

  // Runs the full workload (num_clients threads) to completion. May be
  // called while the test crashes nodes / injects faults concurrently.
  // Workers use WireClient when every node has a wire port at the call.
  void Run();

  // Tells the harness a node crash happened during the workload, weakening
  // the durability floor to persist-acked writes.
  void NoteCrash() { crash_occurred_ = true; }

  // Tells the harness a failover happened (or may happen) during the
  // workload: a plain memory-acked write to the failed node is then
  // legitimately lost, so the floor weakens to writes that were acked with
  // replicate_to or persist_to durability (those provably exist on a
  // surviving copy; seqno-aware promotion keeps them).
  void NoteFailover() { failover_occurred_ = true; }

  // Drains all async machinery (DCP + flushers) so the invariant checks
  // observe a settled cluster. Heal partitions first.
  void Settle();

  // --- Invariants (run after Settle) ---
  testing::AssertionResult CheckAckedWritesDurable();
  testing::AssertionResult CheckReplicaConvergence();
  testing::AssertionResult CheckAllKeysReachable();

  // FNV-1a hash over the sorted final (key, present, value) state as read
  // through a client: equal across two runs iff the final KV state is equal.
  uint64_t StateFingerprint();

  const std::map<std::string, std::vector<WriteRecord>>& history() const {
    return history_;
  }

 private:
  template <typename Client>
  void RunClient(Client& client, int client_index);
  // Index of the newest write that is guaranteed to have survived, or -1.
  int AnchorIndex(const std::vector<WriteRecord>& h) const;
  std::unique_ptr<client::SmartClient> MakeCheckClient();
  // Registry delta since construction, appended to invariant failures so a
  // torture report shows what the cluster was doing (retries, drops,
  // evictions, DCP backlog, ...) when the invariant broke.
  std::string StatsDump() const;

  cluster::Cluster* cluster_;
  std::string bucket_;
  TortureOptions opts_;
  bool crash_occurred_ = false;
  bool failover_occurred_ = false;
  // Registry snapshot taken at construction; failures print the delta.
  stats::Snapshot start_stats_;
  // key -> its write history. Written by exactly one worker thread during
  // Run(), read only after the workers join.
  std::map<std::string, std::vector<WriteRecord>> history_;
};

}  // namespace couchkv::harness

#endif  // COUCHKV_TESTS_HARNESS_TORTURE_H_
