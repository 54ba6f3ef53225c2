#include "harness/torture.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "client/wire_client.h"
#include "common/random.h"
#include "cluster/bucket.h"
#include "cluster/node.h"
#include "cluster/vbucket.h"

namespace couchkv::harness {

namespace {

std::string KeyName(int client, int k) {
  return "c" + std::to_string(client) + "-k" + std::to_string(k);
}

uint64_t FnvMix(uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

TortureDriver::TortureDriver(cluster::Cluster* cluster, std::string bucket,
                             TortureOptions opts)
    : cluster_(cluster), bucket_(std::move(bucket)), opts_(opts) {
  start_stats_ = stats::Registry::Global().Collect();
  // Pre-create every key's (empty) history so worker threads never mutate
  // the map structure concurrently — each thread only appends to vectors it
  // owns.
  for (int c = 0; c < opts_.num_clients; ++c) {
    for (int k = 0; k < opts_.keys_per_client; ++k) {
      history_[KeyName(c, k)];
    }
  }
}

void TortureDriver::Run() {
  std::vector<uint16_t> ports;
  for (cluster::NodeId id : cluster_->node_ids()) {
    ports.push_back(cluster_->wire_port(id));
  }
  const bool wire = !ports.empty() &&
                    std::find(ports.begin(), ports.end(), 0) == ports.end();
  std::vector<std::thread> workers;
  workers.reserve(opts_.num_clients);
  for (int c = 0; c < opts_.num_clients; ++c) {
    workers.emplace_back([this, c, wire, &ports] {
      if (wire) {
        client::WireClient client(ports, bucket_, opts_.retry);
        RunClient(client, c);
      } else {
        client::SmartClient client(
            cluster_, bucket_, opts_.retry,
            opts_.base_client_id + static_cast<uint32_t>(c));
        RunClient(client, c);
      }
    });
  }
  for (auto& w : workers) w.join();
}

template <typename Client>
void TortureDriver::RunClient(Client& client, int client_index) {
  Rng rng(opts_.seed * 0x9e3779b97f4a7c15ULL + client_index + 1);
  int writes = 0;
  for (int op = 0; op < opts_.ops_per_client; ++op) {
    int k = static_cast<int>(rng.Uniform(opts_.keys_per_client));
    std::string key = KeyName(client_index, k);
    if (rng.NextDouble() < opts_.write_fraction) {
      ++writes;
      bool durable =
          opts_.persist_every > 0 && writes % opts_.persist_every == 0;
      bool replicated =
          opts_.durable_every > 0 && writes % opts_.durable_every == 0;
      WriteRecord rec;
      rec.value = "v-" + std::to_string(client_index) + "-" +
                  std::to_string(op) + "-" + std::to_string(writes);
      client::WriteOptions wo;
      if (durable) wo.durability = cluster::Durability::Persist(1);
      if (replicated) {
        // Survives failover: the ack proves a replica AND the active's disk
        // had the write, and seqno-aware promotion keeps the freshest
        // replica.
        wo.durability.replicate_to = 1;
        wo.durability.persist_to = 1;
        wo.durability.timeout_ms = opts_.durability_timeout_ms;
      }
      auto r = client.Upsert(key, rec.value, wo);
      if (r.ok()) {
        rec.acked = true;
        rec.persist_acked = durable || replicated;
        rec.replicate_acked = replicated;
      } else {
        // TempFail after retry exhaustion, a durability Timeout (the write
        // may have landed but its ack leg was lost or replication lagged),
        // or a lost reply: outcome unknown.
        rec.in_doubt = true;
      }
      history_[key].push_back(std::move(rec));
    } else {
      // Reads exercise routing/retries; values are validated at the end.
      (void)client.Get(key);
    }
  }
}

void TortureDriver::Settle() {
  // Several rounds: a DCP pump can enqueue flusher work and vice versa, and
  // a first Quiesce may race with replication streams that were stalled by
  // faults at the moment it sampled them.
  for (int i = 0; i < 3; ++i) cluster_->Quiesce();
}

std::unique_ptr<client::SmartClient> TortureDriver::MakeCheckClient() {
  // Fixed id: checker traffic is distinguishable in fault schedules, and a
  // FaultyTransport without client faults for this id sees a clean network.
  return std::make_unique<client::SmartClient>(
      cluster_, bucket_, opts_.retry, opts_.base_client_id - 1);
}

std::string TortureDriver::StatsDump() const {
  stats::Snapshot now = stats::Registry::Global().Collect();
  std::string out = "\n--- registry delta since driver construction ---\n" +
                    stats::DebugString(stats::Delta(start_stats_, now));
  // Each live node's flight-recorder tail: the last wire ops it actually
  // served, with phase timings and trace ids — usually the fastest way to
  // see what the cluster was doing when an invariant broke.
  for (cluster::NodeId id : cluster_->node_ids()) {
    cluster::Node* n = cluster_->node(id);
    if (n == nullptr) continue;
    out += "\n--- node " + std::to_string(id) + " flight recorder ---\n";
    out += n->flight_recorder()->ToJson(n->clock()->NowNanos(),
                                        /*max_records=*/8);
  }
  return out;
}

int TortureDriver::AnchorIndex(const std::vector<WriteRecord>& h) const {
  for (int i = static_cast<int>(h.size()) - 1; i >= 0; --i) {
    // Each fault the test injected weakens the guarantee the anchor may
    // rely on: a crash voids memory-only acks (a persisted write survives
    // the restart); a failover voids everything that lived only on the
    // failed node — including its disk — so only a replicate-acked write
    // (provably present on a surviving replica, which seqno-aware
    // promotion preserves) is guaranteed.
    bool anchored = h[i].acked;
    if (crash_occurred_) anchored = anchored && h[i].persist_acked;
    if (failover_occurred_) anchored = anchored && h[i].replicate_acked;
    if (anchored) return i;
  }
  return -1;
}

testing::AssertionResult TortureDriver::CheckAckedWritesDurable() {
  auto client = MakeCheckClient();
  for (const auto& [key, h] : history_) {
    int anchor = AnchorIndex(h);
    auto r = client->Get(key);
    if (!r.ok() && !r.status().IsNotFound()) {
      return testing::AssertionFailure()
             << "Get(" << key << ") failed: " << r.status().ToString()
             << StatsDump();
    }
    if (anchor < 0) {
      // No write is guaranteed to have survived; absent or any in-doubt
      // value is acceptable.
      if (!r.ok()) continue;
      bool known = false;
      for (const auto& rec : h) known |= (rec.value == r.value().value);
      if (!known && !h.empty()) {
        return testing::AssertionFailure()
               << key << " holds a value the client never wrote: "
               << r.value().value << StatsDump();
      }
      continue;
    }
    if (!r.ok()) {
      return testing::AssertionFailure()
             << (crash_occurred_ ? "persist-acked" : "acked") << " write to "
             << key << " was lost: key not found (anchor value "
             << h[anchor].value << ")" << StatsDump();
    }
    // The observed value must come from the anchor or a later write — an
    // earlier value means the anchored write was rolled back.
    bool valid = false;
    for (size_t i = static_cast<size_t>(anchor); i < h.size(); ++i) {
      if (h[i].value == r.value().value) valid = true;
    }
    if (!valid) {
      return testing::AssertionFailure()
             << key << " regressed past an acked write: observed \""
             << r.value().value << "\", anchor \"" << h[anchor].value
             << "\" (index " << anchor << " of " << h.size() << ")"
             << StatsDump();
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult TortureDriver::CheckReplicaConvergence() {
  auto map = cluster_->map(bucket_);
  if (map == nullptr) {
    return testing::AssertionFailure() << "no map for bucket " << bucket_;
  }
  // key -> (seqno, cas) of every live document in a vBucket's hash table.
  // Values are skipped (the active may have evicted a doc's body while the
  // replica keeps it resident; seqno+cas pin the version) and so are
  // tombstones (warmup restores live docs only, so a restarted active
  // legitimately holds fewer tombstones than its replicas).
  using DocSig = std::map<std::string, std::pair<uint64_t, uint64_t>>;
  auto signature = [](const cluster::VBucket* vb) {
    DocSig sig;
    vb->hash_table().ForEach([&](const kv::Document& d, bool) {
      if (d.meta.deleted) return;
      sig[d.key] = {d.meta.seqno, d.meta.cas};
    });
    return sig;
  };
  for (uint16_t vb = 0; vb < map->entries.size(); ++vb) {
    const auto& e = map->entries[vb];
    if (e.active == cluster::kNoNode) continue;
    cluster::Node* an = cluster_->node(e.active);
    if (an == nullptr || !an->healthy()) continue;
    std::shared_ptr<cluster::Bucket> ab = an->bucket(bucket_);
    if (ab == nullptr) continue;
    DocSig active_sig = signature(ab->vbucket(vb));
    for (cluster::NodeId rid : e.replicas) {
      cluster::Node* rn = cluster_->node(rid);
      if (rn == nullptr || !rn->healthy()) continue;
      std::shared_ptr<cluster::Bucket> rb = rn->bucket(bucket_);
      if (rb == nullptr) continue;
      DocSig replica_sig = signature(rb->vbucket(vb));
      if (active_sig != replica_sig) {
        std::ostringstream os;
        os << "vb " << vb << ": replica on node " << rid << " ("
           << replica_sig.size() << " docs) diverges from active on node "
           << e.active << " (" << active_sig.size() << " docs)";
        for (const auto& [k, v] : active_sig) {
          auto it = replica_sig.find(k);
          if (it == replica_sig.end()) {
            os << "; missing " << k << "@" << std::get<0>(v);
          } else if (it->second != v) {
            os << "; " << k << " active@" << std::get<0>(v) << " replica@"
               << std::get<0>(it->second);
          }
        }
        for (const auto& [k, v] : replica_sig) {
          if (!active_sig.count(k)) os << "; extra " << k << "@"
                                       << std::get<0>(v);
        }
        return testing::AssertionFailure() << os.str() << StatsDump();
      }
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult TortureDriver::CheckAllKeysReachable() {
  auto client = MakeCheckClient();
  for (const auto& [key, h] : history_) {
    if (AnchorIndex(h) < 0) continue;  // nothing guaranteed present
    auto r = client->Get(key);
    if (!r.ok()) {
      return testing::AssertionFailure()
             << key << " (vb " << client->VBucketFor(key)
             << ") unreachable: " << r.status().ToString() << StatsDump();
    }
  }
  return testing::AssertionSuccess();
}

uint64_t TortureDriver::StateFingerprint() {
  auto client = MakeCheckClient();
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  // history_ is a std::map, so keys come out sorted — the fingerprint does
  // not depend on thread interleavings, only on final (key, value) state.
  // CAS/seqno are excluded: CAS values may be clock-derived.
  for (const auto& [key, hist] : history_) {
    (void)hist;
    auto r = client->Get(key);
    h = FnvMix(h, key);
    if (r.ok()) {
      h = FnvMix(h, "=");
      h = FnvMix(h, r.value().value);
    } else {
      h = FnvMix(h, "!absent");
    }
  }
  return h;
}

}  // namespace couchkv::harness
