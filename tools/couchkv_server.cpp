// Standalone couchkv server process: boots an in-process cluster, opens one
// binary-protocol TCP listener per node, prints the ports, and serves until
// killed. This is the external-process target for the load generator and
// for kill-9 torture in scripts/run_wire_workloads.sh — clients reach it
// only through real sockets.
//
// Output contract (consumed by scripts):
//   WIRE node=<id> port=<port>     one line per node
//   READY                          after all listeners are up
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/cluster.h"
#include "common/lockdep.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--bucket NAME] [--replicas R]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  couchkv::lockdep::ScopedDomain main_domain(
      couchkv::lockdep::Domain::kMain);
  int nodes = 3;
  std::string bucket = "default";
  uint32_t replicas = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--bucket") == 0 && i + 1 < argc) {
      bucket = argv[++i];
    } else if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replicas = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      Usage(argv[0]);
    }
  }
  if (nodes < 1) Usage(argv[0]);

  // Block the shutdown signals BEFORE any thread spawns, so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  couchkv::cluster::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    cluster.AddNode(couchkv::cluster::kAllServices);
  }
  couchkv::cluster::BucketConfig config;
  config.name = bucket;
  config.num_replicas = replicas;
  config.memory_quota_bytes = 4ull << 30;
  couchkv::Status st = cluster.CreateBucket(config);
  if (!st.ok()) {
    std::fprintf(stderr, "bucket creation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  st = cluster.StartWireServers(bucket);
  if (!st.ok()) {
    std::fprintf(stderr, "wire servers failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (couchkv::cluster::NodeId id : cluster.node_ids()) {
    std::printf("WIRE node=%u port=%u\n", id, cluster.wire_port(id));
  }
  std::printf("READY\n");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  std::printf("shutting down on signal %d\n", sig);
  return 0;
}
