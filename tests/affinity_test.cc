// Execution-domain half of the checked build (common/lockdep.h). Meaningful
// only under -DCOUCHKV_LOCKDEP=ON — in normal builds every case
// GTEST_SKIPs, and the inert-hooks case (which runs ONLY when lockdep is
// off) proves the hooks really compile out rather than silently
// half-working.
//
// The registry is process-global state, so each case uses its own checker
// names, and the fatal cases run inside EXPECT_DEATH: the child inherits
// the parent's registry but its new records die with it.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/health_monitor.h"
#include "common/lockdep.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "dcp/dcp.h"
#include "harness/registry_counter.h"
#include "net/tcp_server.h"

namespace couchkv {
namespace {

using lockdep::Domain;

#define SKIP_UNLESS_LOCKDEP()                                        \
  do {                                                               \
    if (!lockdep::kEnabled) {                                        \
      GTEST_SKIP() << "built without COUCHKV_LOCKDEP; hooks are "    \
                      "no-ops";                                      \
    }                                                                \
  } while (0)

// In a non-lockdep build the whole API must be inert: every thread reads
// as kClient, nothing is counted, and the checkers never fire. This case
// runs ONLY when lockdep is off.
TEST(AffinityTest, DisabledBuildHooksAreInert) {
  if (lockdep::kEnabled) {
    GTEST_SKIP() << "built with COUCHKV_LOCKDEP; inertness n/a";
  }
  EXPECT_EQ(lockdep::CurrentDomain(), Domain::kClient);
  lockdep::ScopedDomain domain(Domain::kNetConn);
  EXPECT_EQ(lockdep::CurrentDomain(), Domain::kClient);
  EXPECT_EQ(lockdep::DomainAdoptions(Domain::kNetConn), 0u);
  lockdep::Affine checker{"affinity_test.inert", Domain::kStorageFlusher};
  checker.AssertAffine();  // wrong domain, but a no-op build never aborts
  lockdep::Affine conflicting{"affinity_test.inert", Domain::kDcpProducer};
  conflicting.AssertAffine();
}

// A thread that never constructs a ScopedDomain runs in kClient; adoption
// is scoped and restores the previous domain.
TEST(AffinityTest, ScopedAdoptionNestsAndRestores) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_EQ(lockdep::CurrentDomain(), Domain::kClient);
  {
    lockdep::ScopedDomain outer(Domain::kMain);
    EXPECT_EQ(lockdep::CurrentDomain(), Domain::kMain);
    {
      lockdep::ScopedDomain inner(Domain::kClient);
      EXPECT_EQ(lockdep::CurrentDomain(), Domain::kClient);
    }
    EXPECT_EQ(lockdep::CurrentDomain(), Domain::kMain);
  }
  EXPECT_EQ(lockdep::CurrentDomain(), Domain::kClient);
}

// Silent negative control: accessing AFFINE_TO state from its declared
// domain must not abort, however often it is asserted.
TEST(AffinityTest, DeclaredDomainAccessIsSilent) {
  SKIP_UNLESS_LOCKDEP();
  lockdep::Affine checker{"affinity_test.silent", Domain::kStorageFlusher};
  lockdep::ScopedDomain domain(Domain::kStorageFlusher);
  for (int i = 0; i < 100; ++i) checker.AssertAffine();
  // Registering the same state again with the same domain (a second
  // instance of the owning class) is not a conflict.
  lockdep::Affine again{"affinity_test.silent", Domain::kStorageFlusher};
  again.AssertAffine();
  SUCCEED();
}

// Accessing AFFINE_TO state from the wrong domain aborts, and the report
// names BOTH the declared and the offending domain.
TEST(AffinityDeathTest, WrongDomainAccessAbortsNamingBothDomains) {
  SKIP_UNLESS_LOCKDEP();
  // A lambda keeps the braced declarations (and their commas) out of the
  // EXPECT_DEATH macro argument list.
  auto access_from_wrong_domain = [] {
    lockdep::Affine checker("affinity_test.dstate", Domain::kStorageFlusher);
    lockdep::ScopedDomain domain(Domain::kNetConn);
    checker.AssertAffine();
  };
  EXPECT_DEATH(access_from_wrong_domain(),
               "\"affinity_test\\.dstate\" is declared affine to execution "
               "domain \"storage\\.flusher\"(.|\n)*\"net\\.conn\"");
}

// One state name declared affine to two different domains is a
// contradiction in the annotations themselves: registration aborts.
TEST(AffinityDeathTest, ConflictingAffineToAborts) {
  SKIP_UNLESS_LOCKDEP();
  struct Owner {
    COUCHKV_AFFINE_TO("affinity_test.conflict", Domain::kDcpProducer);
  };
  struct Intruder {
    COUCHKV_AFFINE_TO("affinity_test.conflict", Domain::kClusterHealth);
  };
  auto register_both = [] {
    Owner owner;
    Intruder intruder;
  };
  EXPECT_DEATH(register_both(),
               "CONFLICTING AFFINITY(.|\n)*\"affinity_test\\.conflict\" is "
               "declared affine to execution domain \"dcp\\.producer\" and "
               "to \"cluster\\.health\"");
}

// --- Spawn-site domain adoption --------------------------------------------
// Each subsystem's spawn site must adopt its documented domain (the
// ScopedDomain at the top of the thread function). The per-domain adoption
// count is the observable: it rises only when a thread actually adopted.

TEST(AffinitySpawnTest, ThreadPoolWorkersAdoptWorkerDomain) {
  SKIP_UNLESS_LOCKDEP();
  ThreadPool pool(2);
  Domain seen = Domain::kClient;
  Mutex mu{"affinity_test.spawn_pool"};
  pool.Submit([&] {
    LockGuard lock(mu);
    seen = lockdep::CurrentDomain();
  });
  pool.Wait();
  LockGuard lock(mu);
  EXPECT_EQ(seen, Domain::kThreadPoolWorker);
}

TEST(AffinitySpawnTest, DcpDispatcherAdoptsProducerDomain) {
  SKIP_UNLESS_LOCKDEP();
  const uint64_t before = lockdep::DomainAdoptions(Domain::kDcpProducer);
  {
    dcp::Dispatcher dispatcher;
    dispatcher.Stop();  // joins the pump thread: it ran and adopted
  }
  EXPECT_GT(lockdep::DomainAdoptions(Domain::kDcpProducer), before);
}

TEST(AffinitySpawnTest, TcpServerLoopsAdoptNetDomains) {
  SKIP_UNLESS_LOCKDEP();
  const uint64_t accept_before = lockdep::DomainAdoptions(Domain::kNetAccept);
  const uint64_t conn_before = lockdep::DomainAdoptions(Domain::kNetConn);
  net::TcpServer server(
      [](const net::wire::Message& req, const net::RequestContext&) {
        net::wire::Message resp;
        resp.magic = net::wire::kMagicResponse;
        resp.opaque = req.opaque;
        return resp;
      });
  ASSERT_TRUE(server.Start().ok());
  const harness::CounterDelta accepted("wire", "server.connections");
  // One real connection, closed immediately: its ConnLoop thread spawns,
  // sees EOF, and exits — enough to adopt kNetConn.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
  while (accepted() == 0) std::this_thread::yield();
  server.Stop();  // joins accept + conn threads
  EXPECT_GT(lockdep::DomainAdoptions(Domain::kNetAccept), accept_before);
  EXPECT_GT(lockdep::DomainAdoptions(Domain::kNetConn), conn_before);
}

TEST(AffinitySpawnTest, BucketFlusherAdoptsStorageFlusherDomain) {
  SKIP_UNLESS_LOCKDEP();
  const uint64_t before = lockdep::DomainAdoptions(Domain::kStorageFlusher);
  {
    cluster::Cluster cluster;
    cluster.AddNode(cluster::kAllServices);
    cluster::BucketConfig config;
    config.name = "affinity-spawn";
    config.num_replicas = 0;
    ASSERT_TRUE(cluster.CreateBucket(config).ok());
  }  // teardown joins every flusher: they ran and adopted
  EXPECT_GT(lockdep::DomainAdoptions(Domain::kStorageFlusher), before);
}

TEST(AffinitySpawnTest, HealthMonitorAdoptsHealthDomain) {
  SKIP_UNLESS_LOCKDEP();
  const uint64_t before = lockdep::DomainAdoptions(Domain::kClusterHealth);
  {
    cluster::Cluster cluster;
    cluster.AddNode(cluster::kAllServices);
    cluster::HealthMonitor monitor(&cluster);
    monitor.Start();
    monitor.Stop();  // joins the ticker thread: it ran and adopted
  }
  EXPECT_GT(lockdep::DomainAdoptions(Domain::kClusterHealth), before);
}

}  // namespace
}  // namespace couchkv
