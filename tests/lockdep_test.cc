// Lockdep (common/lockdep.h) behavioral suite. Meaningful only under
// -DCOUCHKV_LOCKDEP=ON — in normal builds every case GTEST_SKIPs, proving
// the hooks really compile out rather than silently half-working.
//
// The detector is process-global state, so each case uses its own uniquely
// named lock classes, and the fatal cases run the WHOLE poisoned sequence
// inside EXPECT_DEATH: the child process inherits the parent's graph but
// its new edges die with it, leaving the parent's graph clean for later
// cases.
#include "common/lockdep.h"

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/synchronization.h"

namespace couchkv {
namespace {

#define SKIP_UNLESS_LOCKDEP()                                        \
  do {                                                               \
    if (!lockdep::kEnabled) {                                        \
      GTEST_SKIP() << "built without COUCHKV_LOCKDEP; hooks are "    \
                      "no-ops";                                      \
    }                                                                \
  } while (0)

// A->B then B->A must abort with the inversion report, even though the
// deadly interleaving never executes (single thread, no second waiter).
TEST(LockdepDeathTest, AbbaInversionAborts) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_DEATH(
      {
        Mutex a{"lockdep_test.abba_a"};
        Mutex b{"lockdep_test.abba_b"};
        {
          LockGuard la(a);
          LockGuard lb(b);  // edge abba_a -> abba_b
        }
        LockGuard lb(b);
        LockGuard la(a);  // edge abba_b -> abba_a closes the cycle
      },
      "lock-order inversion");
}

// The report must carry BOTH sides: the existing order and the new edge,
// each with an acquisition stack.
TEST(LockdepDeathTest, InversionReportNamesBothEdges) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_DEATH(
      {
        Mutex a{"lockdep_test.rpt_a"};
        Mutex b{"lockdep_test.rpt_b"};
        {
          LockGuard la(a);
          LockGuard lb(b);
        }
        LockGuard lb(b);
        LockGuard la(a);
      },
      "existing order: \"lockdep_test\\.rpt_a\" -> \"lockdep_test\\.rpt_b\""
      "(.|\n)*new edge: +\"lockdep_test\\.rpt_b\" -> "
      "\"lockdep_test\\.rpt_a\"");
}

// Consistent A-then-B ordering from many threads is NOT an inversion: the
// suite reaching the end of this test (no abort) is the assertion.
TEST(LockdepTest, ConsistentOrderingNoFalsePositive) {
  SKIP_UNLESS_LOCKDEP();
  Mutex a{"lockdep_test.consistent_a"};
  Mutex b{"lockdep_test.consistent_b"};
  const uint64_t before = lockdep::EdgeCount();
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        LockGuard la(a);
        LockGuard lb(b);
      }
    });
  }
  for (auto& th : threads) th.join();
  // One class-level edge no matter how many acquisitions or threads.
  EXPECT_EQ(lockdep::EdgeCount(), before + 1);
}

// Waiting on a condvar while holding ANOTHER lock is reported (the held
// lock blocks for an unbounded time), with counter + last-report text.
TEST(LockdepTest, CondVarWaitWhileHoldingAnotherLockReports) {
  SKIP_UNLESS_LOCKDEP();
  Mutex held{"lockdep_test.cv_held"};
  Mutex waited{"lockdep_test.cv_waited"};
  CondVar cv;
  const uint64_t before = lockdep::CondVarHoldReports();
  {
    LockGuard outer(held);
    UniqueLock inner(waited);
    (void)cv.WaitFor(inner, std::chrono::milliseconds(1));
  }
  EXPECT_EQ(lockdep::CondVarHoldReports(), before + 1);
  EXPECT_NE(lockdep::LastReport().find("lockdep_test.cv_held"),
            std::string::npos)
      << "report should name the held lock: " << lockdep::LastReport();
}

// Waiting while holding only the waited lock is the normal pattern: silent.
TEST(LockdepTest, CondVarWaitHoldingOnlyWaitedLockIsSilent) {
  SKIP_UNLESS_LOCKDEP();
  Mutex waited{"lockdep_test.cv_only"};
  CondVar cv;
  const uint64_t before = lockdep::CondVarHoldReports();
  {
    UniqueLock inner(waited);
    (void)cv.WaitFor(inner, std::chrono::milliseconds(1));
  }
  EXPECT_EQ(lockdep::CondVarHoldReports(), before);
}

// A blocking call under a kHotPath lock class is reported; the same call
// with no hot lock held is silent.
TEST(LockdepTest, BlockingCallUnderHotPathLockReports) {
  SKIP_UNLESS_LOCKDEP();
  Mutex hot{"lockdep_test.hot", lockdep::kHotPath};
  const uint64_t before = lockdep::BlockingWhileHotReports();
  { lockdep::ScopedBlockingCall ok("lockdep_test-io-unlocked"); }
  EXPECT_EQ(lockdep::BlockingWhileHotReports(), before);
  {
    LockGuard lock(hot);
    lockdep::ScopedBlockingCall bad("lockdep_test-io-under-hot");
  }
  EXPECT_EQ(lockdep::BlockingWhileHotReports(), before + 1);
  EXPECT_NE(lockdep::LastReport().find("lockdep_test.hot"), std::string::npos)
      << "report should name the hot class: " << lockdep::LastReport();
}

// A non-hot lock held across a blocking call is allowed (cold paths may
// legitimately wait on disk).
TEST(LockdepTest, BlockingCallUnderColdLockIsSilent) {
  SKIP_UNLESS_LOCKDEP();
  Mutex cold{"lockdep_test.cold"};
  const uint64_t before = lockdep::BlockingWhileHotReports();
  {
    LockGuard lock(cold);
    lockdep::ScopedBlockingCall ok("lockdep_test-io-under-cold");
  }
  EXPECT_EQ(lockdep::BlockingWhileHotReports(), before);
}

// TryLock cannot block, so it adds no incoming edge — but the lock joins
// the held stack and seeds OUTGOING edges for later acquisitions.
TEST(LockdepTest, TryLockAddsNoIncomingEdgeButSeedsOutgoing) {
  SKIP_UNLESS_LOCKDEP();
  Mutex a{"lockdep_test.try_a"};
  Mutex b{"lockdep_test.try_b"};
  Mutex c{"lockdep_test.try_c"};
  const uint64_t before = lockdep::EdgeCount();
  LockGuard la(a);
  ASSERT_TRUE(b.TryLock());
  EXPECT_EQ(lockdep::EdgeCount(), before) << "trylock must not add a->b";
  {
    LockGuard lc(c);  // blocks: both a->c and b->c are recorded
  }
  EXPECT_EQ(lockdep::EdgeCount(), before + 2);
  b.Unlock();
}

// Two locks of the same (non-nestable) class at once is a potential
// self-deadlock: another thread doing the same in the opposite instance
// order would deadlock, and instance-level ordering is not tracked.
TEST(LockdepDeathTest, SameClassNestingAborts) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_DEATH(
      {
        Mutex m1{"lockdep_test.selfnest"};
        Mutex m2{"lockdep_test.selfnest"};
        LockGuard l1(m1);
        LockGuard l2(m2);
      },
      "same-class nested acquisition");
}

// kNestable opts a class out of the same-class rule.
TEST(LockdepTest, NestableClassAllowsSameClassNesting) {
  SKIP_UNLESS_LOCKDEP();
  Mutex m1{"lockdep_test.nestable", lockdep::kNestable};
  Mutex m2{"lockdep_test.nestable", lockdep::kNestable};
  LockGuard l1(m1);
  LockGuard l2(m2);
  SUCCEED();
}

// Re-acquiring the very same instance is a guaranteed self-deadlock (the
// one case that needs no second thread), reported distinctly.
TEST(LockdepDeathTest, RecursiveSameInstanceAborts) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_DEATH(
      {
        Mutex m{"lockdep_test.recursive"};
        m.Lock();
        m.Lock();
      },
      "recursive acquisition of the same instance");
}

// The JSON dump feeding scripts/lockdep_check.py must list the classes
// with their instance counts, the observed class-level edges, and the
// declared order table.
TEST(LockdepTest, DumpGraphJsonContainsClassesAndEdges) {
  SKIP_UNLESS_LOCKDEP();
  Mutex a{"lockdep_test.dump_a"};
  Mutex b{"lockdep_test.dump_b"};
  {
    LockGuard la(a);
    LockGuard lb(b);
  }
  const std::string json = lockdep::DumpGraphJson();
  EXPECT_NE(json.find("\"lockdep_test.dump_a\""), std::string::npos);
  EXPECT_NE(json.find("\"lockdep_test.dump_b\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"lockdep_test.dump_a\", \"flags\": 0, "
                      "\"instances\": 1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"from\": \"lockdep_test.dump_a\", "
                      "\"to\": \"lockdep_test.dump_b\", "
                      "\"declared\": false}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"from\": \"cluster.node\", "
                      "\"to\": \"cluster.vbucket.op\", "
                      "\"declared\": true}"),
            std::string::npos)
      << json;
}

// The declared order table is in the graph from the start: taking a table
// pair in reverse aborts on the first try, with no prior forward
// acquisition, and the report names the declared order it breaks.
TEST(LockdepDeathTest, ReversedTableEdgeAbortsNamingDeclaredOrder) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_DEATH(
      {
        Mutex node{"cluster.node"};
        Mutex op{"cluster.vbucket.op"};
        LockGuard lop(op);
        LockGuard lnode(node);  // table: cluster.node -> cluster.vbucket.op
      },
      "existing order: \"cluster\\.node\" -> \"cluster\\.vbucket\\.op\""
      "(.|\n)*declared order \"cluster\\.node\" -> "
      "\"cluster\\.vbucket\\.op\" \\(the order table");
}

// SharedMutex readers participate in ordering like writers: a reader-side
// inversion is still a potential deadlock (writer starvation chains).
TEST(LockdepDeathTest, SharedAcquisitionInversionAborts) {
  SKIP_UNLESS_LOCKDEP();
  EXPECT_DEATH(
      {
        SharedMutex a{"lockdep_test.shared_a"};
        SharedMutex b{"lockdep_test.shared_b"};
        {
          ReaderLockGuard la(a);
          ReaderLockGuard lb(b);
        }
        ReaderLockGuard lb(b);
        ReaderLockGuard la(a);
      },
      "lock-order inversion");
}

// In a non-lockdep build the detector must report exactly nothing — the
// inverse of SKIP_UNLESS_LOCKDEP: this case runs ONLY when lockdep is off.
TEST(LockdepTest, DisabledBuildHooksAreInert) {
  if (lockdep::kEnabled) {
    GTEST_SKIP() << "covered by the cases above when lockdep is on";
  }
  Mutex a{"lockdep_test.off_a"};
  Mutex b{"lockdep_test.off_b"};
  {
    LockGuard la(a);
    LockGuard lb(b);
  }
  EXPECT_EQ(lockdep::EdgeCount(), 0u);
  EXPECT_EQ(lockdep::CondVarHoldReports(), 0u);
  EXPECT_EQ(lockdep::BlockingWhileHotReports(), 0u);
  EXPECT_EQ(lockdep::LastReport(), "");
}

}  // namespace
}  // namespace couchkv
