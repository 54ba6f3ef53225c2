// Positive control for the configure-time lockdep liveness proofs
// (try_run in the top-level CMakeLists.txt): a consistent A-then-B
// acquisition order MUST run to completion with exactly one class-level
// edge recorded, and state asserted from its declared execution domain
// MUST pass, with nested adoption restoring the previous domain. If this
// fails, the proof harness itself is broken — fix it before trusting the
// must-abort cases.
//
// Single-TU harness: try_run cannot link project libraries at configure
// time, so the detector is compiled into this program directly.
#include "common/synchronization.h"

#include "common/lockdep.cc"  // NOLINT

int main() {
  using namespace couchkv;
  static_assert(lockdep::kEnabled,
                "liveness proof must compile with -DCOUCHKV_LOCKDEP");
  Mutex a{"proof.order_a"};
  Mutex b{"proof.order_b"};
  for (int i = 0; i < 3; ++i) {
    LockGuard la(a);
    LockGuard lb(b);
  }
  if (lockdep::EdgeCount() != 1) return 1;

  lockdep::Affine checker{"proof.state", lockdep::Domain::kStorageFlusher};
  {
    lockdep::ScopedDomain domain(lockdep::Domain::kStorageFlusher);
    checker.AssertAffine();  // declared domain: must pass silently
    {
      lockdep::ScopedDomain nested(lockdep::Domain::kNetConn);
      if (lockdep::CurrentDomain() != lockdep::Domain::kNetConn) return 2;
    }
    checker.AssertAffine();
  }
  return lockdep::CurrentDomain() == lockdep::Domain::kClient ? 0 : 3;
}
