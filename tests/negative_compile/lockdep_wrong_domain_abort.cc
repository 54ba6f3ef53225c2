// Must-ABORT case for the configure-time lockdep liveness proof (try_run
// in the top-level CMakeLists.txt): this program touches state declared
// affine to one execution domain from a thread running in another. A live
// checker aborts on the AssertAffine, naming both domains; if this program
// ever exits 0, the domain checks have silently stopped and the configure
// step fails.
//
// Single-TU harness: try_run cannot link project libraries at configure
// time, so the detector is compiled into this program directly.
#include "common/lockdep.h"

#include "common/lockdep.cc"  // NOLINT

int main() {
  using namespace couchkv::lockdep;
  static_assert(kEnabled,
                "liveness proof must compile with -DCOUCHKV_LOCKDEP");
  Affine checker{"proof.state", Domain::kStorageFlusher};
  ScopedDomain domain(Domain::kNetConn);
  checker.AssertAffine();  // wrong domain: the checker must abort here
  return 0;  // reaching this line means the checker is dead
}
