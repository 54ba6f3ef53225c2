// Seeded violation: an execution domain spelled as a string. This file
// MUST FAIL to compile on every compiler: ScopedDomain and
// COUCHKV_AFFINE_TO take a lockdep::Domain, so a misspelled or unknown
// domain cannot exist. If it compiles, the string overloads have come back.
#include "common/lockdep.h"

void StringDomainViolationUse() {
  // BUG (intentional): a string where a lockdep::Domain belongs.
  couchkv::lockdep::ScopedDomain domain("thread_pool.worker");
}
