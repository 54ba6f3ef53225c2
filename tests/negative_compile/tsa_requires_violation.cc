// Seeded violation: calls a REQUIRES(mu_) helper without holding the lock.
// This file MUST FAIL to compile under -Werror=thread-safety. If it ever
// compiles, the annotation macros have silently become no-ops and the
// configure step aborts (see the negative-compile block in CMakeLists.txt).
#include "common/synchronization.h"

namespace {

class Account {
 public:
  // BUG (intentional): BalanceLocked requires mu_, but no lock is taken.
  int Balance() const { return BalanceLocked(); }

 private:
  int BalanceLocked() const REQUIRES(mu_) { return balance_; }

  mutable couchkv::Mutex mu_{"proof.account"};
  int balance_ GUARDED_BY(mu_) = 0;
};

}  // namespace

void TsaViolationUse() {
  Account a;
  (void)a.Balance();
}
