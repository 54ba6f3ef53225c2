// Seeded violation: writes a GUARDED_BY field without holding its mutex.
// This file MUST FAIL to compile under -Werror=thread-safety. If it ever
// compiles, the annotation macros have silently become no-ops and the
// configure step aborts (see the negative-compile block in CMakeLists.txt).
#include "common/synchronization.h"

namespace {

class Account {
 public:
  // BUG (intentional): no lock taken around the guarded write.
  void Deposit(int amount) { balance_ += amount; }

 private:
  couchkv::Mutex mu_{"proof.account"};
  int balance_ GUARDED_BY(mu_) = 0;
};

}  // namespace

void TsaViolationUse() {
  Account a;
  a.Deposit(1);
}
