// Positive control for the configure-time negative-compile harness: correct
// lock discipline through the annotated types. This file MUST compile under
// -Werror=thread-safety; if it does not, the harness itself is broken.
#include "common/synchronization.h"

namespace {

class Account {
 public:
  void Deposit(int amount) EXCLUDES(mu_) {
    couchkv::LockGuard lock(mu_);
    balance_ += amount;
  }

  int Balance() const EXCLUDES(mu_) {
    couchkv::LockGuard lock(mu_);
    return BalanceLocked();
  }

 private:
  int BalanceLocked() const REQUIRES(mu_) { return balance_; }

  mutable couchkv::Mutex mu_{"proof.account"};
  int balance_ GUARDED_BY(mu_) = 0;
};

}  // namespace

void TsaControlUse() {
  Account a;
  a.Deposit(1);
  (void)a.Balance();
}
