// Positive control for the checked-build negative-compile proofs
// (unnamed_mutex_violation.cc, string_domain_violation.cc): a named Mutex
// and an execution domain given as a lockdep::Domain. This file MUST
// compile on every compiler; if it does not, the harness itself is broken.
#include "common/lockdep.h"
#include "common/synchronization.h"

namespace {

class Worker {
 public:
  void Loop() { COUCHKV_ASSERT_AFFINE(); }

 private:
  couchkv::Mutex mu_{"proof.worker"};
  COUCHKV_AFFINE_TO("proof.worker_loop",
                    couchkv::lockdep::Domain::kThreadPoolWorker);
};

}  // namespace

void LockdepTypesControlUse() {
  couchkv::lockdep::ScopedDomain domain(
      couchkv::lockdep::Domain::kThreadPoolWorker);
  Worker w;
  w.Loop();
}
