// Seeded violation: a Mutex declared without a lock class. This file MUST
// FAIL to compile on every compiler: Mutex and SharedMutex have no default
// constructor, so a mutex lockdep cannot name never builds. If it
// compiles, a nameless constructor has come back.
#include "common/synchronization.h"

namespace {

class Worker {
 private:
  couchkv::Mutex mu_;  // BUG (intentional): no lock class
};

}  // namespace

void UnnamedMutexViolationUse() { Worker w; }
