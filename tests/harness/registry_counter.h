// Counter reads from the process-wide stats registry, for tests. The
// registry is the only place a counted event is stored, so a test asserts on
// it rather than on a component's accessor. The registry outlives every
// cluster and transport a test makes, so a test reads an interval: a
// CounterDelta remembers the counter when it is made and reports what was
// added since. ctest runs each gtest case in its own process, so an
// interval holds only the case's own traffic.
#ifndef COUCHKV_TESTS_HARNESS_REGISTRY_COUNTER_H_
#define COUCHKV_TESTS_HARNESS_REGISTRY_COUNTER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "stats/registry.h"

namespace couchkv::harness {

// What counter `name` in registry scope `scope` gained since construction
// (either is created, at 0, if it does not exist yet).
class CounterDelta {
 public:
  CounterDelta(const std::string& scope, const std::string& name)
      : scope_(stats::Registry::Global().GetScope(scope)),
        counter_(scope_->GetCounter(name)),
        start_(counter_->Value()) {}

  uint64_t operator()() const { return counter_->Value() - start_; }

 private:
  std::shared_ptr<stats::Scope> scope_;  // keeps counter_ alive
  stats::Counter* counter_;
  uint64_t start_;
};

}  // namespace couchkv::harness

#endif  // COUCHKV_TESTS_HARNESS_REGISTRY_COUNTER_H_
