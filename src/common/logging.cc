#include "common/logging.h"

#include <atomic>
#include <cstdio>

#include "common/synchronization.h"

namespace couchkv {
namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
// Serializes the fprintf so concurrent log lines do not interleave; stderr
// itself is the guarded resource, so there is no GUARDED_BY field.
Mutex g_mu{"logging.stderr"};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level); }
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

namespace internal_log {
void Emit(LogLevel level, const std::string& msg) {
  if (level < GetLogLevel()) return;
  LockGuard lock(g_mu);
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), msg.c_str());
}
}  // namespace internal_log

}  // namespace couchkv
