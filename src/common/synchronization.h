// Annotated synchronization primitives: thin wrappers over the standard
// library types carrying Clang Thread Safety Analysis attributes, so the
// codebase's lock discipline — which capability guards which field, which
// helper requires which lock — is checked at compile time on Clang builds
// (-Werror=thread-safety in CI) instead of sampled at runtime by TSan.
//
// On non-Clang compilers every attribute macro expands to nothing and the
// wrappers compile to the std types with zero overhead.
//
// Usage conventions (see DESIGN.md "Lock hierarchy"):
//   * Every mutex-protected field is declared `T field_ GUARDED_BY(mu_);`.
//   * Private helpers that assume the lock is held are suffixed `_locked`
//     (or documented) and annotated `REQUIRES(mu_)`.
//   * `NO_THREAD_SAFETY_ANALYSIS` is an escape hatch of last resort; every
//     use must carry a comment justifying why the analysis cannot see the
//     invariant.
#ifndef COUCHKV_COMMON_SYNCHRONIZATION_H_
#define COUCHKV_COMMON_SYNCHRONIZATION_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lockdep.h"

// --- Attribute macros (the canonical set from the Clang TSA docs) ---

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define COUCHKV_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef COUCHKV_THREAD_ANNOTATION
#define COUCHKV_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) COUCHKV_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY COUCHKV_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) COUCHKV_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) COUCHKV_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  COUCHKV_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  COUCHKV_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  COUCHKV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  COUCHKV_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) COUCHKV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  COUCHKV_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) COUCHKV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  COUCHKV_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  COUCHKV_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  COUCHKV_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  COUCHKV_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) COUCHKV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) COUCHKV_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  COUCHKV_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) COUCHKV_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  COUCHKV_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace couchkv {

class CondVar;

// Exclusive mutex. Prefer LockGuard/UniqueLock over manual Lock/Unlock.
//
// Every mutex declares its lockdep lock CLASS at the declaration site:
// `Mutex mu_{"cluster.node"};` (naming rules in DESIGN.md "Lock
// hierarchy"). There is no nameless constructor, so an unnamed mutex does
// not compile. Under -DCOUCHKV_LOCKDEP=ON the class feeds the runtime
// lock-order detector (common/lockdep.h); in normal builds the name
// argument costs nothing.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* lock_class, unsigned lockdep_flags = 0) {
#if defined(COUCHKV_LOCKDEP)
    class_id_ = lockdep::RegisterInstance(lock_class, lockdep_flags);
#endif
    (void)lock_class;
    (void)lockdep_flags;
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lockdep::OnAcquire(this, class_id());
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lockdep::OnRelease(this);
  }
  bool TryLock() TRY_ACQUIRE(true) {
    bool ok = mu_.try_lock();
    if (ok) lockdep::OnTryAcquired(this, class_id());
    return ok;
  }

  // For code the analysis cannot follow (e.g. a lock handed across a
  // callback boundary): asserts at the annotation level that the calling
  // thread holds this mutex.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class UniqueLock;
#if defined(COUCHKV_LOCKDEP)
  uint32_t class_id() const { return class_id_; }
  uint32_t class_id_;
#else
  static constexpr uint32_t class_id() { return 0; }
#endif
  std::mutex mu_;
};

// Reader/writer mutex. Shared (reader) acquisitions participate in lockdep
// ordering like exclusive ones: a reader can still deadlock against a
// queued writer, so reader edges are tracked conservatively.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* lock_class, unsigned lockdep_flags = 0) {
#if defined(COUCHKV_LOCKDEP)
    class_id_ = lockdep::RegisterInstance(lock_class, lockdep_flags);
#endif
    (void)lock_class;
    (void)lockdep_flags;
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lockdep::OnAcquire(this, class_id());
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lockdep::OnRelease(this);
  }
  void LockShared() ACQUIRE_SHARED() {
    lockdep::OnAcquire(this, class_id());
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
    lockdep::OnRelease(this);
  }

  void AssertHeld() ASSERT_CAPABILITY(this) {}
  void AssertSharedHeld() ASSERT_SHARED_CAPABILITY(this) {}

 private:
#if defined(COUCHKV_LOCKDEP)
  uint32_t class_id() const { return class_id_; }
  uint32_t class_id_;
#else
  static constexpr uint32_t class_id() { return 0; }
#endif
  std::shared_mutex mu_;
};

// RAII exclusive lock over Mutex (std::lock_guard equivalent).
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~LockGuard() RELEASE() { mu_.Unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive lock over SharedMutex (writer side).
class SCOPED_CAPABILITY WriterLockGuard {
 public:
  explicit WriterLockGuard(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLockGuard() RELEASE() { mu_.Unlock(); }

  WriterLockGuard(const WriterLockGuard&) = delete;
  WriterLockGuard& operator=(const WriterLockGuard&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderLockGuard {
 public:
  explicit ReaderLockGuard(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLockGuard() RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLockGuard(const ReaderLockGuard&) = delete;
  ReaderLockGuard& operator=(const ReaderLockGuard&) = delete;

 private:
  SharedMutex& mu_;
};

// Movable-state exclusive lock that supports manual Unlock/Lock cycles and
// condition-variable waits (std::unique_lock equivalent). The analysis
// tracks the held/released state across the manual calls.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu)
      : lock_(mu.mu_, std::defer_lock)
#if defined(COUCHKV_LOCKDEP)
        ,
        mu_(&mu)
#endif
  {
    lockdep::OnAcquire(lockdep_instance(), lockdep_class());
    lock_.lock();
  }
  // Releases iff still held (std::unique_lock semantics).
  ~UniqueLock() RELEASE() {
    if (lock_.owns_lock()) {
      lock_.unlock();
      lockdep::OnRelease(lockdep_instance());
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void Lock() ACQUIRE() {
    lockdep::OnAcquire(lockdep_instance(), lockdep_class());
    lock_.lock();
  }
  void Unlock() RELEASE() {
    lock_.unlock();
    lockdep::OnRelease(lockdep_instance());
  }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
#if defined(COUCHKV_LOCKDEP)
  // The wrapped mutex, for the lockdep hooks; compiled out of normal
  // builds so the wrapper stays the size of std::unique_lock.
  Mutex* mu_;
  const void* lockdep_instance() const { return mu_; }
  uint32_t lockdep_class() const { return mu_->class_id(); }
#else
  static constexpr const void* lockdep_instance() { return nullptr; }
  static constexpr uint32_t lockdep_class() { return 0; }
#endif
};

// Condition variable operating on UniqueLock. The lock is held on entry and
// on return of every Wait* call (the internal release/re-acquire inside the
// wait is invisible to the analysis, matching its held-throughout contract).
// Callers write explicit `while (!predicate_locked()) cv.Wait(lock);` loops;
// predicate reads are then checked against the lock like any other access.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(UniqueLock& lock) {
    lockdep::OnCondVarWait(lock.lockdep_instance());
    cv_.wait(lock.lock_);
  }

  // Returns false on timeout, true when notified.
  template <typename Rep, typename Period>
  bool WaitFor(UniqueLock& lock,
               const std::chrono::duration<Rep, Period>& rel_time) {
    lockdep::OnCondVarWait(lock.lockdep_instance());
    return cv_.wait_for(lock.lock_, rel_time) == std::cv_status::no_timeout;
  }

  template <typename ClockT, typename DurationT>
  bool WaitUntil(UniqueLock& lock,
                 const std::chrono::time_point<ClockT, DurationT>& deadline) {
    lockdep::OnCondVarWait(lock.lockdep_instance());
    return cv_.wait_until(lock.lock_, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

#if !defined(COUCHKV_LOCKDEP)
// Outside the checked build the wrappers are exactly the std types.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex));
static_assert(sizeof(UniqueLock) == sizeof(std::unique_lock<std::mutex>));
#endif

}  // namespace couchkv

#endif  // COUCHKV_COMMON_SYNCHRONIZATION_H_
