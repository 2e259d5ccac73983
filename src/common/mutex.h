#ifndef DINOMO_COMMON_MUTEX_H_
#define DINOMO_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace dinomo {

/// Annotated wrappers over the standard lock types (DESIGN.md, "Locking
/// discipline"). All mutexes in the tree are one of these so that the
/// clang `-Wthread-safety` build can prove the guard invariants; on GCC
/// the annotations compile away and each wrapper is a zero-cost veneer.
///
/// Lock-acquisition order across the system is documented in DESIGN.md
/// and machine-checked by scripts/lock_lint.py over the guard
/// constructions below — use the scoped guards (MutexLock / ReaderLock /
/// WriterLock / SpinLockHolder), not bare Lock()/Unlock(), so both the
/// analysis and the lint see every acquisition.

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Annotated std::shared_mutex: exclusive writers, shared readers.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Test-and-test-and-set spin lock. Buckets and small critical sections
/// use this instead of Mutex to mimic the per-cache-line bucket locks of
/// CLHT without a heavyweight futex. Same capability semantics as Mutex;
/// guard with SpinLockHolder.
class CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() ACQUIRE() {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) {
        // spin
      }
    }
  }

  bool try_lock() TRY_ACQUIRE(true) {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() RELEASE() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// RAII exclusive lock on a Mutex. The CondVar waits below take the
/// guard itself, so a wait cannot be written against a mutex the caller
/// does not hold.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : ul_(mu.mu_) {}
  /// Adopts a mutex the caller already holds (e.g. after TryLock or a
  /// contention-counting manual Lock); the guard releases it on scope
  /// exit exactly like a normal acquisition.
  MutexLock(Mutex& mu, std::adopt_lock_t) REQUIRES(mu)
      : ul_(mu.mu_, std::adopt_lock) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> ul_;
};

/// RAII exclusive lock on a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII lock on a SpinLock.
class SCOPED_CAPABILITY SpinLockHolder {
 public:
  explicit SpinLockHolder(SpinLock& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~SpinLockHolder() RELEASE() { mu_.unlock(); }

  SpinLockHolder(const SpinLockHolder&) = delete;
  SpinLockHolder& operator=(const SpinLockHolder&) = delete;

 private:
  SpinLock& mu_;
};

/// Condition variable bound to MutexLock guards. Waits take the guard,
/// so holding the right mutex is visible to both the reader and the
/// analysis; prefer the predicate overloads (or an explicit
/// `while (!cond) cv.Wait(lock);` loop when the predicate reads
/// GUARDED_BY state — a re-check after wakeup outside the loop is
/// exactly the lost-wakeup shape the lint hunts).
///
/// The wait internals are NO_THREAD_SAFETY_ANALYSIS: the analysis has no
/// model for "atomically release and reacquire", and from the caller's
/// point of view the capability is continuously held across the wait —
/// which is precisely the invariant predicates rely on.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Single wait (spurious wakeups possible); wrap in a predicate loop.
  void Wait(MutexLock& lock) NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(lock.ul_);
  }

  /// Waits until `pred()` holds. The predicate runs with the lock held.
  /// NOTE: the analysis does not see through the closure — predicates
  /// reading GUARDED_BY fields should live in the enclosing function as
  /// an explicit `while (!cond) Wait(lock);` loop instead, so the reads
  /// are checked.
  template <typename Pred>
  void Wait(MutexLock& lock, Pred pred) {
    while (!pred()) Wait(lock);
  }

  /// Timed single wait; returns false on timeout. As with Wait, callers
  /// re-check their predicate under the lock in the enclosing scope.
  template <typename Clock, typename Duration>
  bool WaitUntil(MutexLock& lock,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_until(lock.ul_, deadline) == std::cv_status::no_timeout;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace dinomo

#endif  // DINOMO_COMMON_MUTEX_H_
