// Annotated mutex primitives (DESIGN.md §13): thin wrappers over
// std::mutex / std::condition_variable / pthread_rwlock_t that carry the
// clang thread-safety capability annotations from util/thread_annotations.h.
// All locking in src/ goes through these types — tools/lint_invariants.py
// rejects raw std::mutex, std::shared_mutex and pthread_rwlock outside
// src/util/ — so the -Wthread-safety CI build proves the repo's lock
// discipline instead of documenting it.
//
// The wrappers add no state and no behavior: Mutex is std::mutex, MutexLock
// is a scoped lock (with an adopt constructor for try-lock paths), CondVar
// waits on a Mutex the caller already holds, and SharedMutex is a
// writer-preferring reader-writer lock with scoped ReaderLock / WriterLock
// guards. Condition waits are written as explicit while-loops at the call
// sites (not predicate lambdas) because the analysis cannot see through a
// lambda's capture list.

#ifndef QREG_UTIL_MUTEX_H_
#define QREG_UTIL_MUTEX_H_

#include <pthread.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>

#include "util/thread_annotations.h"

namespace qreg {
namespace util {

class CondVar;

/// \brief An annotated std::mutex. Prefer MutexLock over manual
/// Lock()/Unlock() pairs; the manual API exists for the adopt idiom and for
/// code with non-scoped critical sections.
class QREG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QREG_ACQUIRE() { mu_.lock(); }
  void Unlock() QREG_RELEASE() { mu_.unlock(); }

  /// Returns true (with the lock held) iff the mutex was free. Pair a
  /// successful TryLock with MutexLock's adopt constructor so the release
  /// is still scoped.
  bool TryLock() QREG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII scoped lock over util::Mutex.
class QREG_SCOPED_CAPABILITY MutexLock {
 public:
  /// Tag type selecting the adopt constructor.
  struct Adopt {};

  explicit MutexLock(Mutex* mu) QREG_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }

  /// Adopts a mutex the caller already holds (e.g. after a successful
  /// TryLock) so the destructor releases it.
  MutexLock(Mutex* mu, Adopt) QREG_REQUIRES(mu) : mu_(mu) {}

  ~MutexLock() QREG_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// \brief Condition variable paired with util::Mutex. Every wait requires
/// the mutex held; spurious wakeups are expected — call sites loop on their
/// predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu, blocks, and reacquires *mu before returning.
  void Wait(Mutex* mu) QREG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // The caller's scope still owns the mutex.
  }

  /// Like Wait() but gives up after `nanos`. Returns false iff the wait
  /// timed out (the mutex is reacquired either way). Non-positive `nanos`
  /// times out immediately.
  bool WaitFor(Mutex* mu, int64_t nanos) QREG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lk, std::chrono::nanoseconds(nanos));
    lk.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// \brief An annotated reader-writer lock: any number of readers, or one
/// writer. Writer-preferring — once a writer waits, new readers queue
/// behind it — so a steady stream of readers cannot starve inserts (glibc's
/// default, like std::shared_mutex, prefers readers). Linux-only, as is the
/// repo. Not recursive: a thread must not re-acquire a lock it holds.
class QREG_CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() {
    pthread_rwlockattr_t attr;
    if (pthread_rwlockattr_init(&attr) != 0 ||
        pthread_rwlockattr_setkind_np(
            &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP) != 0 ||
        pthread_rwlock_init(&rw_, &attr) != 0) {
      std::abort();
    }
    pthread_rwlockattr_destroy(&attr);
  }
  ~SharedMutex() { pthread_rwlock_destroy(&rw_); }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() QREG_ACQUIRE() { pthread_rwlock_wrlock(&rw_); }
  void Unlock() QREG_RELEASE() { pthread_rwlock_unlock(&rw_); }
  void LockShared() QREG_ACQUIRE_SHARED() { pthread_rwlock_rdlock(&rw_); }
  void UnlockShared() QREG_RELEASE_SHARED() { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

/// \brief RAII scoped exclusive (writer) lock over util::SharedMutex.
class QREG_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) QREG_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~WriterLock() QREG_RELEASE() { mu_->Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// \brief RAII scoped shared (reader) lock over util::SharedMutex.
class QREG_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) QREG_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() QREG_RELEASE() { mu_->UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_MUTEX_H_
