#ifndef BLAZEIT_UTIL_MUTEX_H_
#define BLAZEIT_UTIL_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/thread_annotations.h"

/// Annotated mutex wrappers over the std primitives — the only place in
/// src/ allowed to name std::mutex / std::shared_mutex directly (enforced
/// by ci/lint.py). Two contracts ride on the wrappers:
///
///   * compile time: the Clang Thread Safety Analysis capability
///     attributes (thread_annotations.h), so `-Wthread-safety -Werror`
///     verifies GUARDED_BY / REQUIRES / EXCLUDES protocols when clang is
///     available;
///   * run time: debug-build owner tracking, so AssertHeld() /
///     AssertReaderHeld() abort via BLAZEIT_CHECK on *any* compiler when a
///     `*Locked` helper runs without its mutex.
///
/// Owner tracking compiles in when NDEBUG is unset, under ThreadSanitizer,
/// or when BLAZEIT_FORCE_MUTEX_DEBUG is defined (the ASan/UBSan CI lanes
/// set it); release builds skip the bookkeeping and its checks. The
/// tracking fields exist in every build, so translation units compiled
/// with different flags agree on the classes' layout. Tracking is
/// observe-only — it can abort, never change timing-visible outputs — so
/// the determinism suites are bit-identical with it on.

#if !defined(BLAZEIT_MUTEX_DEBUG)
#if !defined(NDEBUG) || defined(BLAZEIT_FORCE_MUTEX_DEBUG) || \
    defined(__SANITIZE_THREAD__)
#define BLAZEIT_MUTEX_DEBUG 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BLAZEIT_MUTEX_DEBUG 1
#else
#define BLAZEIT_MUTEX_DEBUG 0
#endif
#else
#define BLAZEIT_MUTEX_DEBUG 0
#endif
#endif

namespace blazeit {
namespace util {

/// Annotated exclusive mutex. Prefer the RAII MutexLock over manual
/// Lock/Unlock pairs; `*Locked` helpers document their protocol with
/// BLAZEIT_REQUIRES and verify it at run time with AssertHeld().
class BLAZEIT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BLAZEIT_ACQUIRE() {
    mu_.lock();
    NoteAcquired();
  }

  void Unlock() BLAZEIT_RELEASE() {
    NoteReleased();
    mu_.unlock();
  }

  bool TryLock() BLAZEIT_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    NoteAcquired();
    return true;
  }

  /// Aborts (debug/sanitizer builds) unless the calling thread holds this
  /// mutex; a no-op in release builds. The teeth behind BLAZEIT_REQUIRES
  /// on compilers without the static analysis.
  void AssertHeld() const BLAZEIT_ASSERT_CAPABILITY(this) {
#if BLAZEIT_MUTEX_DEBUG
    BLAZEIT_CHECK(owner_.load(std::memory_order_relaxed) ==
                  std::this_thread::get_id())
        << " — Mutex::AssertHeld: calling thread does not hold the mutex";
#endif
  }

 private:
  friend class CondVar;

  void NoteAcquired() {
#if BLAZEIT_MUTEX_DEBUG
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }
  void NoteReleased() {
#if BLAZEIT_MUTEX_DEBUG
    BLAZEIT_CHECK(owner_.load(std::memory_order_relaxed) ==
                  std::this_thread::get_id())
        << " — Mutex::Unlock by a thread that does not hold the mutex";
    owner_.store(std::thread::id(), std::memory_order_relaxed);
#endif
  }

  std::mutex mu_;
  std::atomic<std::thread::id> owner_{};
};

/// Annotated reader/writer mutex (DetectionStore's index lock). Writer
/// ownership is tracked per thread; readers are tracked as a count, so
/// AssertReaderHeld() catches "no lock at all" but cannot attribute a
/// shared hold to a specific thread — the static analysis covers that
/// direction under clang.
class BLAZEIT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() BLAZEIT_ACQUIRE() {
    mu_.lock();
#if BLAZEIT_MUTEX_DEBUG
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  void Unlock() BLAZEIT_RELEASE() {
#if BLAZEIT_MUTEX_DEBUG
    BLAZEIT_CHECK(owner_.load(std::memory_order_relaxed) ==
                  std::this_thread::get_id())
        << " — SharedMutex::Unlock by a thread that does not hold it";
    owner_.store(std::thread::id(), std::memory_order_relaxed);
#endif
    mu_.unlock();
  }

  void LockShared() BLAZEIT_ACQUIRE_SHARED() {
    mu_.lock_shared();
#if BLAZEIT_MUTEX_DEBUG
    readers_.fetch_add(1, std::memory_order_relaxed);
#endif
  }

  void UnlockShared() BLAZEIT_RELEASE_SHARED() {
#if BLAZEIT_MUTEX_DEBUG
    BLAZEIT_CHECK(readers_.fetch_sub(1, std::memory_order_relaxed) > 0)
        << " — SharedMutex::UnlockShared with no shared hold outstanding";
#endif
    mu_.unlock_shared();
  }

  /// Aborts (debug/sanitizer builds) unless the calling thread holds the
  /// mutex exclusively.
  void AssertHeld() const BLAZEIT_ASSERT_CAPABILITY(this) {
#if BLAZEIT_MUTEX_DEBUG
    BLAZEIT_CHECK(owner_.load(std::memory_order_relaxed) ==
                  std::this_thread::get_id())
        << " — SharedMutex::AssertHeld: calling thread does not hold the "
           "mutex exclusively";
#endif
  }

  /// Aborts (debug/sanitizer builds) unless the mutex is held — shared by
  /// some thread, or exclusively by the caller.
  void AssertReaderHeld() const BLAZEIT_ASSERT_SHARED_CAPABILITY(this) {
#if BLAZEIT_MUTEX_DEBUG
    BLAZEIT_CHECK(readers_.load(std::memory_order_relaxed) > 0 ||
                  owner_.load(std::memory_order_relaxed) ==
                      std::this_thread::get_id())
        << " — SharedMutex::AssertReaderHeld: mutex is not held";
#endif
  }

 private:
  std::shared_mutex mu_;
  std::atomic<std::thread::id> owner_{};
  std::atomic<int> readers_{0};
};

/// RAII exclusive lock on a Mutex. Unlock()/Lock() support protocols that
/// release early (AdmissionQueue::RunPending executes the cut batch with
/// mu_ released); the destructor releases only if still held.
class BLAZEIT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BLAZEIT_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~MutexLock() BLAZEIT_RELEASE() {
    if (held_) mu_->Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before end of scope; the destructor then does nothing.
  void Unlock() BLAZEIT_RELEASE() {
    BLAZEIT_CHECK(held_) << " — MutexLock::Unlock while not held";
    mu_->Unlock();
    held_ = false;
  }

  /// Re-acquires after an early Unlock().
  void Lock() BLAZEIT_ACQUIRE() {
    BLAZEIT_CHECK(!held_) << " — MutexLock::Lock while already held";
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_ = true;
};

/// RAII exclusive lock on a SharedMutex (mutating store paths).
class BLAZEIT_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) BLAZEIT_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~WriterLock() BLAZEIT_RELEASE() { mu_->Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock on a SharedMutex (read-mostly index lookups).
class BLAZEIT_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) BLAZEIT_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->LockShared();
  }
  ~ReaderLock() BLAZEIT_RELEASE_SHARED() { mu_->UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable paired with util::Mutex. Wait* atomically releases
/// the mutex and re-acquires it before returning (owner tracking is
/// cleared across the wait and restored on re-acquire, so AssertHeld()
/// holds again after any Wait — covered by tests/mutex_test.cc).
///
/// Caveat: predicates run while the *tracking* says "not held" (the
/// underlying std wait owns the re-acquisitions), so a predicate must not
/// call AssertHeld-checking helpers — keep predicates to plain field
/// reads, which every call site in this repo does.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Caller must hold `mu` (e.g. via an outstanding MutexLock).
  void Wait(Mutex& mu) BLAZEIT_REQUIRES(mu) {
    mu.NoteReleased();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
    mu.NoteAcquired();
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) BLAZEIT_REQUIRES(mu) {
    mu.NoteReleased();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
    mu.NoteAcquired();
  }

  /// Returns the predicate's final value (false = timed out still-false).
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) BLAZEIT_REQUIRES(mu) {
    mu.NoteReleased();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool result = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    mu.NoteAcquired();
    return result;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace util
}  // namespace blazeit

#endif  // BLAZEIT_UTIL_MUTEX_H_
