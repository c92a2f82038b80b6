// Annotated synchronisation primitives — the std primitives wrapped so Clang
// Thread Safety Analysis can see them (util/thread_annotations.h).
//
// libstdc++ ships std::mutex without capability attributes, which makes
// GUARDED_BY members unverifiable through it: clang has no idea a
// std::scoped_lock holds anything.  These wrappers restore the contract at
// zero cost — each is a thin shell over the std type with the attributes
// attached — so every mutex-guarded structure in the concurrent core
// (util::thread_pool's task queue, serve::tcp_server's request queue,
// in-flight count and completion queue) is checked at compile time under
// -Wthread-safety, not just probed at runtime by TSan.
//
// Usage:
//     util::mutex mutex_;
//     std::queue<task> tasks_ HCQ_GUARDED_BY(mutex_);
//     ...
//     { const util::mutex_lock lock(mutex_); tasks_.push(t); }
//
// Condition-variable waits keep the capability held across the call from the
// analysis's point of view (the lock is held on entry and on return, which
// is the contract callers rely on).  Write wait loops with the predicate in
// the *calling* scope — `while (!ready_) cv_.wait(lock);` — so the analysis
// checks the guarded reads against the held lock; a predicate lambda would
// be analysed as an unannotated separate function.
#ifndef HCQ_UTIL_SYNC_H
#define HCQ_UTIL_SYNC_H

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace hcq::util {

/// Annotated std::mutex.  Prefer util::mutex_lock over calling
/// lock()/unlock() directly; the RAII form cannot leak the capability.
class HCQ_CAPABILITY("mutex") mutex {
public:
    mutex() = default;
    mutex(const mutex&) = delete;
    mutex& operator=(const mutex&) = delete;

    void lock() HCQ_ACQUIRE() { m_.lock(); }
    void unlock() HCQ_RELEASE() { m_.unlock(); }
    [[nodiscard]] bool try_lock() HCQ_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /// The wrapped std::mutex, for interop with std waiting machinery.
    [[nodiscard]] std::mutex& native() noexcept { return m_; }

private:
    std::mutex m_;
};

/// RAII lock over util::mutex (the std::scoped_lock shape, annotated).
class HCQ_SCOPED_CAPABILITY mutex_lock {
public:
    explicit mutex_lock(mutex& m) HCQ_ACQUIRE(m) : lock_(m.native()) {}
    ~mutex_lock() HCQ_RELEASE() = default;

    mutex_lock(const mutex_lock&) = delete;
    mutex_lock& operator=(const mutex_lock&) = delete;

private:
    friend class cond_var;
    std::unique_lock<std::mutex> lock_;
};

/// Condition variable waiting on a util::mutex_lock.  As with
/// std::condition_variable, every waiter must hold the lock the notifier
/// uses to guard the awaited state.
class cond_var {
public:
    cond_var() = default;
    cond_var(const cond_var&) = delete;
    cond_var& operator=(const cond_var&) = delete;

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    /// One blocking wait (atomically releases and reacquires the lock).
    /// Spurious wakeups happen; always call from a predicate loop.
    void wait(mutex_lock& lock) { cv_.wait(lock.lock_); }

private:
    std::condition_variable cv_;
};

}  // namespace hcq::util

#endif  // HCQ_UTIL_SYNC_H
