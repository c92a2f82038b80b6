// Minimal task-parallel execution support for parameter sweeps and
// per-instance fan-out in benches.  Guideline CP.*: tasks over raw threads,
// no shared mutable state beyond the internally synchronised queue.
//
// The queue state is annotated for Clang Thread Safety Analysis (see
// util/thread_annotations.h): every member mutex_ protects is
// HCQ_GUARDED_BY(mutex_), so an unlocked access is a compile error under
// -Wthread-safety, not a latent race.
#ifndef HCQ_UTIL_THREAD_POOL_H
#define HCQ_UTIL_THREAD_POOL_H

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hcq::util {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
/// Destruction waits for all submitted tasks to finish.
///
/// Exception safety: a task that throws does not kill its worker — the first
/// exception is captured and rethrown from the next `wait_idle()` (or
/// swallowed by the destructor when the pool is torn down without waiting).
/// Subsequent exceptions, and exceptions with no waiter, are dropped after
/// the first; tasks continue to drain either way.
class thread_pool {
public:
    /// Creates `num_threads` workers (0 selects hardware concurrency).
    explicit thread_pool(std::size_t num_threads = 0);

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    ~thread_pool();

    /// Enqueues a task for asynchronous execution.  Throws std::runtime_error
    /// once shutdown has begun — a task accepted after `stop()` (or during
    /// destruction) would never run, so silently queuing it is a lost-update
    /// bug on the caller's side.
    void submit(std::function<void()> task) HCQ_EXCLUDES(mutex_);

    /// Blocks until every submitted task has completed.  Rethrows the first
    /// exception that escaped a task since the previous wait.
    void wait_idle() HCQ_EXCLUDES(mutex_);

    /// Begins shutdown: drains already-queued tasks, then joins all workers.
    /// Idempotent; called by the destructor.  After stop() returns, submit()
    /// throws and size() still reports the original worker count.
    void stop() HCQ_EXCLUDES(mutex_);

    [[nodiscard]] std::size_t size() const noexcept { return num_workers_; }

    /// One consistent snapshot of the queue state (both counts read under a
    /// single lock acquisition, so queued + in_flight never double- or
    /// under-counts a task mid-dispatch).
    struct queue_snapshot {
        std::size_t queued = 0;     ///< tasks submitted but not yet started
        std::size_t in_flight = 0;  ///< tasks currently executing on a worker
    };
    [[nodiscard]] queue_snapshot snapshot() const HCQ_EXCLUDES(mutex_);

    /// Runs fn(slot, i) for every i in [0, n) and blocks until all complete.
    /// min(size(), n) tasks each own one slot in [0, size()) and pull
    /// indices off a shared counter, so state a caller keeps per slot is
    /// never touched by two threads at once (one call at a time per pool).
    /// If an iteration throws, not-yet-started iterations are abandoned and
    /// the first exception is rethrown here once the tasks have drained.
    void for_each_slot(std::size_t n,
                       const std::function<void(std::size_t slot, std::size_t i)>& fn)
        HCQ_EXCLUDES(mutex_);

private:
    void worker_loop() HCQ_EXCLUDES(mutex_);

    mutable mutex mutex_;
    /// Joined by stop(), which claims them under the lock so overlapping
    /// stops cannot double-join.
    std::vector<std::thread> workers_ HCQ_GUARDED_BY(mutex_);
    std::size_t num_workers_ = 0;  ///< immutable after construction
    std::queue<std::function<void()>> tasks_ HCQ_GUARDED_BY(mutex_);
    cond_var task_available_;
    cond_var idle_;
    std::size_t in_flight_ HCQ_GUARDED_BY(mutex_) = 0;
    bool stopping_ HCQ_GUARDED_BY(mutex_) = false;
    std::exception_ptr first_error_ HCQ_GUARDED_BY(mutex_);
};

/// Runs fn(i) for i in [0, n) through thread_pool::for_each_slot on a
/// transient pool with `num_threads` workers (0 = hardware concurrency; n
/// below 2 or num_threads == 1 degrade to a plain loop).  Blocks until all
/// iterations complete.  `fn` must be safe to call concurrently for
/// distinct i.  If any iteration throws, not-yet-started iterations are
/// abandoned and the first exception is rethrown in the calling thread once
/// the workers have drained.
void pool_for_each(std::size_t n, const std::function<void(std::size_t)>& fn,
                   std::size_t num_threads = 0);

}  // namespace hcq::util

#endif  // HCQ_UTIL_THREAD_POOL_H
