// The tree's one compute fan-out primitive: a fixed set of worker threads
// that for_each_slot spreads a loop over, one slot per task.  The link
// simulator's frame pass, the corpus builder, the sweeps and the benches
// (through pool_for_each) all run on it; the TCP server runs its own IO
// thread and workers (serve/tcp_server.h).  Guideline CP.*: tasks over raw
// threads, no shared mutable state beyond the internally synchronised queue.
//
// The queue state is annotated for Clang Thread Safety Analysis (see
// util/thread_annotations.h): every member mutex_ protects is
// HCQ_GUARDED_BY(mutex_), so an unlocked access is a compile error under
// -Wthread-safety, not a latent race.
#ifndef HCQ_UTIL_THREAD_POOL_H
#define HCQ_UTIL_THREAD_POOL_H

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hcq::util {

/// Fixed-size pool of worker threads; for_each_slot is its only way in.
/// Destruction joins the workers.
class thread_pool {
public:
    /// Creates `num_threads` workers (0 selects hardware concurrency).  If
    /// one fails to start, the ones that did are joined before the
    /// exception propagates.
    explicit thread_pool(std::size_t num_threads = 0);

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    ~thread_pool();

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Runs fn(slot, i) for every i in [0, n) and blocks until all complete.
    /// min(size(), n) tasks each own one slot in [0, size()) and pull
    /// indices off a shared counter, so state a caller keeps per slot is
    /// never touched by two threads at once (one call at a time per pool).
    /// If an iteration throws, not-yet-started iterations are abandoned and
    /// the call's first exception is rethrown here once its tasks have
    /// finished; the pool stays usable.
    void for_each_slot(std::size_t n,
                       const std::function<void(std::size_t slot, std::size_t i)>& fn)
        HCQ_EXCLUDES(mutex_);

private:
    void worker_loop() HCQ_EXCLUDES(mutex_);
    /// Lets the workers drain the queue, then joins them.
    void join_workers() HCQ_EXCLUDES(mutex_);

    mutex mutex_;
    std::queue<std::function<void()>> tasks_ HCQ_GUARDED_BY(mutex_);
    cond_var task_available_;
    bool stopping_ HCQ_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;  ///< filled by the constructor, joined by join_workers()
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
