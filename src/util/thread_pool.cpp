#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <utility>

namespace hcq::util {

thread_pool::thread_pool(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    try {
        for (std::size_t i = 0; i < num_threads; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    } catch (...) {
        // Partial spawn (e.g. EAGAIN at the OS thread limit): join the
        // workers that did start instead of terminating via ~thread.
        join_workers();
        throw;
    }
}

thread_pool::~thread_pool() { join_workers(); }

void thread_pool::join_workers() {
    {
        const mutex_lock lock(mutex_);
        stopping_ = true;
    }
    task_available_.notify_all();
    for (auto& w : workers_) w.join();
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            mutex_lock lock(mutex_);
            // Predicate in the calling scope (not a lambda) so the analysis
            // checks the guarded reads against the held lock — see util/sync.h.
            while (!stopping_ && tasks_.empty()) task_available_.wait(lock);
            if (tasks_.empty()) return;  // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();  // for_each_slot's tasks catch their own exceptions
    }
}

void thread_pool::for_each_slot(std::size_t n,
                                const std::function<void(std::size_t, std::size_t)>& fn) {
    // One task per slot pulling indices off a shared counter: O(1) queue
    // traffic regardless of n, unlike one queued task per index.  The tasks
    // report to this call alone: the latch counts them out, and the first
    // exception stays here instead of in the pool.
    const std::size_t slots = std::min(size(), n);
    if (slots == 0) return;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;  // written only by the task that sets `failed`
    std::latch done(static_cast<std::ptrdiff_t>(slots));
    {
        const mutex_lock lock(mutex_);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            tasks_.emplace([&, n, slot] {
                try {
                    while (!failed.load(std::memory_order_relaxed)) {
                        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                        if (i >= n) break;
                        fn(slot, i);
                    }
                } catch (...) {
                    if (!failed.exchange(true)) first_error = std::current_exception();
                }
                done.count_down();  // releases first_error to the wait below
            });
        }
    }
    task_available_.notify_all();
    done.wait();
    if (first_error) std::rethrow_exception(first_error);
}

void pool_for_each(std::size_t n, const std::function<void(std::size_t)>& fn,
                   std::size_t num_threads) {
    if (n == 0) return;
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    num_threads = std::min(num_threads, n);
    if (num_threads <= 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    thread_pool pool(num_threads);
    pool.for_each_slot(n, [&fn](std::size_t /*slot*/, std::size_t i) { fn(i); });
}

}  // namespace hcq::util
