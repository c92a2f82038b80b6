#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace hcq::util {

thread_pool::thread_pool(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    num_workers_ = num_threads;
    workers_.reserve(num_threads);
    try {
        for (std::size_t i = 0; i < num_threads; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    } catch (...) {
        // Partial spawn (e.g. EAGAIN at the OS thread limit): shut down the
        // workers that did start instead of terminating via ~thread.
        stop();
        throw;
    }
}

thread_pool::~thread_pool() { stop(); }

void thread_pool::stop() {
    std::vector<std::thread> workers;
    {
        const mutex_lock lock(mutex_);
        stopping_ = true;
        workers.swap(workers_);  // claim the threads so overlapping stops can't double-join
    }
    task_available_.notify_all();
    for (auto& w : workers) {
        if (w.joinable()) w.join();
    }
}

void thread_pool::submit(std::function<void()> task) {
    {
        const mutex_lock lock(mutex_);
        if (stopping_) {
            throw std::runtime_error("thread_pool::submit: pool is stopping; task rejected");
        }
        tasks_.push(std::move(task));
    }
    task_available_.notify_one();
}

void thread_pool::wait_idle() {
    std::exception_ptr err;
    {
        mutex_lock lock(mutex_);
        // Predicate in the calling scope (not a lambda) so the analysis
        // checks the guarded reads against the held lock — see util/sync.h.
        while (!tasks_.empty() || in_flight_ != 0) idle_.wait(lock);
        err = std::exchange(first_error_, nullptr);
    }
    if (err) std::rethrow_exception(err);
}

thread_pool::queue_snapshot thread_pool::snapshot() const {
    const mutex_lock lock(mutex_);
    return {tasks_.size(), in_flight_};
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            mutex_lock lock(mutex_);
            while (!stopping_ && tasks_.empty()) task_available_.wait(lock);
            if (tasks_.empty()) return;  // stopping_ and drained
            task = std::move(tasks_.front());
            tasks_.pop();
            ++in_flight_;
        }
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        {
            const mutex_lock lock(mutex_);
            --in_flight_;
            if (error && !first_error_) first_error_ = error;
        }
        idle_.notify_all();
    }
}

void thread_pool::for_each_slot(std::size_t n,
                                const std::function<void(std::size_t, std::size_t)>& fn) {
    // One task per slot pulling indices off a shared counter: O(1) queue
    // traffic regardless of n, unlike one queued task per index.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    const std::size_t slots = std::min(num_workers_, n);
    for (std::size_t slot = 0; slot < slots; ++slot) {
        submit([&fn, &next, &failed, n, slot] {
            for (;;) {
                if (failed.load(std::memory_order_relaxed)) return;
                const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n) return;
                try {
                    fn(slot, i);
                } catch (...) {
                    failed.store(true, std::memory_order_relaxed);
                    throw;  // first exception lands in the pool and resurfaces below
                }
            }
        });
    }
    wait_idle();
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
