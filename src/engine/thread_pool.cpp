#include "engine/thread_pool.h"

#include <stdexcept>

namespace netdiag {

namespace detail {

namespace {
// The pool whose worker_loop is running on this thread, if any. Lets
// parallel_for detect that it was called from inside a job of the same
// pool and degrade to a serial loop instead of violating the no-nesting
// contract (a nested dispatch would park this worker on jobs that may
// sit behind other parked workers in the queue).
thread_local const thread_pool* current_worker_pool = nullptr;
}  // namespace

bool on_worker_of(const thread_pool& pool) noexcept {
    return current_worker_pool == &pool;
}

}  // namespace detail

thread_pool::thread_pool(std::size_t threads) {
    if (threads == 0) threads = hardware_threads();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        sync::mutex_lock lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void thread_pool::assert_wait_allowed() {
    if (detail::current_worker_pool != nullptr) {
        throw std::logic_error(
            "thread_pool: a pool job is about to wait (pool jobs never wait; "
            "see engine/thread_pool.h)");
    }
}

void thread_pool::submit(std::function<void()> job) {
    {
        sync::mutex_lock lock(mu_);
        jobs_.push(std::move(job));
    }
    cv_.notify_one();
}

std::size_t thread_pool::hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void thread_pool::worker_loop() {
    detail::current_worker_pool = this;
    for (;;) {
        std::function<void()> job;
        {
            sync::mutex_lock lock(mu_);
            // Manual predicate loop: the analysis checks a wait lambda as a
            // separate function that does not hold mu_ (see engine/sync.h).
            while (!stop_ && jobs_.empty()) cv_.wait(lock);
            if (jobs_.empty()) return;  // stop_ set and queue drained
            job = std::move(jobs_.front());
            jobs_.pop();
        }
        job();
    }
}

}  // namespace netdiag
