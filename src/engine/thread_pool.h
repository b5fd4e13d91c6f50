// A fixed-size thread pool plus a blocking parallel_for over index ranges.
//
// This is deliberately the simplest engine that makes the batch sweeps
// scale: no work stealing, just a mutex-protected job queue drained by a
// fixed set of workers. Two entry points:
//  - submit():       fire-and-forget enqueue -- how the streaming
//                    subsystem hands a deferred refit job to the pool.
//  - parallel_for(): blocking index sweep. The range is split into one
//                    contiguous chunk per thread (O(threads) scheduling).
//
// parallel_for's callers are the sweeps that take a pool argument
// (spe_detector::test_all, volume_anomaly_diagnoser::diagnose_all, the ROC
// and injection sweeps) and three numeric kernels: the blocked covariance
// Gram, fit_pca's per-axis projections and spe_series rows. Each kernel
// engages a pool it is given once its work crosses a fixed size, and
// writes through fixed blocks, so its bits never depend on the pool. The
// other kernels (eigensolvers, SVD, rank-1 updates, one residual
// projection) run serially: no caller's shape ever crossed the gates of
// the sharded paths they used to have (docs/ARCHITECTURE.md, "Which
// kernels shard").
//
// The waiting contract is one rule: a pool job never waits. Every
// blocking wait (a parallel_for's completion, an inbox space wait, a
// drain-role or swap boundary) happens on a thread the pool does not own, so the queue
// can always drain. assert_wait_allowed() checks the rule at runtime.
// Work shared between a pool job and a caller follows it by helping
// before waiting: a deferred refit (subspace/refit_job.h) is stages that
// either side may claim. The pusher at a swap boundary runs every stage
// still unclaimed and waits only for a stage a worker holds; the worker
// claims what is left when its job starts and returns, never waiting,
// when nothing is -- so a fit whose job sits behind other jobs in the
// queue is finished by its pusher alone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "engine/sync.h"

namespace netdiag {

class thread_pool {
public:
    // threads == 0 selects hardware_threads(). The pool always has at
    // least one worker so submit() can never deadlock.
    explicit thread_pool(std::size_t threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    std::size_t size() const noexcept { return workers_.size(); }

    // Runtime check of the no-waiting rule: call at every blocking
    // boundary that can wait on pool work (a swap bin or drain with a
    // refit in flight, an inbox space wait). Throws std::logic_error when the calling thread is a worker
    // of any pool -- a job about to wait could deadlock once every worker
    // waits. No-op on every other thread.
    static void assert_wait_allowed();

    // Enqueues a job for execution on some worker. The job must never
    // wait (a wait from inside a job can deadlock once every worker is
    // parked on such a wait). A parallel_for over this pool from
    // inside a job is safe: it detects the nesting and degrades to a
    // serial loop (bit-identical results).
    void submit(std::function<void()> job) NETDIAG_EXCLUDES(mu_);

    // std::thread::hardware_concurrency with a floor of 1.
    static std::size_t hardware_threads() noexcept;

private:
    void worker_loop() NETDIAG_EXCLUDES(mu_);

    std::vector<std::thread> workers_;
    sync::mutex mu_;
    sync::condition_variable cv_;
    std::queue<std::function<void()>> jobs_ NETDIAG_GUARDED_BY(mu_);
    bool stop_ NETDIAG_GUARDED_BY(mu_) = false;
};

namespace detail {

// True when the calling thread is a worker of `pool` (i.e. we are inside
// one of its jobs). Defined in thread_pool.cpp next to the thread_local
// it reads.
bool on_worker_of(const thread_pool& pool) noexcept;

// Shared completion state for one parallel_for call.
struct parallel_for_sync {
    sync::mutex mu;
    sync::condition_variable done_cv;
    std::size_t pending NETDIAG_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error NETDIAG_GUARDED_BY(mu);

    void finish_one(std::exception_ptr error) NETDIAG_EXCLUDES(mu) {
        sync::mutex_lock lock(mu);
        if (error && !first_error) first_error = std::move(error);
        if (--pending == 0) done_cv.notify_one();
    }
};

}  // namespace detail

// Runs body(i) for every i in [begin, end), sharded across the pool in
// contiguous chunks (at most pool.size() of them, each >= 1 index). The
// first chunk runs on the calling thread, so a 1-thread pool degenerates
// to a plain serial loop with no handoff. Blocks until every index has
// run; rethrows the first exception any chunk raised. Empty ranges are a
// no-op. Results must be written to per-index slots by the body — the
// chunking itself imposes no ordering on side effects.
//
// Called from inside a job of the same pool, the dispatch degrades to a
// plain serial loop: results are bit-identical either way by the
// kernels' fixed-block contract, and the alternative — parking this
// worker on chunks that may be queued behind other waiting workers — is
// the wait the no-waiting rule forbids.
template <typename Body>
void parallel_for(thread_pool& pool, std::size_t begin, std::size_t end, Body&& body) {
    if (begin >= end) return;
    if (detail::on_worker_of(pool)) {
        for (std::size_t i = begin; i < end; ++i) body(i);
        return;
    }
    const std::size_t count = end - begin;
    const std::size_t chunks = std::min(pool.size(), count);
    const std::size_t base = count / chunks;
    const std::size_t extra = count % chunks;  // first `extra` chunks get one more

    if (chunks == 1) {
        for (std::size_t i = begin; i < end; ++i) body(i);
        return;
    }

    detail::parallel_for_sync completion;
    {
        sync::mutex_lock lock(completion.mu);
        completion.pending = chunks - 1;
    }

    std::size_t chunk_begin = begin + base + (extra > 0 ? 1 : 0);  // skip chunk 0
    for (std::size_t c = 1; c < chunks; ++c) {
        const std::size_t chunk_end = chunk_begin + base + (c < extra ? 1 : 0);
        const auto run_chunk = [&body, &completion, chunk_begin, chunk_end] {
            std::exception_ptr error;
            try {
                for (std::size_t i = chunk_begin; i < chunk_end; ++i) body(i);
            } catch (...) {
                error = std::current_exception();
            }
            completion.finish_one(std::move(error));
        };
        try {
            pool.submit(run_chunk);
        } catch (...) {
            // Enqueueing failed (e.g. bad_alloc): the chunk must still run
            // and be accounted for, or the wait below would reference
            // destroyed stack state. Degrade to inline execution.
            run_chunk();
        }
        chunk_begin = chunk_end;
    }

    // Chunk 0 on the calling thread.
    std::exception_ptr local_error;
    try {
        const std::size_t chunk0_end = begin + base + (extra > 0 ? 1 : 0);
        for (std::size_t i = begin; i < chunk0_end; ++i) body(i);
    } catch (...) {
        local_error = std::current_exception();
    }

    sync::mutex_lock lock(completion.mu);
    while (completion.pending != 0) completion.done_cv.wait(lock);
    const std::exception_ptr error =
        completion.first_error ? completion.first_error : local_error;
    if (error) std::rethrow_exception(error);
}

}  // namespace netdiag
