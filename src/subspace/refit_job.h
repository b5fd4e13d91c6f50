// A deferred streaming refit as one job that any thread may help run.
//
// The fit of a window splits into three stages:
//  1. the means: center_columns' row-order mean pass over the window rows
//     (the refit observer runs first, here);
//  2. the covariance blocks: covariance_blocks' fixed row blocks, each of
//     which centers its own rows into the fit's centered matrix and
//     accumulates its Gram partial;
//  3. the finish: the partials reduced in block order, then the spectrum,
//     the 3-sigma walk and the volume_anomaly_diagnoser
//     (subspace_model::fit from the reduced covariance).
//
// A pool worker runs the job (run_share), and the pusher that reaches the
// swap bin or a drain with the fit unfinished runs it too (take). Stages
// are claimed under one mutex: the means by one thread, each block by one
// thread, and the finish by whichever thread completes the last block.
// Every stage does the serial fit's arithmetic and the partials reduce in
// block order, so the fitted model carries the same bits whoever ran
// which stage -- the same bits as subspace_model::fit(center_columns(rows),
// sep) on the window.
//
// Waiting: only take() waits, for a means pass another thread is running
// and for the finish. run_share never does: when the means was claimed
// before it got there (the pusher came first and runs every stage), or no
// block is left to claim, it returns.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "engine/sync.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/vector_ops.h"
#include "measurement/window_ring.h"
#include "subspace/diagnoser.h"
#include "subspace/identification.h"
#include "subspace/separation.h"

namespace netdiag {

class refit_job {
public:
    // A job over `rows` (at least two), fitted with `sep` and assembled
    // with the shared routing terms at `confidence`. `observer`, when set,
    // runs at the start of the means stage on whichever thread runs it.
    // Allocates the centered matrix and the zeroed partials here, on the
    // launching thread, so no stage allocates them: the fit's largest
    // buffers come from one thread's allocator however the stages are
    // split, which keeps a serving process's peak RSS where a
    // worker-only fit left it (docs/BENCHMARKS.md).
    refit_job(window_view rows, std::shared_ptr<const routing_terms> terms, double confidence,
              separation_config sep, std::function<void()> observer);

    refit_job(const refit_job&) = delete;
    refit_job& operator=(const refit_job&) = delete;

    // The pool's share: the means when no thread has claimed it yet, then
    // blocks until none is left to claim, and the finish when this thread
    // completes the last block. Returns without waiting; a failure of any
    // stage is kept for take().
    void run_share() NETDIAG_EXCLUDES(mu_);

    // The pusher's share, then the result: runs the means unless another
    // thread claimed it (waiting for that thread's pass to end), claims
    // blocks until none is left, and waits for the finish. Rethrows the
    // first failure of any stage (an observer's included). Call at most
    // once, from a thread that may wait (thread_pool's no-waiting rule).
    volume_anomaly_diagnoser take() NETDIAG_EXCLUDES(mu_);

private:
    void run_means() NETDIAG_EXCLUDES(mu_);
    void run_blocks() NETDIAG_EXCLUDES(mu_);
    void run_finish(bool failed) NETDIAG_EXCLUDES(mu_);
    // The next unclaimed block, or none once every block is claimed or a
    // stage has failed.
    std::optional<std::size_t> claim_block() NETDIAG_REQUIRES(mu_);

    // Fixed at construction, read by every stage.
    const covariance_blocks blocks_;
    const std::shared_ptr<const routing_terms> terms_;
    const double confidence_;
    const separation_config sep_;
    const std::function<void()> observer_;

    // Stage data. Not guarded: the claim protocol gives each piece one
    // writer at a time, and mu_ orders every hand-off. The means stage
    // writes means_ before it publishes means_done_; block b writes only
    // its rows of centered_ and partials_[b]; the finish reads them all
    // once every block is done, then releases them and rows_.
    window_view rows_;
    vec means_;
    matrix centered_;
    std::vector<matrix> partials_;

    sync::mutex mu_;
    sync::condition_variable changed_;  // means_done_ or finished_ set
    bool means_claimed_ NETDIAG_GUARDED_BY(mu_) = false;
    bool means_done_ NETDIAG_GUARDED_BY(mu_) = false;
    std::size_t blocks_claimed_ NETDIAG_GUARDED_BY(mu_) = 0;
    std::size_t blocks_done_ NETDIAG_GUARDED_BY(mu_) = 0;
    std::exception_ptr error_ NETDIAG_GUARDED_BY(mu_);
    bool finished_ NETDIAG_GUARDED_BY(mu_) = false;
    std::optional<volume_anomaly_diagnoser> result_ NETDIAG_GUARDED_BY(mu_);
};

}  // namespace netdiag
