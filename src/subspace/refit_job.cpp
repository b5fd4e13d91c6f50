#include "subspace/refit_job.h"

#include <utility>

#include "measurement/centering.h"
#include "subspace/model.h"

namespace netdiag {

refit_job::refit_job(window_view rows, std::shared_ptr<const routing_terms> terms,
                     double confidence, separation_config sep, std::function<void()> observer)
    : blocks_(rows.rows()),
      terms_(std::move(terms)),
      confidence_(confidence),
      sep_(std::move(sep)),
      observer_(std::move(observer)),
      rows_(std::move(rows)),
      centered_(rows_.rows(), rows_.width()),
      partials_(blocks_.count, matrix(rows_.width(), rows_.width(), 0.0)) {}

void refit_job::run_share() {
    {
        sync::mutex_lock lock(mu_);
        if (means_claimed_) return;  // the pusher came first: it runs every stage
        means_claimed_ = true;
    }
    run_means();
    run_blocks();
}

volume_anomaly_diagnoser refit_job::take() {
    bool means_here = false;
    {
        sync::mutex_lock lock(mu_);
        if (!means_claimed_) {
            means_claimed_ = true;
            means_here = true;
        }
        while (!means_here && !means_done_) changed_.wait(lock);
    }
    if (means_here) run_means();
    run_blocks();
    sync::mutex_lock lock(mu_);
    while (!finished_) changed_.wait(lock);
    if (error_) std::rethrow_exception(error_);
    volume_anomaly_diagnoser out = std::move(*result_);
    result_.reset();
    return out;
}

void refit_job::run_means() {
    std::exception_ptr error;
    try {
        if (observer_) observer_();
        means_ = column_means(rows_);
    } catch (...) {
        error = std::current_exception();
    }
    sync::mutex_lock lock(mu_);
    means_done_ = true;
    if (error) {
        // No block can be claimed now, so the failure finishes the job.
        error_ = std::move(error);
        finished_ = true;
    }
    changed_.notify_all();
}

std::optional<std::size_t> refit_job::claim_block() {
    if (!means_done_ || error_ || blocks_claimed_ == blocks_.count) return std::nullopt;
    return blocks_claimed_++;
}

void refit_job::run_blocks() {
    std::optional<std::size_t> block;
    {
        sync::mutex_lock lock(mu_);
        block = claim_block();
    }
    while (block) {
        const std::size_t b = *block;
        std::exception_ptr error;
        try {
            center_rows(rows_, means_, blocks_.begin(b), blocks_.end(b), centered_);
            accumulate_covariance_block(centered_, blocks_, b, partials_[b]);
        } catch (...) {
            error = std::current_exception();
        }
        bool last = false;
        bool failed = false;
        {
            sync::mutex_lock lock(mu_);
            if (error && !error_) error_ = std::move(error);
            ++blocks_done_;
            block = claim_block();
            // Nothing left to claim and every claimed block done: this
            // thread completed the last one.
            last = !block && blocks_done_ == blocks_claimed_;
            failed = error_ != nullptr;
        }
        if (last) run_finish(failed);
    }
}

void refit_job::run_finish(bool failed) {
    std::optional<volume_anomaly_diagnoser> out;
    std::exception_ptr error;
    if (!failed) {
        try {
            const matrix cov = reduce_covariance_blocks(partials_, blocks_);
            partials_ = {};  // before the spectrum allocates
            centering_result centered{std::move(centered_), std::move(means_)};
            out.emplace(subspace_model::fit(std::move(centered), cov, sep_), terms_, confidence_);
        } catch (...) {
            error = std::current_exception();
        }
    }
    // A pool task may hold the job long after its swap: keep no window
    // rows or fit buffers alive for it.
    rows_ = window_view{};
    means_ = vec{};
    centered_ = matrix{};
    partials_ = {};
    sync::mutex_lock lock(mu_);
    if (error) error_ = std::move(error);
    result_ = std::move(out);
    finished_ = true;
    changed_.notify_all();
}

}  // namespace netdiag
