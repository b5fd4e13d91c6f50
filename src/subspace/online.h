// Online deployment of the subspace method (Section 7.1), refactored as a
// pipelined streaming subsystem.
//
// The paper envisions the method as a first-level online monitor: the PCA
// model is recomputed only occasionally (it is stable week to week), while
// each arriving measurement is processed against the fixed projector.
// Two push-based detectors implement the common stream_detector interface
// (see subspace/stream_detector.h):
//  - streaming_diagnoser: keeps a sliding window and refits the full model
//    every refit_interval measurements;
//  - tracking_detector: SPE detection on top of an incremental_pca_tracker,
//    which maintains the principal axes with rank-1 SVD row updates (the
//    [12, 13, 24] family the paper cites), avoiding full recomputation
//    entirely.
//
// Pipelining: a refit is the maintenance path; testing the next bin is
// the detection path. With an engine thread_pool a deferred refit runs as
// a background task while detection keeps reading the current
// epoch-versioned model snapshot, and the snapshot swap is applied on the
// push thread at a deterministic bin boundary -- so the output sequence
// depends only on the input stream, never on thread timing. A tracker's
// rank-1 fold is cheap and runs serially on the push thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>

#include "engine/sync.h"
#include "linalg/matrix.h"
#include "linalg/svd_update.h"
#include "linalg/vector_ops.h"
#include "subspace/diagnoser.h"
#include "subspace/stream_detector.h"

namespace netdiag {

class thread_pool;

// Stacks a measurement window into a t x m matrix, one window entry per
// row. Throws std::invalid_argument on an empty window (a refit must never
// run before any measurement survives the window).
matrix window_to_matrix(const std::deque<vec>& window);

// How streaming_diagnoser applies periodic refits.
enum class refit_mode {
    // Legacy: the triggering push fits the new model inline (stalls that
    // push for the whole fit; the engine pool, when set, shards the fit).
    blocking,
    // Deterministic pipelining: the fit runs as a background task on the
    // pool (serially -- its result is bit-identical either way) and the
    // swap is applied exactly swap_horizon bins after the trigger,
    // whether or not the fit finished earlier. push only waits at that
    // boundary, and only when the fit is slower than swap_horizon bins of
    // stream. Without a pool the fit runs inline but the swap still
    // honours the boundary, so results match any pool size bit-for-bit.
    deferred,
};

struct streaming_config {
    std::size_t window = 1008;         // measurements kept for refits
    std::size_t refit_interval = 144;  // refit every day of 10-min bins; 0 = never
    double confidence = 0.999;
    separation_config separation;
    // Non-owning; when set, blocking-mode refits shard their fit across
    // the pool while deferred refits run on it as background tasks.
    // Must outlive the diagnoser.
    thread_pool* pool = nullptr;
    refit_mode mode = refit_mode::blocking;
    // deferred mode: bins between the refit trigger and the model swap.
    std::size_t swap_horizon = 8;
    // Observability/test seam: runs at the start of every refit fit, on
    // whichever thread performs it. Not serialized by checkpoints.
    std::function<void()> refit_observer;
};

class streaming_diagnoser final : public stream_detector {
public:
    // bootstrap_y supplies the initial model (epoch 0) and seeds the
    // window. The routing matrix a (links x flows) is read once, into the
    // stream's sparse routing terms, and not kept. Throws
    // std::invalid_argument when bootstrap has fewer than two rows or the
    // routing matrix does not match its width.
    streaming_diagnoser(const matrix& bootstrap_y, const matrix& a, streaming_config cfg = {});

    streaming_diagnoser(streaming_diagnoser&&) = default;
    streaming_diagnoser& operator=(streaming_diagnoser&&) = default;

    // Joins any in-flight background refit before the members it reads
    // are torn down.
    ~streaming_diagnoser() override;

    // Processes one measurement: applies a due model swap, diagnoses the
    // measurement against the current snapshot, appends it to the window,
    // and triggers a refit when the interval elapses.
    diagnosis push(std::span<const double> y);

    // stream_detector interface. push_bin is push() minus the
    // identification fields.
    detection_result push_bin(std::span<const double> y) override;
    std::size_t dimension() const noexcept override { return terms_->links(); }
    std::size_t processed() const noexcept override { return processed_; }
    std::size_t alarm_count() const noexcept override { return alarms_; }
    std::uint64_t model_epoch() const noexcept override { return epoch_; }
    void drain() override;
    void save(std::ostream& out) override;

    // Rebuilds a diagnoser saved by save(). The pool (and observer) are
    // runtime wiring, not state: pass whatever the restored stream should
    // use. The record carries A as per-flow runs, and the routing terms
    // are built straight from them. Throws std::runtime_error on malformed
    // input, including a record of another format version, malformed
    // runs, any shape that disagrees with the routing matrix's link count,
    // a model block whose projections slot is not empty, a queued window
    // longer than the configured window, more alarms than processed bins,
    // and any non-finite value in A, the window, the queued window or a
    // model's axes, variances or means (see docs/CHECKPOINT_FORMAT.md).
    static streaming_diagnoser restore(std::istream& in, thread_pool* pool = nullptr);

    // Applied refits (== model_epoch()).
    std::size_t refit_count() const noexcept { return refits_; }
    // True while a background fit is computing or a finished fit awaits
    // its deferred swap boundary. Push-thread only, like every accessor of
    // the deferred-refit state (the single-pusher contract below).
    bool refit_pending() const noexcept {
        pusher_cap_.assert_held();
        return inflight_.valid() || ready_.has_value();
    }
    // True when a trigger fired while a refit was pending and its window
    // snapshot is queued to fit as soon as the pending swap applies.
    bool refit_queued() const noexcept {
        pusher_cap_.assert_held();
        return queued_window_.has_value();
    }
    const volume_anomaly_diagnoser& current() const noexcept { return diagnoser_; }

private:
    struct restored_state;  // defined in online.cpp
    explicit streaming_diagnoser(restored_state&& state);

    void maybe_apply_swap() NETDIAG_REQUIRES(pusher_cap_);
    void trigger_refit() NETDIAG_REQUIRES(pusher_cap_);
    void launch_refit(matrix&& snapshot) NETDIAG_REQUIRES(pusher_cap_);
    void apply_swap(volume_anomaly_diagnoser&& next) NETDIAG_REQUIRES(pusher_cap_);
    volume_anomaly_diagnoser take_pending() NETDIAG_REQUIRES(pusher_cap_);

    // The single-pusher contract as a capability: push/push_bin/drain/
    // save must come from one thread at a time (the
    // stream_detector contract), so the window and the deferred-refit
    // slots below are confined to whoever plays that role. Entry points
    // assert it; the background fit task touches none of these fields
    // (it only fulfills the future inflight_ refers to).
    sync::role pusher_cap_;

    streaming_config cfg_;
    // A as sparse runs, built once (at construction or restore) and
    // shared, read-only, by the live diagnoser, the pending one and the
    // in-flight fit task; save() writes A from it.
    std::shared_ptr<const routing_terms> terms_;
    std::deque<vec> window_ NETDIAG_GUARDED_BY(pusher_cap_);
    volume_anomaly_diagnoser diagnoser_;
    std::uint64_t epoch_ = 0;
    std::size_t processed_ = 0;
    std::size_t alarms_ = 0;
    std::size_t refits_ = 0;
    std::size_t since_refit_ NETDIAG_GUARDED_BY(pusher_cap_) = 0;

    // Background refit state. At most one refit is *computing* at a time;
    // a trigger that fires while one is pending queues its window snapshot
    // (freshest wins -- the queue is one slot deep, which is also the
    // per-stream refit backpressure bound the serving front-end relies
    // on), and the queued fit launches the moment the pending swap is
    // applied -- deterministically, since pendingness is itself
    // deterministic.
    std::future<volume_anomaly_diagnoser> inflight_ NETDIAG_GUARDED_BY(pusher_cap_);
    std::optional<volume_anomaly_diagnoser> ready_ NETDIAG_GUARDED_BY(pusher_cap_);
    std::optional<matrix> queued_window_ NETDIAG_GUARDED_BY(pusher_cap_);
    // processed_ value at which to swap
    std::size_t swap_at_ NETDIAG_GUARDED_BY(pusher_cap_) = 0;
};

// Rank-1 principal-axis tracker. Maintains (approximately) the top
// max_rank principal axes and variances of the growing measurement matrix
// without ever recomputing a full decomposition. It never alarms, so it
// is not a stream_detector: tracking_detector serves detection on top of
// it.
class incremental_pca_tracker {
public:
    // Throws std::invalid_argument when bootstrap has fewer than two rows
    // or max_rank is zero.
    incremental_pca_tracker(const matrix& bootstrap_y, std::size_t max_rank);

    // Folds one measurement (synchronously) into the tracked axes.
    void push(std::span<const double> y);

    std::size_t dimension() const noexcept { return mean_.size(); }
    void save(std::ostream& out) const;
    // Throws std::runtime_error on inconsistent shapes or any non-finite
    // value in s, V or the running mean.
    static incremental_pca_tracker restore(std::istream& in);

    std::size_t sample_count() const noexcept { return count_; }
    std::size_t rank() const noexcept { return svd_.v.cols(); }
    const matrix& axes() const noexcept { return svd_.v; }
    const vec& running_mean() const noexcept { return mean_; }

    // Variance captured per tracked axis: s_i^2 / (count - 1).
    vec axis_variance() const;

private:
    incremental_pca_tracker() = default;

    right_svd svd_;
    vec mean_;
    std::size_t count_ = 0;
    std::size_t max_rank_ = 0;
    std::uint64_t pushed_ = 0;  // folds since construction (checkpointed)
};

// Fully incremental online detector built on rank-1 SVD updates: the
// model is *never* refit from scratch. The normal subspace is the first
// `normal_rank` tracked axes (separated once, on the bootstrap data, by
// the 3-sigma rule); SPE is computed against the tracked axes, and the
// Q-statistic threshold uses the tracked residual eigenvalues plus the
// untracked remainder variance spread uniformly over the remaining
// dimensions -- a documented approximation, since the tracker keeps only
// max_rank components. Every fold runs inline on the pusher's thread, so
// the detector has no background work: drain() is a no-op.
class tracking_detector final : public stream_detector {
public:
    // max_rank bounds the tracked spectrum; it is raised to the separation
    // rank + 1 when smaller, so a tracked residual tail always exists.
    // The bootstrap PCA is fit exactly once (shared by the rank raise and
    // the subspace separation); a non-null pool shards that fit's
    // covariance (bit-identical for any pool size). Throws
    // std::invalid_argument on a degenerate bootstrap or a confidence
    // outside (0, 1).
    tracking_detector(const matrix& bootstrap_y, std::size_t max_rank,
                      double confidence = 0.999, const separation_config& sep = {},
                      thread_pool* pool = nullptr);

    // Tests the measurement against the current model, then folds it into
    // the tracked decomposition (every measurement refines the model).
    detection_result push(std::span<const double> y);

    // Test only, without updating the model.
    detection_result test(std::span<const double> y) const;

    detection_result push_bin(std::span<const double> y) override { return push(y); }
    std::size_t dimension() const noexcept override { return dimension_; }
    std::size_t processed() const noexcept override { return processed_; }
    std::size_t alarm_count() const noexcept override { return alarms_; }
    std::uint64_t model_epoch() const noexcept override { return epoch_; }
    void drain() override {}
    void save(std::ostream& out) override;
    // The record's retired "deferred updates" flag is read and ignored
    // (folds give identical bits wherever they ran). Throws
    // std::runtime_error on inconsistent state (more alarms than
    // processed bins included), a NaN threshold or any other non-finite
    // double (the threshold may be +inf: the Q-statistic of an empty
    // residual tail).
    static tracking_detector restore(std::istream& in);

    std::size_t normal_rank() const noexcept { return normal_rank_; }
    double threshold() const noexcept { return threshold_; }
    const incremental_pca_tracker& tracker() const noexcept { return tracker_; }

private:
    struct restored_state;  // defined in online.cpp
    explicit tracking_detector(restored_state&& state);

    // Delegation target taking the bootstrap separation rank, so the
    // bootstrap PCA is fit once and reused for both the tracker's rank
    // floor and the normal-subspace rank. The tag keeps the overload from
    // colliding with the public constructor (a braced separation_config
    // would otherwise be ambiguous against the rank).
    struct bootstrap_rank_tag {};
    tracking_detector(bootstrap_rank_tag, const matrix& bootstrap_y, std::size_t max_rank,
                      double confidence, std::size_t bootstrap_normal_rank);

    void fold(std::span<const double> y);
    void refresh_threshold();

    incremental_pca_tracker tracker_;
    double confidence_ = 0.999;
    std::size_t normal_rank_ = 0;
    std::size_t dimension_ = 0;
    double threshold_ = 0.0;
    double total_variance_sum_ = 0.0;  // running sum of ||y - mean||^2
    std::size_t processed_ = 0;
    std::size_t alarms_ = 0;
    std::uint64_t epoch_ = 0;  // folds applied
};

// Reads a detector record -- either encoding, detected from the magic --
// from the stream's current position, dispatching on its type tag to
// streaming_diagnoser::restore() or tracking_detector::restore(); any
// other tag (a bare incremental_pca_tracker record included) is rejected.
// Container records that nest a detector record after their own fields
// (the stream_server's per-stream "server_stream" records) read it
// through here. The stream must be seekable across the record header.
// The pool is runtime wiring, not checkpoint state: a restored
// streaming_diagnoser runs its refits on the one given here (a
// tracking_detector folds on the caller's thread and takes none). Throws
// std::runtime_error on a format version other than 4, an unknown tag or
// malformed content.
std::unique_ptr<stream_detector> load_stream_detector(std::istream& in,
                                                      thread_pool* pool = nullptr);

}  // namespace netdiag
