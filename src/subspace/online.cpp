#include "subspace/online.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "measurement/centering.h"
#include "measurement/stream_checkpoint.h"
#include "subspace/qstat.h"

namespace netdiag {

namespace {

// Restore refuses a record holding a NaN or an infinity in detector state:
// the codec decodes any double, and a non-finite window value or model
// entry would poison every later SPE and refit, so the stream would go
// silently blind instead of failing at the door.
bool all_entries_finite(const matrix& values) {
    return all_finite(std::span<const double>(values.data(), values.size()));
}

// Shared (de)serialization of a fitted model: the PCA plus the normal
// rank fully determine a subspace_model, and with the routing terms and
// confidence they rebuild a volume_anomaly_diagnoser exactly. Served
// models carry no projections, so their slot is written as an empty 0x0
// matrix.
void write_model(std::ostream& out, const subspace_model& model) {
    const pca_model& pca = model.pca();
    ckpt::write_matrix(out, pca.principal_axes);
    ckpt::write_vec(out, pca.axis_variance);
    ckpt::write_matrix(out, matrix{});
    ckpt::write_vec(out, pca.column_means);
    ckpt::write_u64(out, pca.sample_count);
    ckpt::write_u64(out, model.normal_rank());
}

// Reads a model block and checks every shape against the routing
// matrix's link count m, so a record that disagrees with itself is
// malformed input (std::runtime_error) -- never an out-of-bounds read, a
// silently different threshold or a fit that fails later on a worker.
// The axes are m x k with max(rank, 1) <= k <= m (served fits keep
// min(rank + 1, m)), and the projections slot is empty, as write_model
// leaves it.
subspace_model read_model(std::istream& in, std::size_t m) {
    pca_model pca;
    pca.principal_axes = ckpt::read_matrix(in);
    pca.axis_variance = ckpt::read_vec(in);
    if (!ckpt::read_matrix(in).empty()) {
        throw std::runtime_error("streaming_diagnoser::restore: non-empty projections slot");
    }
    pca.column_means = ckpt::read_vec(in);
    pca.sample_count = ckpt::read_u64(in);
    const std::uint64_t rank = ckpt::read_u64(in);
    const std::size_t axes = pca.principal_axes.cols();
    if (pca.principal_axes.rows() != m || axes > m || axes < std::max<std::uint64_t>(rank, 1) ||
        pca.axis_variance.size() != m || pca.column_means.size() != m || rank > m) {
        throw std::runtime_error("streaming_diagnoser::restore: model shape does not match "
                                 "the routing matrix");
    }
    if (!all_entries_finite(pca.principal_axes) || !all_finite(pca.axis_variance) ||
        !all_finite(pca.column_means)) {
        throw std::runtime_error("streaming_diagnoser::restore: non-finite model value");
    }
    return {std::move(pca), rank};
}

// The routing block: A as per-flow runs (link count, each flow's run
// length, every run's links, then all values; see
// docs/CHECKPOINT_FORMAT.md).
void write_routing(std::ostream& out, const routing_terms& terms) {
    std::vector<std::uint64_t> lengths(terms.flows());
    std::vector<std::uint64_t> links;
    std::vector<double> values;
    links.reserve(terms.nonzeros());
    values.reserve(terms.nonzeros());
    for (std::size_t i = 0; i < terms.flows(); ++i) {
        const auto run = terms.run_links(i);
        lengths[i] = run.size();
        links.insert(links.end(), run.begin(), run.end());
        const auto run_values = terms.run_values(i);
        values.insert(values.end(), run_values.begin(), run_values.end());
    }
    ckpt::write_u64(out, terms.links());
    ckpt::write_u64_array(out, lengths);
    ckpt::write_u64_array(out, links);
    ckpt::write_vec(out, values);
}

// Reads the routing block. The codec checks each array's count against
// the remaining input before allocating it; routing_terms then refuses
// runs whose lengths disagree with the arrays, whose links do not ascend
// below m, or whose values are zero or non-finite.
std::shared_ptr<const routing_terms> read_routing(std::istream& in) {
    const std::uint64_t links = ckpt::read_u64(in);
    const std::vector<std::uint64_t> lengths = ckpt::read_u64_array(in);
    const std::vector<std::uint64_t> run_links = ckpt::read_u64_array(in);
    std::vector<double> values = ckpt::read_vec(in);
    try {
        return std::make_shared<const routing_terms>(links, lengths, run_links,
                                                     std::move(values));
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("streaming_diagnoser::restore: ") + e.what());
    }
}

// Ring slots beyond the window: a deferred fit reads its trigger's rows
// in place for max(swap_horizon, 1) more pushes.
std::size_t spare_slots(const streaming_config& cfg) {
    return std::max<std::size_t>(cfg.swap_horizon, 1);
}

// The public API's window invariants, checked before anything is fitted.
streaming_config validated(streaming_config cfg) {
    if (cfg.window < 2) throw std::invalid_argument("streaming_diagnoser: window too small");
    if (cfg.swap_horizon > cfg.window) {
        throw std::invalid_argument("streaming_diagnoser: swap horizon exceeds the window");
    }
    return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// streaming_diagnoser
// ---------------------------------------------------------------------------

streaming_diagnoser::streaming_diagnoser(const matrix& bootstrap_y, const matrix& a,
                                         streaming_config cfg)
    : cfg_(validated(std::move(cfg))),
      terms_(std::make_shared<const routing_terms>(a)),
      window_(bootstrap_y.cols(), cfg_.window, spare_slots(cfg_),
              std::min(bootstrap_y.rows(), cfg_.window)),
      diagnoser_(subspace_model::fit(bootstrap_y, cfg_.separation, cfg_.pool), terms_,
                 cfg_.confidence) {
    const std::size_t kept = std::min(bootstrap_y.rows(), cfg_.window);
    for (std::size_t r = bootstrap_y.rows() - kept; r < bootstrap_y.rows(); ++r) {
        window_.push(bootstrap_y.row(r));
    }
}

streaming_diagnoser::~streaming_diagnoser() {
    // Never let a worker outlive the members its future result references.
    // A refit that failed must not escalate to std::terminate here.
    try {
        drain();
    } catch (...) {
    }
}

diagnosis streaming_diagnoser::push(std::span<const double> y) {
    // Single-pusher contract: see pusher_cap_ in the header.
    pusher_cap_.assert_held();
    maybe_apply_swap();
    const diagnosis d = diagnoser_.diagnose(y);
    ++processed_;
    if (d.anomalous) ++alarms_;

    window_.push(y);

    if (cfg_.refit_interval > 0 && ++since_refit_ >= cfg_.refit_interval) {
        trigger_refit();
        since_refit_ = 0;
    }
    return d;
}

detection_result streaming_diagnoser::push_bin(std::span<const double> y) {
    const diagnosis d = push(y);
    return {d.anomalous, d.spe, d.threshold};
}

void streaming_diagnoser::maybe_apply_swap() {
    // Fixed bin boundary: the swap is a function of the stream alone.
    if (!refit_pending() || processed_ < swap_at_) return;
    apply_swap(take_pending());
}

void streaming_diagnoser::trigger_refit() {
    if (cfg_.mode == refit_mode::blocking) {
        // Legacy path: fit inline (pool-sharded when available) and swap
        // immediately -- the triggering push pays for the whole fit.
        if (cfg_.refit_observer) cfg_.refit_observer();
        apply_swap(volume_anomaly_diagnoser(
            subspace_model::fit(center_columns(window_.view()), cfg_.separation, cfg_.pool),
            terms_, cfg_.confidence));
        return;
    }
    // One refit computes at a time. A trigger landing while one is pending
    // queues a copy of this trigger's window -- freshest wins, so a burst
    // of triggers during one slow fit costs a single extra fit, never an
    // unbounded backlog -- and the queued fit launches when the pending
    // swap is applied.
    if (refit_pending()) {
        queued_window_ = window_.to_matrix();
        return;
    }
    launch_refit(window_.view());
}

void streaming_diagnoser::launch_refit(window_view rows) {
    swap_at_ = processed_ + spare_slots(cfg_);

    // The task owns everything it reads -- its window rows, shared with
    // the ring, and a reference to the immutable routing terms -- so the
    // diagnoser can be moved, its ring grown (or the diagnoser destroyed
    // after drain()) while the fit is in flight. The pushes before the
    // swap fill the ring's spare slots, never these rows. The fit centers
    // the rows on whichever thread runs it, and runs serially: a pool task
    // must not run a nested parallel_for over its own pool, and the
    // serial fit is bit-identical to the sharded one anyway.
    auto fit = [rows = std::move(rows), terms = terms_, confidence = cfg_.confidence,
                sep = cfg_.separation, observer = cfg_.refit_observer]() {
        if (observer) observer();
        return volume_anomaly_diagnoser(subspace_model::fit(center_columns(rows), sep, nullptr),
                                        terms, confidence);
    };
    if (cfg_.pool != nullptr) {
        inflight_ = cfg_.pool->submit_task(std::move(fit));
    } else {
        // No pool to offload to: fit now, but still honour the swap
        // boundary so results match the pooled runs bit-for-bit.
        ready_ = fit();
    }
}

volume_anomaly_diagnoser streaming_diagnoser::take_pending() {
    if (ready_.has_value()) {
        volume_anomaly_diagnoser out = std::move(*ready_);
        ready_.reset();
        return out;
    }
    // The boundary arrived before the fit finished: this is the one place
    // the push path may wait, and only for the remainder of the fit. A
    // failed fit throws here, from the swap bin's push.
    thread_pool::assert_wait_allowed();
    return inflight_.get();
}

void streaming_diagnoser::apply_swap(volume_anomaly_diagnoser&& next) {
    diagnoser_ = std::move(next);
    ++epoch_;
    if (queued_window_.has_value()) {
        // A trigger fired while this refit was pending: start the queued
        // fit now, against the freshest copy captured at that trigger.
        // The swap boundary is computed from the current processed_ count,
        // which is deterministic, so the cascade replays exactly.
        window_view rows(std::move(*queued_window_));
        queued_window_.reset();
        launch_refit(std::move(rows));
    }
}

void streaming_diagnoser::drain() {
    pusher_cap_.assert_held();
    if (inflight_.valid()) {
        thread_pool::assert_wait_allowed();
        ready_ = inflight_.get();
    }
}

void streaming_diagnoser::save(std::ostream& out) {
    pusher_cap_.assert_held();
    drain();
    ckpt::write_header(out, "streaming_diagnoser");
    ckpt::write_u64(out, cfg_.window);
    ckpt::write_u64(out, cfg_.refit_interval);
    ckpt::write_f64(out, cfg_.confidence);
    ckpt::write_f64(out, cfg_.separation.k_sigma);
    ckpt::write_u64(out, cfg_.separation.min_normal_axes);
    ckpt::write_flag(out, cfg_.separation.fixed_rank.has_value());
    if (cfg_.separation.fixed_rank) ckpt::write_u64(out, *cfg_.separation.fixed_rank);
    ckpt::write_u64(out, static_cast<std::uint64_t>(cfg_.mode));
    ckpt::write_u64(out, cfg_.swap_horizon);
    write_routing(out, *terms_);
    ckpt::write_u64(out, window_.rows());
    for (std::size_t r = 0; r < window_.rows(); ++r) ckpt::write_vec(out, window_.row(r));
    ckpt::write_u64(out, epoch_);
    ckpt::write_u64(out, processed_);
    ckpt::write_u64(out, alarms_);
    ckpt::write_u64(out, epoch_);  // the refits slot: every applied refit is an epoch
    ckpt::write_u64(out, since_refit_);
    write_model(out, diagnoser_.model());
    ckpt::write_flag(out, ready_.has_value());
    if (ready_.has_value()) {
        ckpt::write_u64(out, swap_at_);
        write_model(out, ready_->model());
    }
    ckpt::write_flag(out, queued_window_.has_value());
    if (queued_window_.has_value()) ckpt::write_matrix(out, *queued_window_);
}

struct streaming_diagnoser::restored_state {
    streaming_config cfg;
    std::shared_ptr<const routing_terms> terms;
    window_ring window;
    volume_anomaly_diagnoser diagnoser;
    std::uint64_t epoch = 0;
    std::size_t processed = 0;
    std::size_t alarms = 0;
    std::size_t since_refit = 0;
    std::optional<volume_anomaly_diagnoser> ready;
    std::optional<matrix> queued_window;
    std::size_t swap_at = 0;
};

streaming_diagnoser::streaming_diagnoser(restored_state&& state)
    : cfg_(std::move(state.cfg)),
      terms_(std::move(state.terms)),
      window_(std::move(state.window)),
      diagnoser_(std::move(state.diagnoser)),
      epoch_(state.epoch),
      processed_(state.processed),
      alarms_(state.alarms),
      since_refit_(state.since_refit),
      ready_(std::move(state.ready)),
      queued_window_(std::move(state.queued_window)),
      swap_at_(state.swap_at) {}

streaming_diagnoser streaming_diagnoser::restore(std::istream& in, thread_pool* pool) {
    ckpt::expect_header(in, "streaming_diagnoser");
    streaming_config cfg;
    cfg.window = ckpt::read_u64(in);
    cfg.refit_interval = ckpt::read_u64(in);
    cfg.confidence = ckpt::read_f64(in);
    cfg.separation.k_sigma = ckpt::read_f64(in);
    cfg.separation.min_normal_axes = ckpt::read_u64(in);
    if (ckpt::read_flag(in)) cfg.separation.fixed_rank = ckpt::read_u64(in);
    const std::uint64_t mode = ckpt::read_u64(in);
    if (mode > static_cast<std::uint64_t>(refit_mode::deferred)) {
        throw std::runtime_error("streaming_diagnoser::restore: malformed refit mode");
    }
    cfg.mode = static_cast<refit_mode>(mode);
    cfg.swap_horizon = ckpt::read_u64(in);
    cfg.pool = pool;
    // Re-check the constructor's invariants: restore must never build a
    // diagnoser the public API forbids, nor one whose first refit throws.
    if (cfg.window < 2) {
        throw std::runtime_error("streaming_diagnoser::restore: window too small");
    }
    if (cfg.swap_horizon > cfg.window) {
        throw std::runtime_error("streaming_diagnoser::restore: swap horizon exceeds the window");
    }
    try {
        cfg.separation.validate();
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("streaming_diagnoser::restore: ") + e.what());
    }

    // Every shape below is checked against A's link count m: restore
    // refuses a record whose parts disagree instead of serving from it.
    std::shared_ptr<const routing_terms> terms = read_routing(in);
    const std::size_t m = terms->links();
    const std::uint64_t window_size = ckpt::read_u64(in);
    if (window_size > cfg.window) {
        throw std::runtime_error("streaming_diagnoser::restore: window larger than configured");
    }
    if (window_size < 2) {
        throw std::runtime_error("streaming_diagnoser::restore: window too short to refit");
    }
    // The ring's first buffer holds only rows the codec has checked the
    // input carries, and each row decodes straight into its slot.
    window_ring window(m, cfg.window, spare_slots(cfg),
                       ckpt::checked_vec_count(in, window_size, m));
    for (std::uint64_t r = 0; r < window_size; ++r) {
        const std::span<double> row = window.append();
        ckpt::read_vec_into(in, row);
        if (!all_finite(row)) {
            throw std::runtime_error("streaming_diagnoser::restore: non-finite window value");
        }
    }

    const std::uint64_t epoch = ckpt::read_u64(in);
    const std::size_t processed = ckpt::read_u64(in);
    const std::size_t alarms = ckpt::read_u64(in);
    const std::uint64_t refits = ckpt::read_u64(in);
    const std::size_t since_refit = ckpt::read_u64(in);
    if (alarms > processed) {
        throw std::runtime_error("streaming_diagnoser::restore: more alarms than processed bins");
    }
    if (refits != epoch) {
        throw std::runtime_error("streaming_diagnoser::restore: refit count differs from the "
                                 "epoch");
    }
    subspace_model live_model = read_model(in, m);
    std::optional<subspace_model> ready_model;
    std::size_t swap_at = 0;
    if (ckpt::read_flag(in)) {
        swap_at = ckpt::read_u64(in);
        ready_model = read_model(in, m);
    }
    std::optional<matrix> queued_window;
    if (ckpt::read_flag(in)) {
        queued_window = ckpt::read_matrix(in);
        if (queued_window->cols() != m || queued_window->rows() < 2 ||
            queued_window->rows() > cfg.window) {
            throw std::runtime_error("streaming_diagnoser::restore: queued window shape mismatch");
        }
        if (!all_entries_finite(*queued_window)) {
            throw std::runtime_error("streaming_diagnoser::restore: non-finite queued window");
        }
    }

    // The diagnosers' constructors re-check what the public API forbids
    // (unidentifiable flows, a confidence outside (0, 1), ...). Coming
    // from a record, any of those is malformed input.
    std::optional<volume_anomaly_diagnoser> diagnoser;
    std::optional<volume_anomaly_diagnoser> ready;
    try {
        diagnoser.emplace(std::move(live_model), terms, cfg.confidence);
        if (ready_model) ready.emplace(std::move(*ready_model), terms, cfg.confidence);
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("streaming_diagnoser::restore: ") + e.what());
    }

    restored_state state{
        .cfg = std::move(cfg),
        .terms = std::move(terms),
        .window = std::move(window),
        .diagnoser = std::move(*diagnoser),
        .epoch = epoch,
        .processed = processed,
        .alarms = alarms,
        .since_refit = since_refit,
        .ready = std::move(ready),
        .queued_window = std::move(queued_window),
        .swap_at = swap_at,
    };
    return streaming_diagnoser(std::move(state));
}

// ---------------------------------------------------------------------------
// incremental_pca_tracker
// ---------------------------------------------------------------------------

incremental_pca_tracker::incremental_pca_tracker(const matrix& bootstrap_y, std::size_t max_rank)
    : max_rank_(max_rank) {
    if (bootstrap_y.rows() < 2) {
        throw std::invalid_argument("incremental_pca_tracker: need at least two bootstrap rows");
    }
    if (max_rank == 0) throw std::invalid_argument("incremental_pca_tracker: max_rank zero");

    centering_result centered = center_columns(bootstrap_y);
    mean_ = std::move(centered.column_means);
    count_ = bootstrap_y.rows();

    right_svd full = right_svd_of(centered.centered);
    const std::size_t keep = std::min(max_rank_, full.s.size());
    svd_.s.assign(full.s.begin(), full.s.begin() + static_cast<std::ptrdiff_t>(keep));
    svd_.v.assign(full.v.rows(), keep, 0.0);
    for (std::size_t j = 0; j < keep; ++j) svd_.v.set_column(j, full.v.column(j));
}

void incremental_pca_tracker::push(std::span<const double> y) {
    if (y.size() != mean_.size()) {
        throw std::invalid_argument("incremental_pca_tracker: measurement size mismatch");
    }
    // Center against the running mean, then fold the sample into it. The
    // mean drifts slowly relative to the update stream, so treating it as
    // quasi-static is the standard approximation for subspace tracking.
    const vec centered = subtract(y, mean_);
    svd_ = append_row(svd_, centered, max_rank_);
    ++count_;
    ++pushed_;
    const double w = 1.0 / static_cast<double>(count_);
    for (std::size_t i = 0; i < mean_.size(); ++i) mean_[i] += w * centered[i];
}

vec incremental_pca_tracker::axis_variance() const {
    vec out(svd_.s.size(), 0.0);
    if (count_ < 2) return out;
    const double denom = static_cast<double>(count_ - 1);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = svd_.s[i] * svd_.s[i] / denom;
    return out;
}

void incremental_pca_tracker::save(std::ostream& out) const {
    ckpt::write_header(out, "incremental_pca_tracker");
    ckpt::write_vec(out, svd_.s);
    ckpt::write_matrix(out, svd_.v);
    ckpt::write_vec(out, mean_);
    ckpt::write_u64(out, count_);
    ckpt::write_u64(out, max_rank_);
    ckpt::write_u64(out, pushed_);
}

incremental_pca_tracker incremental_pca_tracker::restore(std::istream& in) {
    ckpt::expect_header(in, "incremental_pca_tracker");
    incremental_pca_tracker out;
    out.svd_.s = ckpt::read_vec(in);
    out.svd_.v = ckpt::read_matrix(in);
    out.mean_ = ckpt::read_vec(in);
    out.count_ = ckpt::read_u64(in);
    out.max_rank_ = ckpt::read_u64(in);
    out.pushed_ = ckpt::read_u64(in);
    if (out.max_rank_ == 0 || out.svd_.s.size() != out.svd_.v.cols() ||
        out.svd_.v.rows() != out.mean_.size()) {
        throw std::runtime_error("incremental_pca_tracker::restore: inconsistent state");
    }
    if (!all_finite(out.svd_.s) || !all_entries_finite(out.svd_.v) || !all_finite(out.mean_)) {
        throw std::runtime_error("incremental_pca_tracker::restore: non-finite state");
    }
    return out;
}

// ---------------------------------------------------------------------------
// tracking_detector
// ---------------------------------------------------------------------------

tracking_detector::tracking_detector(const matrix& bootstrap_y, std::size_t max_rank,
                                     double confidence, const separation_config& sep,
                                     thread_pool* pool)
    // Fit the bootstrap axes exactly once; the separation rank feeds both
    // the tracker's rank floor and the normal-subspace rank.
    : tracking_detector(bootstrap_rank_tag{}, bootstrap_y, max_rank, confidence,
                        subspace_model::fit(bootstrap_y, sep, pool).normal_rank()) {}

tracking_detector::tracking_detector(bootstrap_rank_tag, const matrix& bootstrap_y,
                                     std::size_t max_rank, double confidence,
                                     std::size_t bootstrap_normal_rank)
    : tracker_(bootstrap_y, std::max(max_rank, bootstrap_normal_rank + 1)),
      confidence_(confidence) {
    if (!(confidence > 0.0 && confidence < 1.0)) {
        throw std::invalid_argument("tracking_detector: confidence outside (0, 1)");
    }
    dimension_ = bootstrap_y.cols();
    normal_rank_ = bootstrap_normal_rank;

    centering_result centered = center_columns(bootstrap_y);
    for (std::size_t r = 0; r < centered.centered.rows(); ++r) {
        total_variance_sum_ += norm_squared(centered.centered.row(r));
    }
    refresh_threshold();
}

void tracking_detector::refresh_threshold() {
    // Eigenvalue spectrum estimate: tracked values for the top axes, the
    // untracked remainder spread evenly over the rest of the dimensions.
    const vec tracked = tracker_.axis_variance();
    const double denom = static_cast<double>(std::max<std::size_t>(tracker_.sample_count(), 2) - 1);
    const double total = total_variance_sum_ / denom;
    double tracked_sum = 0.0;
    for (double v : tracked) tracked_sum += v;

    vec spectrum(dimension_, 0.0);
    for (std::size_t i = 0; i < tracked.size() && i < dimension_; ++i) spectrum[i] = tracked[i];
    const std::size_t rest = dimension_ > tracked.size() ? dimension_ - tracked.size() : 0;
    if (rest > 0) {
        const double remainder = std::max(0.0, total - tracked_sum);
        for (std::size_t i = tracked.size(); i < dimension_; ++i) {
            spectrum[i] = remainder / static_cast<double>(rest);
        }
    }
    threshold_ = q_statistic_threshold(spectrum, normal_rank_, confidence_);
}

detection_result tracking_detector::test(std::span<const double> y) const {
    if (y.size() != dimension_) {
        throw std::invalid_argument("tracking_detector: measurement size mismatch");
    }
    // SPE = ||centered||^2 - ||projection onto the normal axes||^2.
    const vec centered = subtract(y, tracker_.running_mean());
    double spe = norm_squared(centered);
    for (std::size_t k = 0; k < normal_rank_ && k < tracker_.rank(); ++k) {
        const double proj = dot(tracker_.axes().column(k), centered);
        spe -= proj * proj;
    }
    spe = std::max(spe, 0.0);
    return {spe > threshold_, spe, threshold_};
}

void tracking_detector::fold(std::span<const double> y) {
    const vec centered = subtract(y, tracker_.running_mean());
    total_variance_sum_ += norm_squared(centered);
    tracker_.push(y);
    refresh_threshold();
    ++epoch_;
}

detection_result tracking_detector::push(std::span<const double> y) {
    // Bin t is tested against the model of bins < t, then folded in.
    const detection_result result = test(y);
    ++processed_;
    if (result.anomalous) ++alarms_;
    fold(y);
    return result;
}

void tracking_detector::save(std::ostream& out) {
    ckpt::write_header(out, "tracking_detector");
    // The retired "deferred updates" slot: always 0, ignored on restore.
    ckpt::write_flag(out, false);
    ckpt::write_f64(out, confidence_);
    ckpt::write_u64(out, normal_rank_);
    ckpt::write_u64(out, dimension_);
    ckpt::write_f64(out, threshold_);
    ckpt::write_f64(out, total_variance_sum_);
    ckpt::write_u64(out, processed_);
    ckpt::write_u64(out, alarms_);
    ckpt::write_u64(out, epoch_);
    tracker_.save(out);
}

struct tracking_detector::restored_state {
    std::optional<incremental_pca_tracker> tracker;
    double confidence = 0.999;
    std::size_t normal_rank = 0;
    std::size_t dimension = 0;
    double threshold = 0.0;
    double total_variance_sum = 0.0;
    std::size_t processed = 0;
    std::size_t alarms = 0;
    std::uint64_t epoch = 0;
};

tracking_detector::tracking_detector(restored_state&& state)
    : tracker_(std::move(*state.tracker)),
      confidence_(state.confidence),
      normal_rank_(state.normal_rank),
      dimension_(state.dimension),
      threshold_(state.threshold),
      total_variance_sum_(state.total_variance_sum),
      processed_(state.processed),
      alarms_(state.alarms),
      epoch_(state.epoch) {}

tracking_detector tracking_detector::restore(std::istream& in) {
    ckpt::expect_header(in, "tracking_detector");
    restored_state state;
    (void)ckpt::read_flag(in);  // retired "deferred updates" flag (see the header)
    state.confidence = ckpt::read_f64(in);
    state.normal_rank = ckpt::read_u64(in);
    state.dimension = ckpt::read_u64(in);
    state.threshold = ckpt::read_f64(in);
    state.total_variance_sum = ckpt::read_f64(in);
    state.processed = ckpt::read_u64(in);
    state.alarms = ckpt::read_u64(in);
    state.epoch = ckpt::read_u64(in);
    incremental_pca_tracker tracker = incremental_pca_tracker::restore(in);
    // A normal rank above the dimension would make every later push throw
    // from q_statistic_threshold, after it had counted and folded the bin.
    if (tracker.dimension() != state.dimension || state.alarms > state.processed ||
        state.normal_rank > state.dimension ||
        !(state.confidence > 0.0 && state.confidence < 1.0)) {
        throw std::runtime_error("tracking_detector::restore: inconsistent state");
    }
    // +inf is a legal threshold: q_statistic_threshold's value for an
    // empty residual tail.
    if (std::isnan(state.threshold) ||
        state.threshold == -std::numeric_limits<double>::infinity() ||
        !std::isfinite(state.total_variance_sum)) {
        throw std::runtime_error("tracking_detector::restore: non-finite state");
    }
    state.tracker = std::move(tracker);
    return tracking_detector(std::move(state));
}

std::unique_ptr<stream_detector> load_stream_detector(std::istream& in, thread_pool* pool) {
    const std::istream::pos_type start = in.tellg();
    const std::string tag = ckpt::read_header(in);
    // restore() re-validates its own header, so rewind to the record start.
    in.clear();
    in.seekg(start);
    if (tag == "streaming_diagnoser") {
        return std::make_unique<streaming_diagnoser>(streaming_diagnoser::restore(in, pool));
    }
    if (tag == "tracking_detector") {
        return std::make_unique<tracking_detector>(tracking_detector::restore(in));
    }
    throw std::runtime_error("load_stream_detector: unknown detector tag " + tag);
}

}  // namespace netdiag
