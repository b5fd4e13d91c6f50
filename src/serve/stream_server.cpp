#include "serve/stream_server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "engine/clock.h"
#include "linalg/vector_ops.h"
#include "measurement/stream_checkpoint.h"
#include "stats/histogram.h"

namespace netdiag {

namespace {

constexpr const char* k_manifest_tag = "stream_server_manifest";
// Format-v3 per-stream container: ingest inbox config + counters +
// residue wrapped around the nested detector record. See
// docs/CHECKPOINT_FORMAT.md.
constexpr const char* k_server_stream_tag = "server_stream";
// The record's retired backpressure-policy slot: writers store 0 (block);
// 1 and 2 (the retired reject and drop_oldest) still load, and serve as
// block. Anything larger was never written by a server.
constexpr std::uint64_t k_max_retired_policy = 2;

// Inbox bound of a stream opened with ingest_options::capacity == 0.
constexpr std::size_t k_default_inbox_capacity = 1024;
// Largest accepted inbox bound: 64x the default, small enough that the
// power-of-two rounding below cannot overflow and that a checkpoint's
// capacity field never admits more than 2^16 residue bins.
constexpr std::size_t k_max_inbox_capacity = std::size_t{1} << 16;

// The effective bound of a requested capacity: 0 selects the default,
// anything else rounds up to a power of two.
std::size_t inbox_capacity(std::size_t requested) {
    if (requested == 0) return k_default_inbox_capacity;
    if (requested > k_max_inbox_capacity) {
        throw std::invalid_argument("stream_server: inbox capacity above " +
                                    std::to_string(k_max_inbox_capacity));
    }
    std::size_t cap = 1;
    while (cap < requested) cap <<= 1;
    return cap;
}

std::string checkpoint_filename(stream_id id) {
    return "stream_" + std::to_string(id) + ".ckpt";
}

[[noreturn]] void throw_unknown_stream(stream_id id) {
    throw unknown_stream_error("stream_server: unknown stream id " + std::to_string(id));
}

}  // namespace

// One served stream: the detector plus its inbox, a bounded FIFO of
// pending bins. One mutex guards the FIFO and all of the stream's
// bookkeeping; one condition variable carries every wait on it (room,
// the drain role, a flush), and every change those waits read notifies
// all. The mutex is never held across push_bin, a sink call or
// detector->drain(); the record write holds it, so no producer enqueues
// into the residue it freezes. The draining flag is the single-drainer
// role. A drainer clears it in the critical section that finds the FIFO
// empty, so a bin enqueued while the role was held is never stranded.
struct stream_server::stream_entry {
    // A bin plus the tick of its enqueue staging, so its latency includes
    // any wait for room. Ticks are runtime-only: records restamp them.
    struct ingest_item {
        vec y;
        std::uint64_t enqueue_tick = 0;
    };

    std::unique_ptr<stream_detector> detector;
    ingest_options opts;  // capacity holds the effective (power-of-two) bound

    sync::mutex mu;
    sync::condition_variable cv;
    std::deque<ingest_item> pending NETDIAG_GUARDED_BY(mu);
    // Sequence of the next accepted bin; the FIFO's front holds
    // next_sequence - pending.size().
    std::uint64_t next_sequence NETDIAG_GUARDED_BY(mu) = 0;
    bool draining NETDIAG_GUARDED_BY(mu) = false;
    bool closing NETDIAG_GUARDED_BY(mu) = false;
    // Maintenance ops parked in wait_for_drain_role. Opportunistic drains
    // yield to them, or sustained ingest could starve them of the role.
    std::size_t role_waiters NETDIAG_GUARDED_BY(mu) = 0;
    std::uint64_t accepted NETDIAG_GUARDED_BY(mu) = 0;
    std::uint64_t applied NETDIAG_GUARDED_BY(mu) = 0;
    std::uint64_t dropped NETDIAG_GUARDED_BY(mu) = 0;
    std::uint64_t rejected NETDIAG_GUARDED_BY(mu) = 0;
    // The detector's counters, copied by the drainer after every bin (the
    // detector itself is the drainer's alone), for stats().
    std::size_t processed NETDIAG_GUARDED_BY(mu) = 0;
    std::size_t alarms NETDIAG_GUARDED_BY(mu) = 0;
    std::uint64_t epoch NETDIAG_GUARDED_BY(mu) = 0;
    // Ingest-to-applied latency: log2(ns) in quarter-log2 buckets (~19%
    // slack on a percentile), exact max kept aside.
    histogram latency_hist NETDIAG_GUARDED_BY(mu);
    std::uint64_t latency_count NETDIAG_GUARDED_BY(mu) = 0;
    std::uint64_t latency_max_ns NETDIAG_GUARDED_BY(mu) = 0;

    // The drain role as a capability the analysis can track: whoever set
    // the draining flag holds it, and only holders apply bins or call the
    // sink. It is a zero-size no-op; the flag changes hands at runtime.
    sync::role drain_cap;
    // Applied-bin callback, invoked only by the drainer; hoisted out of
    // opts so the analysis can pin it to the role capability.
    ingest_sink sink NETDIAG_GUARDED_BY(drain_cap);

    void publish_detector_counters() NETDIAG_REQUIRES(mu, drain_cap) {
        processed = detector->processed();
        alarms = detector->alarm_count();
        epoch = detector->model_epoch();
    }

    void record_latency(std::uint64_t enqueue_tick, std::uint64_t now) NETDIAG_REQUIRES(mu) {
        const std::uint64_t ns = now > enqueue_tick ? now - enqueue_tick : 0;
        latency_hist.record(std::log2(static_cast<double>(std::max<std::uint64_t>(ns, 1))));
        ++latency_count;
        latency_max_ns = std::max(latency_max_ns, ns);
    }

    void release_drain_role() NETDIAG_REQUIRES(mu) NETDIAG_RELEASE(drain_cap) {
        draining = false;
        drain_cap.release();
        cv.notify_all();
    }

    // RAII release of a maintenance op's drain role (close_stream and
    // detach_stream keep theirs). The adopt shape: the constructor
    // REQUIRES the capability wait_for_drain_role acquired.
    class NETDIAG_SCOPED_CAPABILITY drain_role {
    public:
        explicit drain_role(stream_entry& e) NETDIAG_REQUIRES(e.drain_cap) : e_(e) {}
        ~drain_role() NETDIAG_RELEASE() {
            sync::mutex_lock lock(e_.mu);
            e_.release_drain_role();
        }
        drain_role(const drain_role&) = delete;
        drain_role& operator=(const drain_role&) = delete;

    private:
        stream_entry& e_;
    };

    static bool try_claim_drain_role(stream_entry& e) NETDIAG_TRY_ACQUIRE(true, e.drain_cap)
        NETDIAG_EXCLUDES(e.mu);
    static bool wait_for_drain_role(stream_entry& e, bool bail_on_closing)
        NETDIAG_TRY_ACQUIRE(true, e.drain_cap) NETDIAG_EXCLUDES(e.mu);
    static void acquire_drain_role(stream_entry& e) NETDIAG_ACQUIRE(e.drain_cap)
        NETDIAG_EXCLUDES(e.mu);
    static std::uint64_t pop(stream_entry& e, ingest_item& bin) NETDIAG_REQUIRES(e.mu);
    static void apply(stream_entry& e, const ingest_item& bin, std::uint64_t sequence)
        NETDIAG_REQUIRES(e.drain_cap) NETDIAG_EXCLUDES(e.mu);
    static void apply_pending(stream_entry& e) NETDIAG_REQUIRES(e.drain_cap)
        NETDIAG_EXCLUDES(e.mu);
    static void drain_and_release(stream_entry& e) NETDIAG_RELEASE(e.drain_cap)
        NETDIAG_EXCLUDES(e.mu);
    static void drain_entry(stream_entry& e) NETDIAG_EXCLUDES(e.mu, e.drain_cap);
    static ingest_result enqueue(stream_entry& e, std::span<const std::span<const double>> ys)
        NETDIAG_EXCLUDES(e.mu, e.drain_cap);
    static void flush(stream_entry& e) NETDIAG_EXCLUDES(e.mu, e.drain_cap);
    static void close(stream_entry& e) NETDIAG_EXCLUDES(e.mu);
    static void write_record(stream_entry& e, std::ostream& out, ckpt::encoding enc)
        NETDIAG_REQUIRES(e.drain_cap) NETDIAG_EXCLUDES(e.mu);
};

std::shared_ptr<stream_server::stream_entry> stream_server::make_entry(
    std::unique_ptr<stream_detector> detector, ingest_options&& opts) {
    auto entry = std::make_shared<stream_server::stream_entry>();
    entry->opts = std::move(opts);
    entry->opts.capacity = inbox_capacity(entry->opts.capacity);
    entry->detector = std::move(detector);
    // Unpublished: this thread holds the drain role by construction, and
    // the lock is for the static analysis only.
    entry->drain_cap.assert_held();
    entry->sink = std::move(entry->opts.sink);
    {
        sync::mutex_lock lock(entry->mu);
        entry->publish_detector_counters();
        // log2(ns) domain, quarter-log2 buckets: covers 1ns..2^40ns (~18min)
        // with 160 fixed bins.
        entry->latency_hist = histogram{0.0, 40.0, std::vector<std::size_t>(160, 0)};
    }
    return entry;
}

stream_server::stream_server(stream_server_config cfg) {
    if (cfg.threads > 0) pool_ = std::make_unique<thread_pool>(cfg.threads);
}

stream_server::~stream_server() {
    // Detectors join their own background work on destruction; destroy
    // them before the pool they run on. Pending inbox bins are dropped
    // (documented): snapshot_all or close_stream preserves them.
    sync::exclusive_lock lock(mu_);
    streams_.clear();
}

std::unique_ptr<stream_detector> stream_server::build_detector(stream_open_config&& cfg) {
    switch (cfg.kind) {
        case stream_kind::diagnoser: {
            // The server's pool replaces whatever the caller wired in: all
            // maintenance shares one engine.
            cfg.streaming.pool = pool_.get();
            return std::make_unique<streaming_diagnoser>(cfg.bootstrap_y, cfg.a,
                                                         std::move(cfg.streaming));
        }
        case stream_kind::tracking:
            return std::make_unique<tracking_detector>(cfg.bootstrap_y, cfg.max_rank,
                                                       cfg.confidence, cfg.separation,
                                                       pool_.get());
    }
    throw std::invalid_argument("stream_server: unknown stream kind");
}

stream_id stream_server::open_stream(stream_open_config cfg) {
    // Build outside the lock: bootstrap fits can be expensive and touch
    // only the new detector (plus the pool, which is thread-safe).
    ingest_options ingest = std::move(cfg.ingest);
    auto entry = make_entry(build_detector(std::move(cfg)), std::move(ingest));
    sync::exclusive_lock lock(mu_);
    const stream_id id = next_id_++;
    streams_.emplace(id, std::move(entry));
    return id;
}

std::shared_ptr<stream_server::stream_entry> stream_server::find_entry(stream_id id) const {
    sync::shared_lock lock(mu_);
    const auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : it->second;
}

std::shared_ptr<stream_server::stream_entry> stream_server::entry_or_throw(
    stream_id id) const {
    std::shared_ptr<stream_entry> entry = find_entry(id);
    if (entry == nullptr) throw_unknown_stream(id);
    return entry;
}

// Sets the closing flag and wakes every waiter: producers waiting for
// room return stream_closed, and no enqueue or opportunistic drain can
// follow.
void stream_server::stream_entry::close(stream_entry& e) {
    sync::mutex_lock lock(e.mu);
    e.closing = true;
    e.cv.notify_all();
}

void stream_server::close_stream(stream_id id) {
    // Serialize with the other maintenance ops; unpublish under the map
    // lock, everything else outside it: joining a multi-second refit (or
    // draining a deep inbox) while holding mu_ exclusively would stall
    // every other stream -- and deadlock against a drainer whose sink
    // reads the server (see maint_mu_).
    sync::mutex_lock maintenance(maint_mu_);
    std::shared_ptr<stream_entry> victim;
    {
        sync::exclusive_lock lock(mu_);
        const auto it = streams_.find(id);
        if (it == streams_.end()) throw_unknown_stream(id);
        victim = std::move(it->second);
        streams_.erase(it);
    }
    // New ingests bounce off the map lookup and the closing flag refuses
    // the rest. Take the drain role for good -- no late auto-drain may
    // touch the detector -- and apply every pending bin in sequence order.
    stream_entry::close(*victim);
    stream_entry::acquire_drain_role(*victim);
    stream_entry::apply_pending(*victim);
    // Join the stream's background maintenance before teardown so a refit
    // failure surfaces here instead of being swallowed by the destructor.
    victim->detector->drain();
    // The role is kept: the draining flag stays set. Balance the acquire
    // for the analysis only -- this compiles to nothing.
    victim->drain_cap.release();
}

// One attempt at the role for an opportunistic drain: wins only when a
// bin is pending, nobody drains, no maintenance op waits for the role and
// the stream is not closing (close and detach own the residue).
bool stream_server::stream_entry::try_claim_drain_role(stream_entry& e) {
    sync::mutex_lock lock(e.mu);
    if (e.pending.empty() || e.draining || e.closing || e.role_waiters > 0) return false;
    e.draining = true;
    e.drain_cap.acquire();  // no-op: the flag above changed hands
    return true;
}

// Blocks until the calling thread holds the stream's drain role.
// Returns false without acquiring when bail_on_closing is set and
// close_stream owns the stream (close takes the role and never releases
// it, so waiting would hang forever).
bool stream_server::stream_entry::wait_for_drain_role(stream_entry& e, bool bail_on_closing) {
    sync::mutex_lock lock(e.mu);
    ++e.role_waiters;
    while (e.draining && !(bail_on_closing && e.closing)) e.cv.wait(lock);
    --e.role_waiters;
    if (e.draining) return false;
    e.draining = true;
    e.drain_cap.acquire();  // no-op: the flag above changed hands
    return true;
}

// wait_for_drain_role in the shape the analysis accepts for an
// unconditional acquire (with bail_on_closing off it can only return
// true, so the loop body never runs twice).
void stream_server::stream_entry::acquire_drain_role(stream_entry& e) {
    while (!wait_for_drain_role(e, /*bail_on_closing=*/false)) {
    }
}

// Removes the FIFO's front bin and returns its sequence.
std::uint64_t stream_server::stream_entry::pop(stream_entry& e, ingest_item& bin) {
    const std::uint64_t sequence = e.next_sequence - e.pending.size();
    bin = std::move(e.pending.front());
    e.pending.pop_front();
    e.cv.notify_all();  // room for a waiting producer
    return sequence;
}

// Pushes one popped bin through the detector, counts it and hands the
// result to the sink. Caller must hold the drain role.
void stream_server::stream_entry::apply(stream_entry& e, const ingest_item& bin,
                                        std::uint64_t sequence) {
    detection_result result;
    try {
        result = e.detector->push_bin(bin.y);
    } catch (...) {
        // A consumed bin that never applied (e.g. a failed refit) counts
        // as dropped, so accepted == applied + dropped + pending holds.
        sync::mutex_lock lock(e.mu);
        ++e.dropped;
        e.publish_detector_counters();
        throw;
    }
    const std::uint64_t now = monotone_now_ns();
    {
        sync::mutex_lock lock(e.mu);
        ++e.applied;
        e.publish_detector_counters();
        e.record_latency(bin.enqueue_tick, now);
    }
    if (e.sink) e.sink(sequence, result);
}

// close_stream's apply: every pending bin, keeping the role.
void stream_server::stream_entry::apply_pending(stream_entry& e) {
    for (;;) {
        ingest_item bin;
        std::uint64_t sequence = 0;
        {
            sync::mutex_lock lock(e.mu);
            if (e.pending.empty()) return;
            sequence = pop(e, bin);
        }
        apply(e, bin, sequence);
    }
}

// The opportunistic drain: applies pending bins and releases the role in
// the critical section that finds the FIFO empty -- or a maintenance op
// waiting for the role; a later ingest or flush applies what is left.
void stream_server::stream_entry::drain_and_release(stream_entry& e) {
    for (;;) {
        ingest_item bin;
        std::uint64_t sequence = 0;
        {
            sync::mutex_lock lock(e.mu);
            if (e.pending.empty() || e.role_waiters > 0) {
                e.release_drain_role();
                return;
            }
            sequence = pop(e, bin);
        }
        try {
            apply(e, bin, sequence);
        } catch (...) {
            sync::mutex_lock lock(e.mu);
            e.release_drain_role();
            throw;
        }
    }
}

// Claims the drain role and applies pending bins; returns at once when
// another drainer is active, a maintenance op waits or the stream is
// closing.
void stream_server::stream_entry::drain_entry(stream_entry& e) {
    if (try_claim_drain_role(e)) drain_and_release(e);
}

ingest_result stream_server::ingest(stream_id id, std::span<const double> y) {
    const std::span<const double> one[] = {y};
    return ingest_batch(id, one);
}

ingest_result stream_server::ingest_batch(stream_id id,
                                          std::span<const std::span<const double>> ys) {
    const std::shared_ptr<stream_entry> e = find_entry(id);
    if (e == nullptr) return {ingest_error::unknown_stream, 0, 0};
    return stream_entry::enqueue(*e, ys);
}

ingest_result stream_server::stream_entry::enqueue(stream_entry& e,
                                                   std::span<const std::span<const double>> ys) {
    // Validate and stage outside the lock (a stream's width never
    // changes). A NaN or an infinity would poison every later model, so
    // one bad bin refuses the whole batch; a run longer than the inbox
    // bound can never fit. Closing takes precedence over each refusal.
    const std::size_t dim = e.detector->dimension();
    ingest_error refused = ingest_error::ok;
    if (std::any_of(ys.begin(), ys.end(), [dim](auto y) { return y.size() != dim; })) {
        refused = ingest_error::width_mismatch;
    } else if (!std::all_of(ys.begin(), ys.end(), [](auto y) { return all_finite(y); })) {
        refused = ingest_error::non_finite;
    } else if (ys.size() > e.opts.capacity) {
        refused = ingest_error::inbox_full;
    }
    // One stamp for the whole batch, taken at staging, so the reported
    // latency charges any wait for room to the bins that waited.
    std::vector<ingest_item> items;
    if (refused == ingest_error::ok) {
        items.reserve(ys.size());
        const std::uint64_t enqueue_tick = monotone_now_ns();
        for (const std::span<const double>& y : ys) {
            items.push_back({vec(y.begin(), y.end()), enqueue_tick});
        }
    }

    // A full inbox never evicts a pending bin or refuses a batch that
    // fits: the producer waits for room. An auto-draining producer first
    // drains itself whenever the role is free (or every producer could
    // wait with no drainer anywhere); accumulate-mode streams wait for
    // flush_stream. Drains run outside the lock: a sink may call back in.
    ingest_result out;
    bool claimed = false;
    for (;;) {
        {
            sync::mutex_lock lock(e.mu);
            if (e.closing) return {ingest_error::stream_closed, 0, 0};
            if (refused != ingest_error::ok) {
                e.rejected += ys.size();
                return {refused, 0, 0};
            }
            if (ys.empty()) return {ingest_error::ok, e.next_sequence, 0};
            bool fits = false;
            for (;;) {
                fits = e.pending.size() + items.size() <= e.opts.capacity;
                if (fits || (e.opts.auto_drain && !e.draining && e.role_waiters == 0)) break;
                thread_pool::assert_wait_allowed();
                e.cv.wait(lock);
                if (e.closing) return {ingest_error::stream_closed, 0, 0};
            }
            if (fits) {
                out = {ingest_error::ok, e.next_sequence, items.size()};
                e.next_sequence += items.size();
                e.accepted += items.size();
                std::move(items.begin(), items.end(), std::back_inserter(e.pending));
                claimed = e.opts.auto_drain && !e.draining && e.role_waiters == 0;
                if (claimed) e.draining = true;
                break;
            }
        }
        drain_entry(e);
    }
    if (claimed) {
        e.drain_cap.acquire();  // no-op: the flag above changed hands
        drain_and_release(e);
    }
    return out;
}

void stream_server::flush_stream(stream_id id) {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    stream_entry::flush(*e);
}

void stream_server::stream_entry::flush(stream_entry& e) {
    for (;;) {
        drain_entry(e);
        sync::mutex_lock lock(e.mu);
        for (;;) {
            // A concurrent close applies the residue itself.
            if (e.closing) return;
            // Done only when no drainer is mid-apply either (one may have
            // popped the last bin without applying it yet).
            if (!e.draining && e.pending.empty()) return;
            if (!e.draining && e.role_waiters == 0) break;  // ours to drain
            e.cv.wait(lock);
        }
    }
}

void stream_server::flush_all() {
    // Snapshot the id list once; a flush_stream in the loop may run
    // arbitrarily long, and streams opened meanwhile are not this call's
    // responsibility (same copy-then-work shape as drain_all).
    for (const stream_id id : stream_ids()) {
        try {
            flush_stream(id);
        } catch (const unknown_stream_error&) {
            // Closed between the listing and the flush: close applied the
            // residue itself, which is exactly what a flush wants.
        }
    }
}

ingest_stats stream_server::ingest_statistics(stream_id id) const {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    ingest_stats st;
    sync::mutex_lock lock(e->mu);
    st.accepted = e->accepted;
    st.applied = e->applied;
    st.dropped = e->dropped;
    st.rejected = e->rejected;
    st.pending = e->accepted - e->applied - e->dropped;
    st.next_sequence = e->next_sequence;
    st.latency_count = e->latency_count;
    if (e->latency_count > 0) {
        // Histogram buckets hold log2(ns); the percentile is the bucket's
        // upper edge, so the exponentiated value is an upper bound on the
        // true sample quantile. The max is exact.
        st.latency_p50_ms = std::exp2(e->latency_hist.percentile(0.50)) / 1e6;
        st.latency_p99_ms = std::exp2(e->latency_hist.percentile(0.99)) / 1e6;
        st.latency_max_ms = static_cast<double>(e->latency_max_ns) / 1e6;
    }
    return st;
}

void stream_server::set_ingest_sink(stream_id id, ingest_sink sink) {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    // The sink is the drain role's alone: waiting out an active drainer
    // for the role is all the swap needs.
    if (!stream_entry::wait_for_drain_role(*e, /*bail_on_closing=*/true)) {
        throw std::invalid_argument("stream_server: stream " + std::to_string(id) +
                                    " is closing");
    }
    stream_entry::drain_role role(*e);
    e->sink = std::move(sink);
}

stream_server::stream_stats stream_server::stats(stream_id id) const {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    sync::mutex_lock lock(e->mu);
    return {e->detector->dimension(), e->processed, e->alarms, e->epoch};
}

const stream_detector& stream_server::stream(stream_id id) const {
    return *entry_or_throw(id)->detector;
}

std::size_t stream_server::stream_count() const {
    sync::shared_lock lock(mu_);
    return streams_.size();
}

std::vector<stream_id> stream_server::stream_ids() const {
    sync::shared_lock lock(mu_);
    std::vector<stream_id> ids;
    ids.reserve(streams_.size());
    for (const auto& [id, entry] : streams_) ids.push_back(id);
    return ids;
}

void stream_server::drain_all() {
    // Same shape as snapshot_all: never hold mu_ while waiting for a
    // drainer to retire (its sink may read the server), and take each
    // stream's drain role before joining its detector -- a caller-thread
    // auto-drain may be inside push_bin, touching the same maintenance
    // state detector->drain() consumes. The role is all the join needs:
    // nothing else touches a detector.
    sync::mutex_lock maintenance(maint_mu_);
    std::vector<std::shared_ptr<stream_entry>> entries;
    {
        sync::shared_lock lock(mu_);
        entries.reserve(streams_.size());
        for (auto& [id, entry] : streams_) entries.push_back(entry);
    }
    for (const std::shared_ptr<stream_entry>& entry : entries) {
        if (!stream_entry::wait_for_drain_role(*entry, /*bail_on_closing=*/true)) continue;
        stream_entry::drain_role role(*entry);
        entry->detector->drain();
    }
}

void stream_server::snapshot_all(const std::string& directory) {
    // Serialize with close/restore/other snapshots, then work from a
    // copy of the stream map so mu_ is never held while waiting for a
    // stream to quiesce (an in-flight drain's sink may read the server;
    // see maint_mu_). Closes cannot run concurrently (they take
    // maint_mu_ too), so every copied entry stays valid; streams opened
    // after the copy are simply not part of this snapshot.
    sync::mutex_lock maintenance(maint_mu_);
    std::vector<std::pair<stream_id, std::shared_ptr<stream_entry>>> entries;
    stream_id next_id = 0;
    {
        sync::shared_lock lock(mu_);
        entries.assign(streams_.begin(), streams_.end());
        next_id = next_id_;
    }

    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec) {
        throw std::runtime_error("stream_server::snapshot_all: cannot create " + directory +
                                 ": " + ec.message());
    }
    for (auto& [id, entry] : entries) {
        // Quiesce this stream: the drain role waits out an active drainer
        // (holding neither mu_ nor the entry's mutex -- the drainer's sink
        // may read the server), then the record is written under the
        // entry's mutex, which stops new enqueues. The inbox is
        // snapshotted as residue, NOT drained, so the restored server
        // resumes from exactly this state.
        stream_entry::acquire_drain_role(*entry);
        stream_entry::drain_role role(*entry);
        entry->detector->drain();

        const std::string path =
            (std::filesystem::path(directory) / checkpoint_filename(id)).string();
        std::ofstream out(path, std::ios::binary);
        if (!out) {
            throw std::runtime_error("stream_server::snapshot_all: cannot open " + path);
        }
        stream_entry::write_record(*entry, out, ckpt::encoding::native);
    }

    const std::string manifest_path =
        (std::filesystem::path(directory) / "manifest.ckpt").string();
    std::ofstream out(manifest_path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("stream_server::snapshot_all: cannot open " + manifest_path);
    }
    ckpt::write_header(out, k_manifest_tag);
    ckpt::write_u64(out, next_id);
    ckpt::write_u64(out, entries.size());
    for (const auto& [id, entry] : entries) ckpt::write_u64(out, id);
    out.flush();
    if (!out) {
        throw std::runtime_error("stream_server::snapshot_all: write failed for " +
                                 manifest_path);
    }
}

void stream_server::restore_all(const std::string& directory) {
    sync::mutex_lock maintenance(maint_mu_);
    sync::exclusive_lock lock(mu_);
    if (!streams_.empty()) {
        throw std::logic_error("stream_server::restore_all: server already has open streams");
    }

    const std::string manifest_path =
        (std::filesystem::path(directory) / "manifest.ckpt").string();
    std::ifstream manifest(manifest_path, std::ios::binary);
    if (!manifest) {
        throw std::runtime_error("stream_server::restore_all: cannot open " + manifest_path);
    }
    ckpt::expect_header(manifest, k_manifest_tag);
    const std::uint64_t saved_next_id = ckpt::read_u64(manifest);
    const std::uint64_t count = ckpt::read_u64(manifest);
    if (count > (1u << 20)) {
        throw std::runtime_error("stream_server::restore_all: malformed manifest stream count");
    }

    std::map<stream_id, std::shared_ptr<stream_entry>> restored;
    stream_id max_id = 0;
    for (std::uint64_t s = 0; s < count; ++s) {
        const stream_id id = ckpt::read_u64(manifest);
        const std::string path =
            (std::filesystem::path(directory) / checkpoint_filename(id)).string();
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            throw std::runtime_error("stream_server::restore_all: cannot open " + path);
        }
        auto entry = read_stream_record(in, "stream_server::restore_all(" + path + ")");

        const auto [it, inserted] = restored.emplace(id, std::move(entry));
        if (!inserted) {
            throw std::runtime_error("stream_server::restore_all: duplicate stream id " +
                                     std::to_string(id));
        }
        max_id = std::max(max_id, id);
    }
    streams_ = std::move(restored);
    next_id_ = std::max<stream_id>(saved_next_id, max_id + 1);
}

// Writes the format-v3 "server_stream" container record for a quiesced
// stream. The caller holds maint_mu_ and the drain role, which exclude
// every other toucher of the detector; the entry's mutex, held for the
// whole write, stops producers from enqueueing into the residue. No
// server-wide lock is held, so a slow sink stalls this stream only.
void stream_server::stream_entry::write_record(stream_entry& e, std::ostream& out,
                                               ckpt::encoding enc) {
    sync::mutex_lock lock(e.mu);
    ckpt::set_encoding(out, enc);
    ckpt::write_header(out, k_server_stream_tag);
    ckpt::write_u64(out, e.opts.capacity);
    ckpt::write_u64(out, 0);  // retired policy slot (block)
    ckpt::write_flag(out, e.opts.auto_drain);
    ckpt::write_u64(out, e.accepted);
    ckpt::write_u64(out, e.applied);
    ckpt::write_u64(out, e.dropped);
    ckpt::write_u64(out, e.rejected);
    ckpt::write_u64(out, e.next_sequence);
    // Enqueue ticks are runtime-only: residue serializes the payload and
    // the restore restamps, so a checkpointed bin's latency is charged
    // from the restore, not across the downtime (or the migration).
    ckpt::write_u64(out, e.pending.size());
    for (const ingest_item& bin : e.pending) ckpt::write_vec(out, bin.y);
    e.detector->save(out);
    out.flush();
    if (!out) {
        throw std::runtime_error("stream_server: stream record write failed");
    }
}

// Reads one per-stream record (either encoding; "server_stream"
// container or a format-v2 raw detector record) and builds a fresh,
// unpublished entry with counters restored and residue re-enqueued.
std::shared_ptr<stream_server::stream_entry> stream_server::read_stream_record(
    std::istream& in, const std::string& context) {
    ingest_options opts;
    std::uint64_t accepted = 0, applied = 0, dropped = 0, rejected = 0;
    std::uint64_t next_sequence = 0;
    std::vector<vec> residue;
    std::unique_ptr<stream_detector> detector;

    const std::istream::pos_type start = in.tellg();
    const ckpt::header_info hdr = ckpt::read_header_info(in);
    if (hdr.type_tag == k_server_stream_tag) {
        opts.capacity = ckpt::read_u64(in);
        if (opts.capacity == 0 || opts.capacity > k_max_inbox_capacity) {
            throw std::runtime_error(context + ": malformed inbox capacity");
        }
        if (ckpt::read_u64(in) > k_max_retired_policy) {
            throw std::runtime_error(context + ": malformed ingest policy");
        }
        opts.auto_drain = ckpt::read_flag(in);
        accepted = ckpt::read_u64(in);
        applied = ckpt::read_u64(in);
        dropped = ckpt::read_u64(in);
        rejected = ckpt::read_u64(in);
        next_sequence = ckpt::read_u64(in);
        const std::uint64_t residue_count = ckpt::read_u64(in);
        if (residue_count > opts.capacity) {
            throw std::runtime_error(context + ": malformed inbox residue");
        }
        // A server writes a record only while the stream is quiesced, so
        // every record it writes balances: each accepted bin was applied,
        // dropped or travels in the residue, and the inbox has handed out
        // exactly one sequence per accepted bin. (Written without sums so
        // no field can wrap the comparison.)
        if (applied > accepted || dropped > accepted - applied ||
            residue_count != accepted - applied - dropped || next_sequence != accepted) {
            throw std::runtime_error(context + ": inconsistent ingest counters");
        }
        residue.reserve(residue_count);
        for (std::uint64_t r = 0; r < residue_count; ++r) {
            residue.push_back(ckpt::read_vec(in));
            // ingest never enqueues a non-finite bin; a record that holds
            // one was not written by a server.
            if (!all_finite(residue.back())) {
                throw std::runtime_error(context + ": non-finite inbox residue");
            }
        }
        detector = load_stream_detector(in, pool_.get());
    } else {
        // A format-v2 (pre-inbox) record: a raw detector record. Restore
        // with an empty default inbox.
        in.clear();
        in.seekg(start);
        detector = load_stream_detector(in, pool_.get());
    }

    auto entry = make_entry(std::move(detector), std::move(opts));
    const std::uint64_t restamp_tick = monotone_now_ns();
    {
        // Unpublished: the lock is for the static analysis only.
        sync::mutex_lock lock(entry->mu);
        for (vec& bin : residue) {
            if (bin.size() != entry->detector->dimension()) {
                throw std::runtime_error(context + ": inbox residue width mismatch");
            }
            entry->pending.push_back({std::move(bin), restamp_tick});
        }
        // The residue keeps its original sequences: the front of the FIFO
        // holds next_sequence - residue size.
        entry->next_sequence = next_sequence;
        entry->accepted = accepted;
        entry->applied = applied;
        entry->dropped = dropped;
        entry->rejected = rejected;
    }
    return entry;
}

void stream_server::snapshot_stream(stream_id id, std::ostream& out, ckpt::encoding enc) {
    // Same quiesce discipline as snapshot_all, for one stream: maint_mu_
    // serializes against close/detach/restore (so the entry cannot die
    // under us), the drain role waits out an active drainer while holding
    // neither mu_ nor the entry's mutex, then the entry's mutex stops new
    // enqueues for the duration of the record write.
    sync::mutex_lock maintenance(maint_mu_);
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    stream_entry::acquire_drain_role(*e);
    stream_entry::drain_role role(*e);
    e->detector->drain();
    stream_entry::write_record(*e, out, enc);
}

void stream_server::detach_stream(stream_id id, std::ostream& out, ckpt::encoding enc) {
    // close_stream's teardown sequence, except the pending inbox bins are
    // snapshotted as residue instead of applied: they belong to the
    // record's restored inbox, not to the dying local detector.
    sync::mutex_lock maintenance(maint_mu_);
    std::shared_ptr<stream_entry> victim;
    {
        sync::exclusive_lock lock(mu_);
        const auto it = streams_.find(id);
        if (it == streams_.end()) throw_unknown_stream(id);
        victim = std::move(it->second);
        streams_.erase(it);
    }
    // Stop the concurrent edge: new ingests bounce off the map lookup,
    // and the closing flag refuses the rest (producers waiting for room
    // included) with stream_closed. Nothing is silently dropped: every
    // accepted bin is either already applied or in the record's residue.
    stream_entry::close(*victim);
    stream_entry::acquire_drain_role(*victim);
    victim->detector->drain();
    stream_entry::write_record(*victim, out, enc);
    // Like close_stream: the role is kept (the draining flag stays set) so
    // no late auto-drain touches the dying detector; balance the acquire
    // for the analysis only.
    victim->drain_cap.release();
}

stream_id stream_server::restore_stream(std::istream& in) {
    sync::mutex_lock maintenance(maint_mu_);
    std::shared_ptr<stream_entry> entry =
        read_stream_record(in, "stream_server::restore_stream");
    sync::exclusive_lock lock(mu_);
    const stream_id id = next_id_++;
    streams_.emplace(id, std::move(entry));
    return id;
}

stream_id stream_server::restore_stream(std::string_view record) {
    ckpt::view_streambuf bytes(record);
    std::istream in(&bytes);
    sync::mutex_lock maintenance(maint_mu_);
    std::shared_ptr<stream_entry> entry = read_stream_record(in, "stream_server::restore_stream");
    // One record, exactly: bytes after it mean the payload is not the
    // record it claims to be, so nothing is published.
    if (in.peek() != std::istream::traits_type::eof()) {
        const auto consumed = static_cast<std::size_t>(in.tellg());
        throw std::runtime_error("stream_server::restore_stream: " +
                                 std::to_string(record.size() - consumed) +
                                 " trailing bytes after the record");
    }
    sync::exclusive_lock lock(mu_);
    const stream_id id = next_id_++;
    streams_.emplace(id, std::move(entry));
    return id;
}

}  // namespace netdiag
