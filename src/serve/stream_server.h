// Sharded multi-stream serving front-end with concurrent-by-construction
// ingest. One stream_server owns N independent stream_detector instances
// -- any mix of streaming_diagnoser / tracking_detector, one per PoP /
// customer / vantage point -- each with its own epoch space, multiplexed
// over one shared engine thread_pool, and each with its own bounded
// ingest inbox so any number of collector threads can feed one stream
// without caller-side ordering.
//
// Parity guarantee: the server adds routing, never arithmetic. A stream
// served here produces bit-identical output -- verdicts, SPE, thresholds,
// epochs -- to the same detector run alone with the same refit mode, for
// every pool size including none. The reference order is the *sequence
// order the inbox assigned at enqueue* (returned from ingest(), reported
// to the sink): replaying those bins through a standalone single-pusher
// detector in sequence order reproduces every served output bit-for-bit.
// This holds by construction: per-stream state is only ever touched by
// one drainer at a time, and the epoch-versioning discipline makes each
// detector's output a function of its own input sequence alone.
//
// One way in: ingest()/ingest_batch(). Any number of producer threads
// enqueue bins into the stream's inbox, a bounded FIFO behind one mutex
// and one condition variable per stream that also guard its counters,
// drain role and latency histogram. Each accepted bin gets a monotone
// sequence at enqueue, and a single drainer at a time applies bins in
// sequence order through the detector, delivering each result to the
// stream's optional ingest sink; the mutex is never held across a
// detector push or a sink call. A bin holding a NaN or an infinity is
// refused before it reaches the inbox (ingest_error::non_finite), so no
// served detector ever sees one.
// Every drain runs on a thread that called in, never on the pool: with
// auto_drain (the default) an ingesting caller claims the per-stream
// drain role and applies pending bins (the rest return immediately after
// enqueue); with auto_drain off, bins accumulate until flush_stream(),
// which drains on its caller's thread. Which caller drains is invisible
// to the sequence-order replay parity above.
//
// Fairness / backpressure policy:
//  - When an inbox is full the producer waits for the drainer on the
//    stream's condition variable (an auto-draining producer first drains
//    the stream itself): a full inbox never evicts a pending bin or
//    refuses one that fits, and a waiting producer never blocks a
//    snapshot.
//  - Streams never share a drainer: each has its own drain role, so a
//    stream stalled at a refit boundary delays only its own bins.
//  - Per-stream pending-refit work is bounded: a streaming_diagnoser has
//    at most one refit computing plus one queued freshest-window snapshot
//    (see subspace/online.h), so a stream that triggers refits faster
//    than they fit degrades to refitting at fit speed instead of piling
//    tasks onto the shared pool.
//  - The pool runs exactly two kinds of work: deferred refit fits and the
//    covariance blocks of a fit a caller runs (a bootstrap or
//    blocking-mode fit). Neither ever waits, so a drainer waiting at a
//    deferred swap boundary always gets a worker to finish its fit.
//
// Threading contract: open/close/snapshot/restore serialize against each
// other (a maintenance mutex). ingest/ingest_batch/flush_stream may run
// concurrently from any number of threads against any streams (that is
// their point). An ingest sink may safely call the server's read
// accessors (stats/stream/ingest_statistics): drains hold only the
// per-stream drain role while applying, never a server-wide lock, and
// maintenance operations never hold the server-wide lock while waiting
// for a drain to finish or while writing a checkpoint record, so a slow
// record sink stalls only the stream being written. Do not call ingest
// or flush_stream from a job running on the server's own pool (the drain
// may wait on a refit future, and pool jobs never wait -- the pool's
// assert_wait_allowed() enforces this at runtime), and quiesce all API
// calls before destroying the server.
//
// Checkpointing: the unit of persistence is one stream. snapshot_stream
// and detach_stream write a "server_stream" record that carries the
// ingest inbox's configuration and *residue* (pending, not-yet-applied
// bins) next to the detector state, so a stream snapshotted with a
// non-empty inbox restores (restore_stream) to exactly that state and the
// replay -- residue first, in sequence order, then new bins -- stays
// bit-exact. The wire protocol's snapshot and restore payloads and live
// migration carry the same record. A caller that wants every stream on
// disk loops snapshot_stream over stream_ids() and owns the files. See
// docs/CHECKPOINT_FORMAT.md and measurement/stream_checkpoint.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sync.h"
#include "engine/thread_pool.h"
#include "linalg/matrix.h"
#include "measurement/stream_checkpoint.h"
#include "subspace/online.h"
#include "subspace/stream_detector.h"

namespace netdiag {

// Identifies one open stream for the lifetime of the server. Never reused
// after close; a restored stream gets a fresh id.
using stream_id = std::uint64_t;

// What the operations that take an id and throw rather than return a
// code (close, flush, snapshot, detach, stats, ...) throw when no open
// stream has that id. A std::invalid_argument, so existing catch sites
// keep working; the wire frontend maps exactly this type to
// unknown_stream, and every other exception to a server error.
class unknown_stream_error : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

enum class stream_kind {
    diagnoser,  // streaming_diagnoser: sliding window + periodic refits
    tracking,   // tracking_detector: SPE detection over rank-1 updates
};

// Receives every inbox-applied bin's result, on the drainer's thread, in
// sequence order. Runtime wiring like the pool: not serialized by
// checkpoints (re-attach with set_ingest_sink after restore_stream).
using ingest_sink = std::function<void(std::uint64_t sequence, const detection_result&)>;

// Per-stream ingest-inbox configuration.
struct ingest_options {
    // Inbox bound; 0 selects the default of 1024 bins. Rounded up to a
    // power of two; open_stream throws std::invalid_argument above 65,536.
    std::size_t capacity = 0;
    // true: ingesting callers opportunistically drain (one at a time, on
    // their own thread). false: bins accumulate until flush_stream() or
    // close_stream().
    bool auto_drain = true;
    ingest_sink sink;
};

enum class ingest_error {
    ok = 0,
    unknown_stream,  // no such id
    width_mismatch,  // a bin's width differs from the stream's dimension
    inbox_full,      // batch longer than the inbox bound: it can never fit (nothing enqueued)
    stream_closed,   // close_stream ran while this ingest was in flight
    non_finite,      // a bin holds a NaN or an infinity (nothing enqueued)
};

struct ingest_result {
    ingest_error error = ingest_error::ok;
    std::uint64_t sequence = 0;  // first sequence of the accepted run
    std::uint64_t accepted = 0;  // bins enqueued (0 on error)
    bool ok() const noexcept { return error == ingest_error::ok; }
};

// Per-stream ingest counters. Conservation invariant:
// accepted == applied + dropped + pending -- it holds even when an apply
// throws (the consumed bin is counted as dropped), and it holds in every
// snapshot ingest_statistics() returns, not just between drains: the
// counters are read together under the stream's lock and pending is
// *derived* as accepted - applied - dropped. Consequence of the
// derivation: a bin a drainer has popped but not yet pushed through the
// detector still counts as pending (it is not yet applied), so pending
// can exceed the inbox's instantaneous occupancy by the one in-flight
// bin.
struct ingest_stats {
    std::uint64_t accepted = 0;   // bins enqueued successfully
    std::uint64_t applied = 0;    // bins drained through the detector
    std::uint64_t dropped = 0;    // bins consumed by an apply that threw
    std::uint64_t rejected = 0;   // bins refused (full / width / non-finite)
    std::uint64_t pending = 0;    // accepted - applied - dropped
    std::uint64_t next_sequence = 0;
    // Ingest-to-applied latency: monotone-clock interval from a bin's
    // enqueue into the inbox to the completion of its detector apply,
    // over this stream's applied bins. Percentiles come from a fixed
    // log2-domain histogram (stats/histogram.h) -- each reported value
    // is the upper edge of its quarter-log2 bucket, an upper bound with
    // <= ~19% relative slack -- while max is exact. All zero until the
    // first bin is applied.
    std::uint64_t latency_count = 0;  // bins the histogram has seen
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_max_ms = 0.0;
};

// Everything needed to build one stream's detector. The server overrides
// any pool wiring with its own shared pool.
struct stream_open_config {
    stream_kind kind = stream_kind::diagnoser;
    matrix bootstrap_y;  // initial model fit + window/tracker seed

    // diagnoser only.
    matrix a;  // routing matrix (links x OD flows)
    streaming_config streaming;

    // tracking only; a tracking stream also reads streaming.confidence and
    // streaming.separation.
    std::size_t max_rank = 10;

    // Ingest inbox wiring; defaults give an auto-drained inbox of the
    // default capacity.
    ingest_options ingest;
};

struct stream_server_config {
    // Worker threads in the shared pool. 0 = no pool at all: every drain,
    // refit and fold runs on the calling thread (the deterministic
    // reference the parity tests compare against).
    std::size_t threads = 0;
};

class stream_server {
public:
    explicit stream_server(stream_server_config cfg = {});

    // Joins every stream's in-flight maintenance and destroys the
    // streams (never throws past the teardown). Pending inbox bins are
    // discarded: snapshot_stream or close_stream first if they matter.
    ~stream_server();

    stream_server(const stream_server&) = delete;
    stream_server& operator=(const stream_server&) = delete;

    // Builds a detector from cfg wired to the server's pool and registers
    // it under a fresh id. Throws whatever the detector constructor
    // throws on a degenerate bootstrap.
    [[nodiscard]] stream_id open_stream(stream_open_config cfg);

    // Unpublishes the stream, wakes any producer blocked on its inbox
    // (their ingest returns stream_closed), applies every pending inbox
    // bin in sequence order, drains the detector's in-flight maintenance
    // and removes it. Other streams are untouched -- closing a stream
    // never perturbs their output. Throws unknown_stream_error on an
    // unknown id.
    void close_stream(stream_id id);

    // --- Ingest ------------------------------------------------------------

    // Enqueues one bin into the stream's inbox; any number of threads may
    // ingest into the same stream concurrently. The returned sequence is
    // the stream-monotone position the bin will be applied at. Errors are
    // reported as distinct ingest_error values, never exceptions --
    // except detector errors surfacing from an auto-drain (a failed
    // refit, thrown by the bin that would have applied it), which
    // propagate to the ingesting caller; that bin counts as dropped.
    [[nodiscard]] ingest_result ingest(stream_id id, std::span<const double> y);

    // Enqueues a run of bins with consecutive sequences (no other
    // producer interleaves the run), waiting for room while the inbox is
    // full. Width and finiteness are validated for every bin before
    // anything enqueues (one bad bin refuses the whole run); a run longer
    // than the stream's inbox bound returns inbox_full (it can never
    // fit).
    [[nodiscard]] ingest_result ingest_batch(stream_id id,
                                             std::span<const std::span<const double>> ys);

    // Applies every bin currently pending in the stream's inbox (waiting
    // for an active drainer to hand over if necessary). Returns when the
    // inbox has been observed empty with no drain in progress. Throws
    // unknown_stream_error on an unknown id; rethrows detector errors.
    void flush_stream(stream_id id);

    // flush_stream over every open stream (drain-role-correct: each
    // stream is flushed through the same claim/hand-over protocol as
    // flush_stream, so it composes with concurrent drains and
    // producers). Streams closed concurrently are skipped;
    // streams opened concurrently may or may not be flushed. Rethrows
    // detector errors like flush_stream.
    void flush_all();

    // Ingest counters, readable at any time.
    [[nodiscard]] ingest_stats ingest_statistics(stream_id id) const;

    // Re-attaches the runtime sink (e.g. after restore_stream). Quiesces the
    // stream's ingest edge for the swap.
    void set_ingest_sink(stream_id id, ingest_sink sink);

    // --- Observation ------------------------------------------------------

    // Per-stream detector counters, which the stream's drainer publishes
    // under the stream's lock after every applied bin: safe to read at any
    // time, from a sink or while another thread drains. Throws
    // unknown_stream_error on an unknown id.
    struct stream_stats {
        std::size_t dimension = 0;
        std::size_t processed = 0;
        std::size_t alarms = 0;
        std::uint64_t epoch = 0;
    };
    stream_stats stats(stream_id id) const;

    // Read access to a stream's detector (e.g. to downcast for
    // detector-specific inspection in tests). Throws on unknown id.
    const stream_detector& stream(stream_id id) const;

    std::size_t stream_count() const;
    std::vector<stream_id> stream_ids() const;

    // The shared pool, or nullptr when configured with threads == 0.
    thread_pool* pool() noexcept { return pool_.get(); }
    std::size_t pool_size() const noexcept { return pool_ ? pool_->size() : 0; }

    // Blocks until no stream has background maintenance in flight. Does
    // not drain ingest inboxes (use flush_stream for that); waits out an
    // active inbox drainer per stream first, so it cannot race one.
    void drain_all();

    // --- Checkpointing ----------------------------------------------------

    // Checkpoints ONE stream as a self-contained "server_stream" record
    // onto the given stream, in the given encoding -- interchange for
    // records that travel between hosts (the wire protocol's snapshot
    // payload; docs/WIRE_FORMAT.md). Quiesces the stream for the write
    // (drain role + the stream's lock, no server-wide lock: other streams
    // keep serving while a slow `out` stalls this one), drains detector
    // maintenance so the bytes are independent of pool size and timing,
    // and snapshots pending inbox bins as residue without applying them;
    // the stream stays open and resumes afterwards. Throws
    // unknown_stream_error on an unknown id, std::runtime_error on I/O
    // failure.
    void snapshot_stream(stream_id id, std::ostream& out,
                         ckpt::encoding enc = ckpt::encoding::native);

    // The migration primitive: removes the stream from the server while
    // writing the same record snapshot_stream writes. Unpublishes the
    // stream, closes its inbox -- concurrent ingests (including
    // producers blocked on a full inbox) return stream_closed from this
    // point on, never silently dropping a bin -- then snapshots the
    // residue WITHOUT applying it and destroys the local detector, so
    // every accepted-but-unapplied bin travels in the record and
    // restore_stream on another server resumes from exactly this state
    // (accepted == applied + dropped + pending holds across the move,
    // and the replay stays bit-exact). The record is written before the
    // detector is destroyed, but a caller that cannot afford to lose the
    // stream on a flaky sink should detach into a memory buffer and
    // forward from there. Throws unknown_stream_error on an unknown id,
    // std::runtime_error on I/O failure.
    void detach_stream(stream_id id, std::ostream& out,
                       ckpt::encoding enc = ckpt::encoding::interchange);

    // Restores one stream from a record written by snapshot_stream /
    // detach_stream (either encoding, detected from the magic), wiring it
    // to this server's pool and registering it under a FRESH id on this
    // server -- the caller re-points collectors at the returned id. Inbox
    // residue is re-enqueued under its original sequence numbers. Throws
    // std::runtime_error on malformed input, publishing nothing: a record
    // of another format version or another type (a bare detector record
    // included), ingest counters that do not balance (a server writes
    // accepted == applied + dropped + residue and next sequence ==
    // accepted), an inbox capacity of 0 or above 65,536, or a policy slot
    // other than 0.
    [[nodiscard]] stream_id restore_stream(std::istream& in);

    // Same, from one record held in memory and parsed where it lies (a
    // received req_restore payload; docs/WIRE_FORMAT.md). The record must
    // span the bytes exactly: trailing bytes throw std::runtime_error
    // before the stream is published, so a record plus anything restores
    // nothing.
    [[nodiscard]] stream_id restore_stream(std::string_view record);

private:
    struct stream_entry;

    // Builds an unpublished entry; throws std::invalid_argument for an
    // inbox capacity above 65,536.
    static std::shared_ptr<stream_entry> make_entry(std::unique_ptr<stream_detector> detector,
                                                    ingest_options&& opts);
    std::shared_ptr<stream_entry> find_entry(stream_id id) const;
    std::shared_ptr<stream_entry> entry_or_throw(stream_id id) const;
    std::unique_ptr<stream_detector> build_detector(stream_open_config&& cfg);
    // Reads the "server_stream" container that stream_entry::write_record
    // writes (inbox config + counters + residue + nested detector record)
    // into a fresh, unpublished entry, refusing a record whose counters do
    // not balance the way a quiesced stream's always do (accepted ==
    // applied + dropped + residue and next sequence == accepted).
    std::shared_ptr<stream_entry> read_stream_record(std::istream& in);

    std::unique_ptr<thread_pool> pool_;
    mutable sync::shared_mutex mu_;
    // Serializes the maintenance operations (close_stream, drain_all,
    // snapshot_*, detach_stream, restore_*) against each other WITHOUT
    // holding mu_ across their waits or record writes: a drain in flight
    // may invoke an ingest sink that calls the server's read accessors
    // (mu_ shared), so a maintenance op that held mu_ exclusive while
    // waiting for that drain to retire would deadlock. Lock order:
    // maint_mu_ -> drain role -> mu_ -> a stream's lock; nothing waits for
    // a drain role while holding mu_ or a stream's lock.
    sync::mutex maint_mu_ NETDIAG_ACQUIRED_BEFORE(mu_);
    // Ordered so stream_ids() enumerates deterministically.
    std::map<stream_id, std::shared_ptr<stream_entry>> streams_ NETDIAG_GUARDED_BY(mu_);
    stream_id next_id_ NETDIAG_GUARDED_BY(mu_) = 1;
};

}  // namespace netdiag
