// Bounded multi-producer single-consumer inbox: the ingest-edge primitive
// behind the stream_server's concurrent ingest() API (serve/stream_server.h).
//
// The ring is the classic bounded MPMC queue of per-cell sequence numbers
// (Vyukov): producers claim a ticket by CAS on the enqueue position, write
// their payload into the claimed cell, and publish it by storing the
// cell's sequence -- so enqueue assigns every accepted item a *monotone
// sequence number* with no lock on the fast path, and the consumer pops
// items in exactly that sequence order. The dequeue side also uses the
// CAS protocol (not a plain single-consumer load/store), so the structure
// stays correct with any number of concurrent poppers, while the owner of
// the inbox is expected to funnel *applying* popped items through a single
// logical drainer (the stream_server does this with a per-stream drain
// role flag).
//
// Backpressure: a push never waits. On a full ring it returns status full
// and enqueues nothing; a multi-item push_n is all-or-nothing (either
// every item gets a consecutive sequence or none is enqueued). A producer
// that wants to wait loops push_n / wait_for_space -- a condition-variable
// wait off the fast path that close() cuts short -- so it can place the
// wait outside its own locks (the stream_server does exactly that, so a
// parked producer can never wedge a snapshot).
//
// Sequences are exposed with a caller-chosen base (start_sequence) so a
// restored inbox -- checkpoint residue re-enqueued after a restore, see
// measurement/stream_checkpoint.h -- continues the original numbering.
//
// snapshot_items() reads the pending items without consuming them; it is
// only safe when the caller has quiesced every producer and consumer (the
// stream_server calls it under its per-stream exclusive lock).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "engine/sync.h"
#include "engine/thread_pool.h"

namespace netdiag {

enum class inbox_push_status {
    accepted,  // enqueued; push_result::sequence is the first assigned sequence
    full,      // no room for the whole run; nothing enqueued
    closed,    // close() was called; nothing enqueued
};

template <typename T>
class mpsc_inbox {
public:
    struct push_result {
        inbox_push_status status = inbox_push_status::accepted;
        std::uint64_t sequence = 0;  // first sequence of the pushed run (accepted only)
    };

    // capacity is rounded up to the next power of two (>= 1); capacity()
    // reports the effective value. start_sequence is the sequence the
    // first accepted push receives.
    // Largest accepted capacity: 64x the default ingest inbox, small
    // enough that the power-of-two rounding below cannot overflow and
    // that a checkpoint's capacity field can never make restore allocate
    // more than 2^16 cells up front (2.5 MiB of the server's 40-byte
    // cells).
    static constexpr std::size_t k_max_capacity = std::size_t{1} << 16;

    explicit mpsc_inbox(std::size_t capacity, std::uint64_t start_sequence = 0)
        : base_(start_sequence) {
        if (capacity == 0) throw std::invalid_argument("mpsc_inbox: capacity must be > 0");
        if (capacity > k_max_capacity) {
            throw std::invalid_argument("mpsc_inbox: capacity too large");
        }
        std::size_t cap = 1;
        while (cap < capacity) cap <<= 1;
        capacity_ = cap;
        mask_ = cap - 1;
        cells_ = std::make_unique<cell[]>(cap);
        for (std::size_t i = 0; i < cap; ++i) {
            cells_[i].seq.store(i, std::memory_order_relaxed);
        }
    }

    mpsc_inbox(const mpsc_inbox&) = delete;
    mpsc_inbox& operator=(const mpsc_inbox&) = delete;

    std::size_t capacity() const noexcept { return capacity_; }

    // Enqueues one item. The item is moved from only when the push is
    // accepted.
    [[nodiscard]] push_result push(T value) {
        std::span<T> one(&value, 1);
        return push_n(one);
    }

    // Enqueues values.size() items with *consecutive* sequences (no other
    // producer's item interleaves the run), all-or-nothing: a ring without
    // room for the whole run returns status full and enqueues nothing.
    // Throws std::invalid_argument when the run is larger than the ring
    // itself. An empty run is accepted with sequence == next_sequence()
    // and enqueues nothing.
    [[nodiscard]] push_result push_n(std::span<T> values) {
        if (values.size() > capacity_) {
            throw std::invalid_argument("mpsc_inbox: batch larger than ring capacity");
        }
        if (closed_.load(std::memory_order_acquire)) return {inbox_push_status::closed, 0};
        if (values.empty()) return {inbox_push_status::accepted, next_sequence()};
        std::uint64_t pos = 0;
        if (!try_reserve(values.size(), &pos)) return {inbox_push_status::full, 0};
        fill(pos, values);
        return {inbox_push_status::accepted, base_ + pos};
    }

    // The producer-side wait: parks briefly (bounded by a ~1ms timeout)
    // until a pop or close() makes another attempt worthwhile. Callers
    // loop push_n / wait_for_space. A blocking boundary: never legal on a
    // pool worker (engine/thread_pool.h).
    void wait_for_space() NETDIAG_EXCLUDES(wait_mu_) {
        thread_pool::assert_wait_allowed();
        sync::mutex_lock lock(wait_mu_);
        waiters_.fetch_add(1, std::memory_order_relaxed);
        // Timed wait instead of a tracked predicate: the producer re-runs
        // its reservation after every wakeup anyway, so a (rare) missed
        // notification costs one timeout, never a hang.
        (void)space_cv_.wait_for(lock, std::chrono::milliseconds(1));
        waiters_.fetch_sub(1, std::memory_order_relaxed);
    }

    // Pops the oldest pending item, returning false when the ring is
    // empty. Safe to call from several threads at once; items come out in
    // sequence order overall.
    //
    // The position CASes (here and in try_reserve) are seq_cst rather
    // than relaxed: the inbox's owner pairs ring-position reads with a
    // separate drainer-role flag ("is someone applying?"), and that
    // cross-variable reasoning -- if you can see my pop/enqueue, you can
    // see my role flag -- needs the single total order; acquire/release
    // alone orders nothing between the two variables. The cost is noise
    // next to what callers do with each item.
    [[nodiscard]] bool try_pop(T& out, std::uint64_t& sequence) NETDIAG_EXCLUDES(wait_mu_) {
        std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
        cell* c = nullptr;
        for (;;) {
            c = &cells_[pos & mask_];
            const std::uint64_t seq = c->seq.load(std::memory_order_acquire);
            const std::int64_t dif =
                static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
            if (dif == 0) {
                if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                                       std::memory_order_seq_cst)) {
                    break;
                }
            } else if (dif < 0) {
                return false;  // empty (or the head cell is still being written)
            } else {
                pos = dequeue_pos_.load(std::memory_order_relaxed);
            }
        }
        out = std::move(c->value);
        sequence = base_ + pos;
        c->seq.store(pos + capacity_, std::memory_order_release);
        if (waiters_.load(std::memory_order_relaxed) > 0) {
            // Pair the notification with the waiter's lock so a producer
            // between its failed reservation and its wait cannot miss it.
            { sync::mutex_lock lock(wait_mu_); }
            space_cv_.notify_all();
        }
        return true;
    }

    // Pending item count. Exact when producers and consumers are
    // quiesced, a lower/upper-bounded estimate otherwise. seq_cst loads
    // so "the ring looked empty" can be combined with the owner's
    // drainer-role flag in one total order (see try_pop).
    std::size_t approx_size() const noexcept {
        const std::uint64_t enq = enqueue_pos_.load(std::memory_order_seq_cst);
        const std::uint64_t deq = dequeue_pos_.load(std::memory_order_seq_cst);
        return enq > deq ? static_cast<std::size_t>(enq - deq) : 0;
    }

    bool empty() const noexcept { return approx_size() == 0; }

    // Sequence the next accepted push will receive.
    std::uint64_t next_sequence() const noexcept {
        return base_ + enqueue_pos_.load(std::memory_order_acquire);
    }

    // Wakes blocked producers and makes every further push return
    // status closed. Pending items remain poppable.
    void close() NETDIAG_EXCLUDES(wait_mu_) {
        closed_.store(true, std::memory_order_release);
        { sync::mutex_lock lock(wait_mu_); }
        space_cv_.notify_all();
    }

    bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

    // Copies the pending items (sequence, payload) in sequence order
    // WITHOUT consuming them. Only valid when no producer or consumer is
    // active; the checkpoint path calls this under an exclusive stream
    // lock.
    std::vector<std::pair<std::uint64_t, T>> snapshot_items() const {
        const std::uint64_t deq = dequeue_pos_.load(std::memory_order_acquire);
        const std::uint64_t enq = enqueue_pos_.load(std::memory_order_acquire);
        std::vector<std::pair<std::uint64_t, T>> out;
        out.reserve(static_cast<std::size_t>(enq - deq));
        for (std::uint64_t pos = deq; pos < enq; ++pos) {
            out.emplace_back(base_ + pos, cells_[pos & mask_].value);
        }
        return out;
    }

private:
    struct cell {
        std::atomic<std::uint64_t> seq{0};
        T value{};
    };

    // Claims `count` consecutive tickets when the ring has room for all
    // of them, using a conservative dequeue-position read: the consumer
    // only ever advances, so a stale read can under-report free space
    // (producing a spurious full, resolved by the caller's retry) but
    // never over-report it.
    [[nodiscard]] bool try_reserve(std::size_t count, std::uint64_t* out_pos) {
        std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t deq = dequeue_pos_.load(std::memory_order_acquire);
            if (pos + count > deq + capacity_) {
                const std::uint64_t fresh = enqueue_pos_.load(std::memory_order_relaxed);
                if (fresh != pos) {
                    pos = fresh;
                    continue;
                }
                return false;
            }
            if (enqueue_pos_.compare_exchange_weak(pos, pos + count,
                                                   std::memory_order_seq_cst)) {
                *out_pos = pos;
                return true;
            }
        }
    }

    void fill(std::uint64_t pos, std::span<T> values) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            cell& c = cells_[(pos + i) & mask_];
            // The reservation guaranteed the cell is (or is about to be)
            // free; a consumer that advanced dequeue_pos_ may still be a
            // few instructions from publishing the cell's new sequence.
            while (c.seq.load(std::memory_order_acquire) != pos + i) {
                std::this_thread::yield();
            }
            c.value = std::move(values[i]);
            c.seq.store(pos + i + 1, std::memory_order_release);
        }
    }

    std::size_t capacity_ = 0;
    std::size_t mask_ = 0;
    std::uint64_t base_ = 0;
    std::unique_ptr<cell[]> cells_;
    std::atomic<std::uint64_t> enqueue_pos_{0};
    std::atomic<std::uint64_t> dequeue_pos_{0};
    std::atomic<bool> closed_{false};
    std::atomic<std::size_t> waiters_{0};
    sync::mutex wait_mu_;
    sync::condition_variable space_cv_;
};

}  // namespace netdiag
