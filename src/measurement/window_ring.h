// The sliding measurement window of an online refit, held as one ring.
//
// A window_ring keeps the newest `window` rows of `width` values in one
// contiguous row-major buffer of window + spare row slots. An append
// copies a row into the slot after the newest and, once the window is
// full, drops the oldest, so a push allocates nothing. A refit reads the
// rows where they lie: view() hands out a window_view that shares
// ownership of the buffer, and the `spare` slots beyond the window are
// what keeps that view intact while the pusher goes on appending -- the
// next `spare` appends never write a slot the view reads.
//
// A ring fills its first buffer from the rows a caller has in hand (a
// bootstrap, or the rows a checkpoint record holds), sized
// rows + min(spare, rows), so a full window gets its full window + spare
// slots at once and never reallocates. A younger ring grows geometrically
// up to that size: it copies its rows oldest first into a new buffer, and
// a view taken earlier keeps reading the old one.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "linalg/matrix.h"

namespace netdiag {

// Read-only consecutive window rows, oldest first: the rows of a ring as
// they were when view() was called, or a whole matrix the view owns. A
// view shares ownership of its storage, so it stays valid after its ring
// has grown, moved or been destroyed, and a pool worker may read it
// while the pusher appends to the ring. It is cheap to copy.
class window_view {
public:
    window_view() = default;
    // Views every row of `rows`, taking ownership of it.
    explicit window_view(matrix rows);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t width() const noexcept { return width_; }
    // Row r, oldest first (r < rows(), unchecked).
    std::span<const double> row(std::size_t r) const noexcept {
        std::size_t slot = first_ + r;
        if (slot >= slots_) slot -= slots_;
        return {base_.get() + slot * width_, width_};
    }

private:
    friend class window_ring;
    window_view(std::shared_ptr<const double> base, std::size_t slots, std::size_t first,
                std::size_t rows, std::size_t width)
        : base_(std::move(base)), slots_(slots), first_(first), rows_(rows), width_(width) {}

    std::shared_ptr<const double> base_;  // slot 0 of the viewed buffer
    std::size_t slots_ = 0;
    std::size_t first_ = 0;
    std::size_t rows_ = 0;
    std::size_t width_ = 0;
};

class window_ring {
public:
    // An empty ring for the newest `window` rows of `width` values with
    // `spare` slots beyond them, its first buffer sized for
    // min(rows_present, window) rows -- the rows the caller is about to
    // append. Throws std::invalid_argument on a zero width or window, or
    // on spare > window.
    window_ring(std::size_t width, std::size_t window, std::size_t spare,
                std::size_t rows_present);

    std::size_t rows() const noexcept { return rows_; }
    // Row slots allocated now; window + spare once the window is full.
    std::size_t slots() const noexcept { return slots_; }

    // Appends a row after the newest, dropping the oldest when the window
    // is full, and returns its slot for the caller to fill (`width`
    // values, contents unspecified until written).
    std::span<double> append();
    // append(), filled with `values`. Throws std::invalid_argument when
    // values is not `width` long.
    void push(std::span<const double> values);

    // Row r, oldest first (r < rows(), unchecked).
    std::span<const double> row(std::size_t r) const noexcept {
        std::size_t slot = head_ + r;
        if (slot >= slots_) slot -= slots_;
        return {buffer_.get() + slot * width_, width_};
    }
    // Every row, in place.
    window_view view() const;
    // Every row, copied oldest first into a rows() x `width` matrix.
    matrix to_matrix() const;

private:
    // Moves the rows oldest first into a buffer of `slots` row slots.
    void reallocate(std::size_t slots);

    std::shared_ptr<double[]> buffer_;
    std::size_t width_ = 0;
    std::size_t window_ = 0;
    std::size_t spare_ = 0;
    std::size_t slots_ = 0;
    std::size_t head_ = 0;  // slot of the oldest row
    std::size_t rows_ = 0;
};

}  // namespace netdiag
