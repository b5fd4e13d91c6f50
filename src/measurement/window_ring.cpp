#include "measurement/window_ring.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace netdiag {

namespace {

// Slots a ring holding `rows` rows needs: a view of them survives the
// next min(spare, rows) appends in place. A ring younger than its spare
// grows before a later append could reach the view.
std::size_t slots_for(std::size_t rows, std::size_t spare) {
    return rows + std::min(spare, rows);
}

}  // namespace

window_view::window_view(matrix rows) {
    const auto owner = std::make_shared<const matrix>(std::move(rows));
    base_ = std::shared_ptr<const double>(owner, owner->data());
    slots_ = owner->rows();
    rows_ = owner->rows();
    width_ = owner->cols();
}

window_ring::window_ring(std::size_t width, std::size_t window, std::size_t spare,
                         std::size_t rows_present)
    : width_(width), window_(window), spare_(spare) {
    if (width == 0 || window == 0) {
        throw std::invalid_argument("window_ring: zero width or window");
    }
    if (spare > window) throw std::invalid_argument("window_ring: more spare slots than rows");
    const std::size_t rows = std::min(rows_present, window);
    if (rows > 0) reallocate(slots_for(rows, spare));
}

std::span<double> window_ring::append() {
    const std::size_t rows = std::min(rows_ + 1, window_);
    const std::size_t need = slots_for(rows, spare_);
    if (slots_ < need) {
        // Double, up to the full window + spare slots (a sum that
        // saturates: a window near the size_t limit never fills anyway).
        const std::size_t max = std::numeric_limits<std::size_t>::max();
        const std::size_t full = window_ > max - spare_ ? max : window_ + spare_;
        reallocate(std::max(need, std::min(2 * slots_, full)));
    }
    std::size_t slot = head_ + rows_;
    if (slot >= slots_) slot -= slots_;
    if (rows_ == window_) {
        if (++head_ == slots_) head_ = 0;
    } else {
        ++rows_;
    }
    return {buffer_.get() + slot * width_, width_};
}

void window_ring::push(std::span<const double> values) {
    if (values.size() != width_) throw std::invalid_argument("window_ring: row width mismatch");
    std::copy(values.begin(), values.end(), append().begin());
}

window_view window_ring::view() const {
    return {std::shared_ptr<const double>(buffer_, buffer_.get()), slots_, head_, rows_, width_};
}

matrix window_ring::to_matrix() const {
    matrix out(rows_, width_);
    for (std::size_t r = 0; r < rows_; ++r) out.set_row(r, row(r));
    return out;
}

void window_ring::reallocate(std::size_t slots) {
    if (slots > std::numeric_limits<std::size_t>::max() / width_) {
        throw std::length_error("window_ring: slot count overflows");
    }
    std::shared_ptr<double[]> next = std::make_shared_for_overwrite<double[]>(slots * width_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::span<const double> values = row(r);
        std::copy(values.begin(), values.end(), next.get() + r * width_);
    }
    buffer_ = std::move(next);
    slots_ = slots;
    head_ = 0;
}

}  // namespace netdiag
