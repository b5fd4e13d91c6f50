#include "linalg/matrix.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace netdiag {

namespace {

// rows * cols, refused before anything is allocated when the product
// does not fit in size_t: it would wrap to a small buffer under a shape
// that claims more cells than it holds.
std::size_t cell_count(std::size_t rows, std::size_t cols, const char* who) {
    if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
        throw std::length_error(std::string(who) + ": rows * cols overflows size_t");
    }
    return rows * cols;
}

}  // namespace

matrix::matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(cell_count(rows, cols, "matrix"), fill) {
    if ((rows == 0) != (cols == 0)) {
        throw std::invalid_argument("matrix: rows and cols must both be zero or both nonzero");
    }
}

matrix::matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) {
            throw std::invalid_argument("matrix: ragged initializer list");
        }
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

matrix matrix::identity(std::size_t n) {
    matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

double& matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("matrix::at: index out of range");
    return data_[r * cols_ + c];
}

double matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("matrix::at: index out of range");
    return data_[r * cols_ + c];
}

std::vector<double> matrix::column(std::size_t c) const {
    if (c >= cols_) throw std::out_of_range("matrix::column: index out of range");
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
    return out;
}

void matrix::set_row(std::size_t r, std::span<const double> values) {
    if (r >= rows_) throw std::out_of_range("matrix::set_row: index out of range");
    if (values.size() != cols_) throw std::invalid_argument("matrix::set_row: size mismatch");
    std::copy(values.begin(), values.end(), data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void matrix::set_column(std::size_t c, std::span<const double> values) {
    if (c >= cols_) throw std::out_of_range("matrix::set_column: index out of range");
    if (values.size() != rows_) throw std::invalid_argument("matrix::set_column: size mismatch");
    for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = values[r];
}

void matrix::assign(std::size_t rows, std::size_t cols, double fill) {
    if ((rows == 0) != (cols == 0)) {
        throw std::invalid_argument("matrix::assign: rows and cols must both be zero or both nonzero");
    }
    data_.assign(cell_count(rows, cols, "matrix::assign"), fill);
    rows_ = rows;
    cols_ = cols;
}

bool approx_equal(const matrix& a, const matrix& b, double tol) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
    }
    return true;
}

}  // namespace netdiag
