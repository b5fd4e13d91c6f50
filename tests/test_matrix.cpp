#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace netdiag {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
    matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizedConstructionFills) {
    matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
    }
}

TEST(Matrix, MixedZeroShapeThrows) {
    EXPECT_THROW(matrix(3, 0), std::invalid_argument);
    EXPECT_THROW(matrix(0, 3), std::invalid_argument);
}

TEST(Matrix, InitializerListLaysOutRowMajor) {
    matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
    const matrix id = matrix::identity(3);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
        }
    }
}

TEST(Matrix, AtChecksBounds) {
    matrix m(2, 2);
    EXPECT_NO_THROW(m.at(1, 1));
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Matrix, AtWritesThrough) {
    matrix m(2, 2);
    m.at(0, 1) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, RowSpanAliasesStorage) {
    matrix m{{1.0, 2.0}, {3.0, 4.0}};
    auto row = m.row(1);
    row[0] = 9.0;
    EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(Matrix, ColumnCopies) {
    matrix m{{1.0, 2.0}, {3.0, 4.0}};
    auto col = m.column(1);
    ASSERT_EQ(col.size(), 2u);
    EXPECT_DOUBLE_EQ(col[0], 2.0);
    EXPECT_DOUBLE_EQ(col[1], 4.0);
    col[0] = 99.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);  // copy, not a view
}

TEST(Matrix, ColumnOutOfRangeThrows) {
    matrix m(2, 2);
    EXPECT_THROW(m.column(2), std::out_of_range);
}

TEST(Matrix, SetRowAndColumn) {
    matrix m(2, 2, 0.0);
    const std::vector<double> r{1.0, 2.0};
    const std::vector<double> c{5.0, 6.0};
    m.set_row(0, r);
    m.set_column(1, c);
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 5.0);  // column write wins
    EXPECT_DOUBLE_EQ(m(1, 1), 6.0);
}

TEST(Matrix, SetRowValidatesShape) {
    matrix m(2, 2);
    const std::vector<double> bad{1.0, 2.0, 3.0};
    EXPECT_THROW(m.set_row(0, bad), std::invalid_argument);
    const std::vector<double> good{1.0, 2.0};
    EXPECT_THROW(m.set_row(5, good), std::out_of_range);
}

TEST(Matrix, AssignReshapes) {
    matrix m(2, 2, 1.0);
    m.assign(3, 1, 0.5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 1u);
    EXPECT_DOUBLE_EQ(m(2, 0), 0.5);
}

TEST(Matrix, ShapeWhoseCellCountOverflowsThrowsBeforeAllocating) {
    // Each extent is 2^(digits / 2), so the product is exactly 2^digits:
    // it wraps to 0, and an unchecked size would allocate nothing while
    // the shape claims every cell.
    constexpr std::size_t half = std::size_t{1} << (std::numeric_limits<std::size_t>::digits / 2);
    EXPECT_THROW(matrix(half, half), std::length_error);
    EXPECT_THROW(matrix(half, half, 1.0), std::length_error);

    matrix m(2, 3, 1.5);
    EXPECT_THROW(m.assign(half, half), std::length_error);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
}

TEST(Matrix, EqualityIsElementwise) {
    matrix a{{1.0, 2.0}};
    matrix b{{1.0, 2.0}};
    matrix c{{1.0, 2.5}};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Matrix, ApproxEqualRespectsTolerance) {
    matrix a{{1.0, 2.0}};
    matrix b{{1.0 + 1e-12, 2.0 - 1e-12}};
    EXPECT_TRUE(approx_equal(a, b, 1e-9));
    EXPECT_FALSE(approx_equal(a, b, 1e-15));
}

TEST(Matrix, ApproxEqualShapeMismatchIsFalse) {
    matrix a(2, 2, 0.0);
    matrix b(2, 3, 0.0);
    EXPECT_FALSE(approx_equal(a, b, 1.0));
}

}  // namespace
}  // namespace netdiag
