#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "measurement/binning.h"
#include "measurement/centering.h"
#include "measurement/csv.h"
#include "measurement/link_loads.h"
#include "measurement/window_ring.h"

namespace netdiag {
namespace {

TEST(LinkLoads, MatchesManualSuperposition) {
    // Two links, three flows: flow 0 uses link 0, flow 1 uses link 1,
    // flow 2 uses both.
    const matrix a{{1.0, 0.0, 1.0}, {0.0, 1.0, 1.0}};
    const matrix x{{10.0, 20.0},   // flow 0 over two bins
                   {1.0, 2.0},     // flow 1
                   {100.0, 200.0}};  // flow 2
    const matrix y = link_loads_from_flows(a, x);
    ASSERT_EQ(y.rows(), 2u);  // time bins
    ASSERT_EQ(y.cols(), 2u);  // links
    EXPECT_DOUBLE_EQ(y(0, 0), 110.0);
    EXPECT_DOUBLE_EQ(y(0, 1), 101.0);
    EXPECT_DOUBLE_EQ(y(1, 0), 220.0);
    EXPECT_DOUBLE_EQ(y(1, 1), 202.0);
}

TEST(LinkLoads, DimensionMismatchThrows) {
    EXPECT_THROW(link_loads_from_flows(matrix(2, 3, 1.0), matrix(2, 5, 1.0)),
                 std::invalid_argument);
}

TEST(LinkLoads, SingleTimestepHelper) {
    const matrix a{{1.0, 1.0}, {0.0, 1.0}};
    const vec flows{3.0, 4.0};
    const vec y = link_loads_at(a, flows);
    EXPECT_DOUBLE_EQ(y[0], 7.0);
    EXPECT_DOUBLE_EQ(y[1], 4.0);
    const vec bad{1.0};
    EXPECT_THROW(link_loads_at(a, bad), std::invalid_argument);
}

TEST(Binning, RowRebinSumsGroups) {
    const matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}, {7.0, 8.0}};
    const matrix out = rebin_time_rows(m, 2);
    ASSERT_EQ(out.rows(), 2u);
    EXPECT_DOUBLE_EQ(out(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(out(0, 1), 6.0);
    EXPECT_DOUBLE_EQ(out(1, 0), 12.0);
    EXPECT_DOUBLE_EQ(out(1, 1), 14.0);
}

TEST(Binning, ColRebinSumsGroups) {
    const matrix m{{1.0, 2.0, 3.0, 4.0}, {5.0, 6.0, 7.0, 8.0}};
    const matrix out = rebin_time_cols(m, 2);
    ASSERT_EQ(out.cols(), 2u);
    EXPECT_DOUBLE_EQ(out(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(out(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(out(1, 0), 11.0);
    EXPECT_DOUBLE_EQ(out(1, 1), 15.0);
}

TEST(Binning, TotalMassPreserved) {
    matrix m(12, 3, 0.0);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = static_cast<double>(i);
    double before = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) before += m.data()[i];
    const matrix out = rebin_time_rows(m, 4);
    double after = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) after += out.data()[i];
    EXPECT_DOUBLE_EQ(before, after);
}

TEST(Binning, IndivisibleLengthThrows) {
    EXPECT_THROW(rebin_time_rows(matrix(5, 2, 1.0), 2), std::invalid_argument);
    EXPECT_THROW(rebin_time_cols(matrix(2, 5, 1.0), 2), std::invalid_argument);
    EXPECT_THROW(rebin_time_rows(matrix(4, 2, 1.0), 0), std::invalid_argument);
}

TEST(Centering, RemovesColumnMeans) {
    const matrix y{{1.0, 10.0}, {3.0, 30.0}};
    const centering_result c = center_columns(y);
    EXPECT_DOUBLE_EQ(c.column_means[0], 2.0);
    EXPECT_DOUBLE_EQ(c.column_means[1], 20.0);
    EXPECT_DOUBLE_EQ(c.centered(0, 0), -1.0);
    EXPECT_DOUBLE_EQ(c.centered(1, 1), 10.0);
}

TEST(Centering, CenteredColumnsSumToZero) {
    matrix y(7, 3, 0.0);
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = static_cast<double>(i * i % 13);
    const centering_result c = center_columns(y);
    for (std::size_t col = 0; col < 3; ++col) {
        double s = 0.0;
        for (std::size_t r = 0; r < 7; ++r) s += c.centered(r, col);
        EXPECT_NEAR(s, 0.0, 1e-12);
    }
}

TEST(Centering, CenterWithAppliesStoredMeans) {
    const vec y{5.0, 7.0};
    const vec means{2.0, 3.0};
    const vec out = center_with(y, means);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(Centering, EmptyMatrixThrows) {
    EXPECT_THROW(center_columns(matrix{}), std::invalid_argument);
}

// A row of `width` values that names its bin: bin b holds b, b + 0.25, ...
vec ring_row(std::size_t bin, std::size_t width) {
    vec out(width);
    for (std::size_t c = 0; c < width; ++c) out[c] = static_cast<double>(bin) + 0.25 * c;
    return out;
}

matrix ring_rows(const window_view& view) {
    matrix out(view.rows(), view.width());
    for (std::size_t r = 0; r < view.rows(); ++r) out.set_row(r, view.row(r));
    return out;
}

// Rows first .. first + count - 1 of ring_row, stacked.
matrix expected_rows(std::size_t first, std::size_t count, std::size_t width) {
    matrix out(count, width);
    for (std::size_t r = 0; r < count; ++r) out.set_row(r, ring_row(first + r, width));
    return out;
}

TEST(WindowRing, KeepsTheNewestRowsOldestFirst) {
    window_ring ring(3, 5, 2, 0);
    EXPECT_EQ(ring.slots(), 0u);
    for (std::size_t bin = 0; bin < 23; ++bin) {
        ring.push(ring_row(bin, 3));
        const std::size_t rows = std::min<std::size_t>(bin + 1, 5);
        ASSERT_EQ(ring.rows(), rows);
        ASSERT_EQ(ring.to_matrix(), expected_rows(bin + 1 - rows, rows, 3)) << "bin " << bin;
        ASSERT_EQ(ring_rows(ring.view()), ring.to_matrix()) << "bin " << bin;
    }
    EXPECT_EQ(ring.slots(), 7u);  // window + spare once full
    EXPECT_THROW(ring.push(vec(2, 1.0)), std::invalid_argument);
}

TEST(WindowRing, FullRingKeepsAViewThroughItsSpareAppends) {
    // A full window is allocated window + spare slots up front and never
    // reallocates; the spare appends after a view land outside it.
    window_ring ring(4, 6, 3, 6);
    EXPECT_EQ(ring.slots(), 9u);
    for (std::size_t bin = 0; bin < 6; ++bin) ring.push(ring_row(bin, 4));
    for (std::size_t start = 0; start < 20; ++start) {
        const window_view view = ring.view();
        const matrix before = ring_rows(view);
        for (std::size_t k = 0; k < 3; ++k) ring.push(ring_row(100 + 3 * start + k, 4));
        ASSERT_EQ(ring_rows(view), before) << "start " << start;
        ASSERT_EQ(ring.slots(), 9u);
    }
}

TEST(WindowRing, YoungRingGrowsAndEarlierViewsKeepTheirRows) {
    // Two rows present: a first buffer of 2 + min(8, 2) slots. Every view
    // keeps its rows through the next `spare` appends, and each growth
    // moves the ring to a new buffer the views never see.
    window_ring ring(2, 40, 8, 2);
    EXPECT_EQ(ring.slots(), 4u);
    ring.push(ring_row(0, 2));
    ring.push(ring_row(1, 2));
    std::vector<std::size_t> slot_history{ring.slots()};
    for (std::size_t bin = 2; bin < 90; ++bin) {
        const window_view view = ring.view();
        const matrix before = ring_rows(view);
        for (std::size_t k = 0; k < 8; ++k) {
            ring.push(ring_row(bin, 2));
            if (ring.slots() != slot_history.back()) slot_history.push_back(ring.slots());
        }
        ASSERT_EQ(ring_rows(view), before) << "bin " << bin;
    }
    EXPECT_EQ(ring.rows(), 40u);
    EXPECT_EQ(ring.slots(), 48u);
    // Geometric growth: each buffer at least doubles, up to window + spare.
    for (std::size_t i = 1; i + 1 < slot_history.size(); ++i) {
        EXPECT_GE(slot_history[i], 2 * slot_history[i - 1]) << i;
    }
}

TEST(WindowRing, FirstBufferIsSizedFromRowsPresentNotTheWindow) {
    // A window of 2^40 rows allocates for the three rows in hand.
    window_ring ring(6, std::size_t{1} << 40, std::size_t{1} << 39, 3);
    EXPECT_EQ(ring.slots(), 6u);
    for (std::size_t bin = 0; bin < 3; ++bin) ring.push(ring_row(bin, 6));
    EXPECT_EQ(ring.slots(), 6u);
    EXPECT_EQ(ring.to_matrix(), expected_rows(0, 3, 6));
}

TEST(WindowRing, RefusesMoreSpareThanWindowAndEmptyShapes) {
    EXPECT_THROW(window_ring(3, 4, 5, 0), std::invalid_argument);
    EXPECT_THROW(window_ring(0, 4, 1, 0), std::invalid_argument);
    EXPECT_THROW(window_ring(3, 0, 0, 0), std::invalid_argument);
    EXPECT_NO_THROW(window_ring(3, 4, 4, 4));
}

TEST(WindowRing, CenteringAViewMatchesCenteringItsMatrix) {
    window_ring ring(5, 7, 2, 7);
    for (std::size_t bin = 0; bin < 17; ++bin) {
        vec row = ring_row(bin, 5);
        for (double& v : row) v = v * 1.1 + 1e6 / (1.0 + v);
        ring.push(row);
    }
    const centering_result from_view = center_columns(ring.view());
    const centering_result from_matrix = center_columns(ring.to_matrix());
    ASSERT_EQ(from_view.centered.rows(), 7u);
    for (std::size_t i = 0; i < from_view.centered.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(from_view.centered.data()[i]),
                  std::bit_cast<std::uint64_t>(from_matrix.centered.data()[i]));
    }
    for (std::size_t c = 0; c < 5; ++c) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(from_view.column_means[c]),
                  std::bit_cast<std::uint64_t>(from_matrix.column_means[c]));
    }
    EXPECT_THROW(center_columns(window_view{}), std::invalid_argument);
}

class CsvRoundTrip : public ::testing::Test {
protected:
    std::string path_ = (std::filesystem::temp_directory_path() /
                         ("netdiag_csv_test_" + std::to_string(::getpid()) + ".csv"))
                            .string();
    void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CsvRoundTrip, ValuesSurviveExactly) {
    matrix m(3, 2, 0.0);
    m(0, 0) = 1.5;
    m(0, 1) = -2.25;
    m(1, 0) = 1e17;
    m(1, 1) = 3.141592653589793;
    m(2, 0) = 0.0;
    m(2, 1) = -0.125;
    write_matrix_csv(path_, m);
    const csv_matrix back = read_matrix_csv(path_);
    EXPECT_TRUE(back.header.empty());
    EXPECT_TRUE(approx_equal(back.values, m, 0.0));
}

TEST_F(CsvRoundTrip, HeaderRoundTrips) {
    const matrix m{{1.0, 2.0}};
    write_matrix_csv(path_, m, {"link_a", "link_b"});
    const csv_matrix back = read_matrix_csv(path_);
    ASSERT_EQ(back.header.size(), 2u);
    EXPECT_EQ(back.header[0], "link_a");
    EXPECT_TRUE(approx_equal(back.values, m, 0.0));
}

TEST_F(CsvRoundTrip, HeaderSizeMismatchThrows) {
    const matrix m{{1.0, 2.0}};
    EXPECT_THROW(write_matrix_csv(path_, m, {"only_one"}), std::invalid_argument);
}

TEST_F(CsvRoundTrip, MissingFileThrows) {
    EXPECT_THROW(read_matrix_csv("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST_F(CsvRoundTrip, RaggedFileThrows) {
    {
        std::ofstream out(path_);
        out << "1,2\n3\n";
    }
    EXPECT_THROW(read_matrix_csv(path_), std::invalid_argument);
}

TEST_F(CsvRoundTrip, NonNumericBodyThrows) {
    {
        std::ofstream out(path_);
        out << "1,2\nfoo,bar\n";
    }
    EXPECT_THROW(read_matrix_csv(path_), std::invalid_argument);
}

}  // namespace
}  // namespace netdiag
