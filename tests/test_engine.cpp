#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eval/ground_truth.h"
#include "eval/injection.h"
#include "eval/roc.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "measurement/centering.h"
#include "measurement/presets.h"
#include "subspace/diagnoser.h"
#include "subspace/pca.h"

namespace netdiag {
namespace {

// ---------------------------------------------------------------------------
// thread_pool / parallel_for mechanics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
    EXPECT_GE(thread_pool::hardware_threads(), 1u);
}

TEST(ThreadPool, ZeroRequestsHardwareSize) {
    thread_pool pool(0);
    EXPECT_EQ(pool.size(), thread_pool::hardware_threads());
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
    thread_pool pool(4);
    std::atomic<int> calls{0};
    parallel_for(pool, 0, 0, [&](std::size_t) { ++calls; });
    parallel_for(pool, 7, 7, [&](std::size_t) { ++calls; });
    parallel_for(pool, 9, 3, [&](std::size_t) { ++calls; });  // reversed == empty
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingletonRangeRunsOnce) {
    thread_pool pool(4);
    std::vector<int> hits(1, 0);
    parallel_for(pool, 0, 1, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (std::size_t threads : {1u, 2u, 3u, 8u}) {
        thread_pool pool(threads);
        for (std::size_t n : {1u, 2u, 5u, 7u, 64u, 1000u}) {
            std::vector<std::atomic<int>> hits(n);
            parallel_for(pool, 0, n, [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                             << " index=" << i;
            }
        }
    }
}

TEST(ParallelFor, RangeSmallerThanPoolStillCompletes) {
    thread_pool pool(8);
    std::vector<std::atomic<int>> hits(3);
    parallel_for(pool, 0, 3, [&](std::size_t i) { ++hits[i]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, OffsetRangeSeesOriginalIndices) {
    thread_pool pool(4);
    std::vector<std::size_t> seen(20, 0);
    parallel_for(pool, 5, 17, [&](std::size_t i) { seen[i] = i; });
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], (i >= 5 && i < 17) ? i : 0u);
    }
}

TEST(ParallelFor, PropagatesBodyExceptions) {
    thread_pool pool(4);
    const auto boom = [](std::size_t i) {
        if (i == 33) throw std::runtime_error("boom");
    };
    EXPECT_THROW(parallel_for(pool, 0, 100, boom), std::runtime_error);
    // The pool must remain usable after an exception.
    std::atomic<int> calls{0};
    parallel_for(pool, 0, 10, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 10);
}

// Runs job(j) for every j < count as its own pool job and returns once
// every one has returned.
template <typename Job>
void run_jobs(thread_pool& pool, std::size_t count, const Job& job) {
    std::atomic<std::size_t> finished{0};
    for (std::size_t j = 0; j < count; ++j) {
        pool.submit([&job, &finished, j] {
            job(j);
            ++finished;
        });
    }
    while (finished.load() < count) std::this_thread::yield();
}

TEST(ParallelFor, NestedDispatchFromAPoolJobDegradesToSerial) {
    // A parallel_for over a pool, issued from inside one of that pool's
    // own jobs (a sharded multi-stream push reaching a pooled detector
    // kernel), must run the range serially on the worker instead of
    // parking it on nested chunks -- every index exactly once, no
    // deadlock. Saturate the pool with such jobs so a real nested
    // dispatch would have no free worker at all.
    for (std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        const std::size_t jobs = threads * 2;
        std::vector<std::vector<std::atomic<int>>> hits(jobs);
        for (auto& h : hits) {
            h = std::vector<std::atomic<int>>(64);
        }
        run_jobs(pool, jobs, [&pool, &hits](std::size_t j) {
            parallel_for(pool, 0, 64, [&](std::size_t i) { ++hits[j][i]; });
        });
        for (std::size_t j = 0; j < jobs; ++j) {
            for (std::size_t i = 0; i < 64; ++i) {
                ASSERT_EQ(hits[j][i].load(), 1) << "threads=" << threads << " job=" << j;
            }
        }
    }
}

TEST(ThreadPool, AssertWaitAllowedRefusesEveryPoolJob) {
    // The waiting contract is one rule: a pool job never waits. Threads
    // the pool does not own may always wait.
    EXPECT_NO_THROW(thread_pool::assert_wait_allowed());
    bool outsider_ok = false;
    std::thread outsider([&outsider_ok] {
        thread_pool::assert_wait_allowed();
        outsider_ok = true;
    });
    outsider.join();
    EXPECT_TRUE(outsider_ok);

    const auto refused = [] {
        try {
            thread_pool::assert_wait_allowed();
            return false;
        } catch (const std::logic_error&) {
            return true;
        }
    };
    // Every submitted job, on every worker of every pool size.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        std::vector<int> jobs(4 * threads, -1);
        run_jobs(pool, jobs.size(), [&](std::size_t j) { jobs[j] = refused() ? 1 : 0; });
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            EXPECT_EQ(jobs[j], 1) << "threads=" << threads << " job=" << j;
        }
    }
    // Kernel shards too: parallel_for runs chunk 0 on the caller (allowed)
    // and every other chunk as a pool job (refused).
    thread_pool pool(4);
    std::vector<int> threw(8, -1);
    parallel_for(pool, 0, threw.size(), [&](std::size_t i) { threw[i] = refused() ? 1 : 0; });
    EXPECT_EQ(threw, (std::vector<int>{0, 0, 1, 1, 1, 1, 1, 1}));
}

// ---------------------------------------------------------------------------
// Bit-identity of the pooled sweeps against the serial path, across pool
// sizes {1, 2, 8}. One shared fitted diagnoser (fitting dominates cost).
// ---------------------------------------------------------------------------

class BatchParityFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        ds_ = new dataset(make_sprint1_dataset());
        diagnoser_ = new volume_anomaly_diagnoser(ds_->link_loads, ds_->routing.a, 0.999);
    }
    static void TearDownTestSuite() {
        delete diagnoser_;
        delete ds_;
        diagnoser_ = nullptr;
        ds_ = nullptr;
    }

    static dataset* ds_;
    static volume_anomaly_diagnoser* diagnoser_;
};

dataset* BatchParityFixture::ds_ = nullptr;
volume_anomaly_diagnoser* BatchParityFixture::diagnoser_ = nullptr;

constexpr std::size_t k_thread_counts[] = {1, 2, 8};

TEST_F(BatchParityFixture, TestAllMatchesSerialBitForBit) {
    const auto serial = diagnoser_->detector().test_all(ds_->link_loads);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const auto batch = diagnoser_->detector().test_all(ds_->link_loads, &pool);
        ASSERT_EQ(batch.size(), serial.size());
        for (std::size_t r = 0; r < serial.size(); ++r) {
            ASSERT_EQ(batch[r].anomalous, serial[r].anomalous) << "threads=" << threads;
            // Exact equality on purpose: the sharded sweep must perform the
            // same arithmetic per row as the serial loop.
            ASSERT_EQ(batch[r].spe, serial[r].spe) << "threads=" << threads << " row=" << r;
            ASSERT_EQ(batch[r].threshold, serial[r].threshold);
        }
    }
}

TEST_F(BatchParityFixture, DiagnoseAllMatchesSerialBitForBit) {
    const auto serial = diagnoser_->diagnose_all(ds_->link_loads);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const auto batch = diagnoser_->diagnose_all(ds_->link_loads, &pool);
        ASSERT_EQ(batch.size(), serial.size());
        for (std::size_t r = 0; r < serial.size(); ++r) {
            ASSERT_EQ(batch[r].anomalous, serial[r].anomalous) << "threads=" << threads;
            ASSERT_EQ(batch[r].spe, serial[r].spe);
            ASSERT_EQ(batch[r].flow.has_value(), serial[r].flow.has_value());
            if (serial[r].flow) {
                ASSERT_EQ(*batch[r].flow, *serial[r].flow);
            }
            ASSERT_EQ(batch[r].magnitude, serial[r].magnitude);
            ASSERT_EQ(batch[r].estimated_bytes, serial[r].estimated_bytes);
        }
    }
}

TEST_F(BatchParityFixture, SpeSeriesMatchesSerialBitForBit) {
    const vec serial = diagnoser_->model().spe_series(ds_->link_loads);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const vec batch = diagnoser_->model().spe_series(ds_->link_loads, &pool);
        ASSERT_EQ(batch, serial) << "threads=" << threads;
    }
}

TEST_F(BatchParityFixture, InjectionSweepMatchesSerialBitForBit) {
    injection_config cfg;
    cfg.spike_bytes = 3.0e7;
    cfg.t_begin = 300;
    cfg.t_end = 312;
    const injection_summary serial = run_injection_experiment(*ds_, *diagnoser_, cfg);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const injection_summary batch = run_injection_experiment(*ds_, *diagnoser_, cfg, &pool);
        ASSERT_EQ(batch.flow_count, serial.flow_count) << "threads=" << threads;
        ASSERT_EQ(batch.time_count, serial.time_count);
        ASSERT_EQ(batch.detection_rate, serial.detection_rate);
        ASSERT_EQ(batch.identification_rate, serial.identification_rate);
        ASSERT_EQ(batch.quantification_error, serial.quantification_error);
        ASSERT_EQ(batch.detection_rate_by_flow, serial.detection_rate_by_flow);
        ASSERT_EQ(batch.detection_rate_by_time, serial.detection_rate_by_time);
    }
}

// ---------------------------------------------------------------------------
// Parallel fit path: covariance, eigensolve, fit_pca. The contract is
// bit-identity across thread counts (the blocking never depends on the
// pool size); only the block decomposition itself reassociates sums
// relative to the plain serial kernels, within rounding.
// ---------------------------------------------------------------------------

matrix random_measurements(std::size_t t, std::size_t m, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    matrix y(t, m, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
        const double trend = std::sin(2.0 * 3.14159265 * static_cast<double>(r) / 97.0);
        for (std::size_t c = 0; c < m; ++c) {
            y(r, c) = 50.0 + 10.0 * (1.0 + 0.02 * static_cast<double>(c)) * trend + gauss(rng);
        }
    }
    return y;
}

TEST(ParallelFit, ColumnCovarianceBitIdenticalAcrossThreadCounts) {
    // 600 rows -> 3 fixed 256-row blocks (the last one ragged): the block
    // reduction must not depend on the pool size at all.
    const matrix centered = center_columns(random_measurements(600, 24, 41)).centered;
    const matrix base = parallel_centered_covariance(centered, nullptr);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        ASSERT_EQ(parallel_centered_covariance(centered, &pool), base) << "threads=" << threads;
    }
}

TEST(ParallelFit, ColumnCovarianceMatchesSerialWithinRounding) {
    // The blocked accumulation reassociates the row sum relative to
    // column_covariance; the two agree to rounding, not bit-for-bit.
    const matrix y = random_measurements(600, 24, 42);
    const matrix serial = column_covariance(y);
    const matrix blocked = parallel_centered_covariance(center_columns(y).centered, nullptr);
    double scale = 0.0;
    for (std::size_t i = 0; i < serial.rows(); ++i) scale = std::max(scale, std::abs(serial(i, i)));
    EXPECT_TRUE(approx_equal(blocked, serial, 1e-12 * scale));
}

TEST(ParallelFit, ColumnCovarianceValidation) {
    EXPECT_THROW(parallel_centered_covariance(matrix(1, 3, 0.0), nullptr), std::invalid_argument);
}

TEST(ParallelFit, CenteredCovarianceMatchesColumnCovariancePath) {
    // fit_pca feeds center_columns output straight into the blocked Gram:
    // the axes it eigensolves are exactly those of the centered
    // covariance, at every pool size, and that covariance agrees with
    // column_covariance on the raw rows to rounding.
    const matrix y = random_measurements(600, 24, 51);
    const centering_result centered = center_columns(y);
    const matrix via_centered = parallel_centered_covariance(centered.centered, nullptr);
    const sym_eigen_result eig = sym_eigen(via_centered);
    const matrix reference = column_covariance(y);
    double scale = 0.0;
    for (std::size_t i = 0; i < reference.rows(); ++i) {
        scale = std::max(scale, std::abs(reference(i, i)));
    }
    EXPECT_TRUE(approx_equal(via_centered, reference, 1e-12 * scale));
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        ASSERT_EQ(parallel_centered_covariance(centered.centered, &pool), via_centered)
            << "threads=" << threads;
        ASSERT_EQ(fit_pca_axes(y, &pool).model.principal_axes, eig.eigenvectors)
            << "threads=" << threads;
    }
}

TEST(ParallelFit, FitPcaBitIdenticalAcrossThreadCounts) {
    // 2100 x 128 crosses both sharded paths: nine covariance row blocks
    // (the last one ragged) and t * m = 268,800 >= 2^18, so the per-axis
    // projections shard too.
    const matrix y = random_measurements(2100, 128, 45);
    const pca_model serial = fit_pca(y);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const pca_model parallel = fit_pca(y, &pool);
        ASSERT_EQ(parallel.principal_axes, serial.principal_axes) << "threads=" << threads;
        ASSERT_EQ(parallel.axis_variance, serial.axis_variance) << "threads=" << threads;
        ASSERT_EQ(parallel.projections, serial.projections) << "threads=" << threads;
        ASSERT_EQ(parallel.column_means, serial.column_means) << "threads=" << threads;
    }
}

TEST(ParallelFit, SubspaceFitBitIdenticalAcrossThreadCounts) {
    const matrix y = random_measurements(500, 32, 46);
    const subspace_model serial = subspace_model::fit(y);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const subspace_model parallel = subspace_model::fit(y, {}, &pool);
        ASSERT_EQ(parallel.normal_rank(), serial.normal_rank()) << "threads=" << threads;
        ASSERT_EQ(parallel.spe_series(y), serial.spe_series(y)) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------------
// Pinned bits. The covariance's register tiles and the row-major
// tridiagonal reduction promise the same bits as the row loop and the
// column-major recurrence they replaced; these digests were recorded by
// running this test against those kernels. The inputs come from
// splitmix64 rather than <random>'s distributions, whose algorithms the
// standard leaves to each library.
// ---------------------------------------------------------------------------

// splitmix64's next value, as a double in [-1, 1).
double pinned_uniform(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
}

// t x m link loads with per-link levels and scales; every fifth link is
// constant, so its centered column is exactly zero.
matrix pinned_measurements(std::size_t t, std::size_t m, std::uint64_t seed) {
    std::uint64_t state = seed;
    matrix y(t, m, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
        for (std::size_t c = 0; c < m; ++c) {
            const double level = 1e3 * static_cast<double>(1 + c % 7);
            const double noise = pinned_uniform(state) * static_cast<double>(1 + c % 3);
            y(r, c) = c % 5 == 4 ? level : level + noise;
        }
    }
    return y;
}

// FNV-1a over the exact bits of every element.
std::uint64_t bits_digest(std::span<const double> values,
                          std::uint64_t digest = 1469598103934665603ull) {
    for (const double v : values) {
        digest ^= std::bit_cast<std::uint64_t>(v);
        digest *= 1099511628211ull;
    }
    return digest;
}

std::uint64_t bits_digest(const matrix& a, std::uint64_t digest = 1469598103934665603ull) {
    return bits_digest(std::span<const double>(a.data(), a.size()), digest);
}

TEST(PinnedBits, CenteredCovarianceSerialAndPooled) {
    struct pinned_shape {
        std::size_t m;
        std::size_t t;
        std::uint64_t digest;
    };
    constexpr pinned_shape k_pinned[] = {
        {1, 2, 0x22d8bd37d9f52c73ull},
        {1, 255, 0xf668ae0e5ee22c7cull},
        {1, 256, 0xc458d01cf98c145dull},
        {1, 257, 0xde543518d9bbc75dull},
        {1, 1008, 0xa86bdc9f714cb955ull},
        {5, 2, 0x4d123120c9539c13ull},
        {5, 255, 0x20df81eb0b1092dull},
        {5, 256, 0x2329d430781d759ull},
        {5, 257, 0xa206165cf43996c0ull},
        {5, 1008, 0xb64171bccfab2716ull},
        {9, 2, 0xb7398215a4d887bcull},
        {9, 255, 0xd51e25364e975154ull},
        {9, 256, 0xc4b1b412f95875full},
        {9, 257, 0x71c95f2622e424a2ull},
        {9, 1008, 0xc69bd89376c44987ull},
        {41, 2, 0x60f23e19e2d3533dull},
        {41, 255, 0x6a685b09b3ae4743ull},
        {41, 256, 0xae1f453b338a6ebcull},
        {41, 257, 0xc4581ef2da71253ull},
        {41, 1008, 0x20630e884f857b4cull},
        {156, 2, 0x9398143efec06f38ull},
        {156, 255, 0xba7f4a118fc38ddull},
        {156, 256, 0xe38c6f35641d04adull},
        {156, 257, 0x8c0ceec6483e670dull},
        {156, 1008, 0x7a36ccc949e2b769ull},
        {257, 2, 0xf492a4be65174545ull},
        {257, 255, 0xe95f36690f795a21ull},
        {257, 256, 0xee07f1521beb1bd2ull},
        {257, 257, 0xcbb768fb18eb3d2bull},
        {257, 1008, 0x1d38d6d1622fd5f1ull},
    };
    thread_pool pool(3);
    for (const pinned_shape& p : k_pinned) {
        const matrix centered =
            center_columns(pinned_measurements(p.t, p.m, 1000 * p.m + p.t)).centered;
        const std::uint64_t serial = bits_digest(parallel_centered_covariance(centered, nullptr));
        const std::uint64_t pooled = bits_digest(parallel_centered_covariance(centered, &pool));
        EXPECT_EQ(serial, p.digest) << "m=" << p.m << " t=" << p.t << std::hex << " 0x" << serial;
        EXPECT_EQ(pooled, p.digest) << "m=" << p.m << " t=" << p.t << std::hex << " 0x" << pooled;
    }
}

TEST(PinnedBits, SymEigenValuesAndVectors) {
    struct pinned_eigen {
        std::size_t m;
        std::uint64_t values;
        std::uint64_t vectors;
    };
    constexpr pinned_eigen k_pinned[] = {
        {41, 0x9c7c9f9fdd2b3972ull, 0x6221599164924295ull},
        {156, 0x75f938552d878ed8ull, 0xaead9171576389e7ull},
        {256, 0x9ec8b679a277515bull, 0xcb07401a85b141dcull},
    };
    for (const pinned_eigen& p : k_pinned) {
        const matrix cov = parallel_centered_covariance(
            center_columns(pinned_measurements(2 * p.m, p.m, 77 + p.m)).centered, nullptr);
        const sym_eigen_result eig = sym_eigen(cov);
        const std::uint64_t values = bits_digest(eig.eigenvalues);
        const std::uint64_t vectors = bits_digest(eig.eigenvectors);
        EXPECT_EQ(values, p.values) << "m=" << p.m << std::hex << " 0x" << values;
        EXPECT_EQ(vectors, p.vectors) << "m=" << p.m << std::hex << " 0x" << vectors;
    }
}

// ---------------------------------------------------------------------------
// Low-rank residual projection across several link blocks.
// ---------------------------------------------------------------------------

// A hand-built model with m large enough to span several 256-link blocks
// (fitting a real PCA at this dimension would dwarf the test). The first
// `rank` principal axes are Gram-Schmidt-orthonormalized pseudo-random
// vectors; the remaining columns are irrelevant to the residual.
subspace_model wide_lowrank_model(std::size_t m, std::size_t rank, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    pca_model pca;
    pca.principal_axes.assign(m, m, 0.0);
    pca.axis_variance.assign(m, 0.0);
    pca.column_means.assign(m, 0.0);
    pca.sample_count = 2;
    std::vector<vec> axes;
    for (std::size_t k = 0; k < rank; ++k) {
        vec v(m, 0.0);
        for (double& x : v) x = gauss(rng);
        for (const vec& prev : axes) axpy(-dot(prev, v), prev, v);
        const vec unit = normalized(v);
        pca.principal_axes.set_column(k, unit);
        pca.axis_variance[k] = static_cast<double>(rank - k);
        axes.push_back(unit);
    }
    return {std::move(pca), rank};
}

TEST(LowRankResidual, LinkShardedProjectionMatchesDenseProjector) {
    // m = 1536: six 256-link blocks whose partial coefficients are summed
    // in block order.
    const std::size_t m = 1536;
    const subspace_model model = wide_lowrank_model(m, 3, 49);
    std::mt19937_64 rng(50);
    std::normal_distribution<double> gauss(0.0, 1.0);
    vec x(m, 0.0);
    for (double& v : x) v = gauss(rng);

    const vec dense = multiply(model.dense_residual_projector(), x);
    const vec blocked = model.project_direction_residual(x);
    ASSERT_EQ(blocked.size(), dense.size());
    for (std::size_t i = 0; i < m; i += 53) {
        EXPECT_NEAR(blocked[i], dense[i], 1e-9) << "link " << i;
    }
}

TEST_F(BatchParityFixture, RocMatchesSerialBitForBit) {
    std::vector<true_anomaly> truths;
    for (const anomaly_event& ev : ds_->injected) {
        truths.push_back({ev.flow, ev.t, ev.amplitude_bytes});
    }
    const std::vector<double> sweep{0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999};
    const auto serial = compute_roc(diagnoser_->model(), ds_->link_loads, truths, sweep);
    for (std::size_t threads : k_thread_counts) {
        thread_pool pool(threads);
        const auto batch = compute_roc(diagnoser_->model(), ds_->link_loads, truths, sweep, &pool);
        ASSERT_EQ(batch.size(), serial.size()) << "threads=" << threads;
        for (std::size_t k = 0; k < serial.size(); ++k) {
            ASSERT_EQ(batch[k].confidence, serial[k].confidence);
            ASSERT_EQ(batch[k].threshold, serial[k].threshold);
            ASSERT_EQ(batch[k].detection_rate, serial[k].detection_rate);
            ASSERT_EQ(batch[k].false_alarm_rate, serial[k].false_alarm_rate);
        }
    }
}

}  // namespace
}  // namespace netdiag
