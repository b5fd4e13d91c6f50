// Microbenchmarks for the computational claims of Section 7.1 -- a full
// PCA of a week of link data is cheap (the paper quotes under two seconds
// for 1008 x 49 in 2004), per-measurement detection and identification
// are trivial, and incremental SVD updates avoid periodic recomputation.
//
// Two parts:
//   1. Engine comparison (always built): wall-clock of the serial
//      detection sweeps vs the same calls given a thread_pool of several
//      sizes, written to BENCH_engine.json. Each of the four kernel rows
//      reports the median and interquartile range of five runs per pool
//      size.
//      Results are checked bit-identical against the serial path, so
//      this doubles as a smoke test.
//      Flags: --quick (small shapes, for CI smoke),
//             --engine-json=PATH (default BENCH_engine.json),
//             --engine-only (skip the google-benchmark suite).
//   2. The google-benchmark microbenchmark suite (compiled only when the
//      dependency is available; all remaining flags are forwarded to it).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.h"
#include "eval/injection.h"
#include "linalg/svd.h"
#include "linalg/svd_update.h"
#include "measurement/presets.h"
#include "subspace/diagnoser.h"

namespace {

using namespace netdiag;

const dataset& sprint1() {
    static const dataset ds = make_sprint1_dataset();
    return ds;
}

const volume_anomaly_diagnoser& sprint1_diagnoser() {
    static const volume_anomaly_diagnoser diag(sprint1().link_loads, sprint1().routing.a,
                                               0.999);
    return diag;
}

// ---------------------------------------------------------------------------
// Part 1: engine comparison.
// ---------------------------------------------------------------------------

double elapsed_ms(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

// Runs per kernel-row timing: enough for a median and an interquartile
// range, so a row can back a claim against its own spread.
constexpr int k_kernel_runs = 5;

// Median and interquartile range of k_kernel_runs wall-clock runs.
struct run_spread {
    double median_ms = 0.0;
    double iqr_ms = 0.0;
};

// Quantile q of sorted values, interpolating linearly between order
// statistics (the (n - 1) q position).
double quantile(const std::vector<double>& sorted, double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

template <typename Fn>
run_spread time_runs_ms(Fn&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < k_kernel_runs; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        ms.push_back(elapsed_ms(start));
    }
    std::sort(ms.begin(), ms.end());
    return {quantile(ms, 0.5), quantile(ms, 0.75) - quantile(ms, 0.25)};
}

// Every row times k_kernel_runs runs: ms fields are medians, with their
// interquartile ranges.
struct thread_timing {
    std::size_t threads = 0;
    double ms = 0.0;
    double iqr_ms = 0.0;
};

struct engine_benchmark {
    std::string name;
    std::size_t items = 0;  // rows or (flow, t) cells swept per run
    double serial_ms = 0.0;
    double serial_iqr_ms = 0.0;
    std::vector<thread_timing> parallel;
    bool identical_to_serial = false;
};

// Tiles the 1008 x 49 week vertically so the sweep has enough rows to
// amortize sharding overhead.
matrix tile_rows(const matrix& y, std::size_t times) {
    matrix out(y.rows() * times, y.cols());
    for (std::size_t rep = 0; rep < times; ++rep) {
        for (std::size_t r = 0; r < y.rows(); ++r) {
            out.set_row(rep * y.rows() + r, y.row(r));
        }
    }
    return out;
}

bool same_results(const std::vector<detection_result>& a,
                  const std::vector<detection_result>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].anomalous != b[i].anomalous || a[i].spe != b[i].spe ||
            a[i].threshold != b[i].threshold) {
            return false;
        }
    }
    return true;
}

bool same_results(const injection_summary& a, const injection_summary& b) {
    return a.detection_rate == b.detection_rate &&
           a.identification_rate == b.identification_rate &&
           a.quantification_error == b.quantification_error &&
           a.detection_rate_by_flow == b.detection_rate_by_flow &&
           a.detection_rate_by_time == b.detection_rate_by_time;
}

// Synthetic wide measurement matrix for the fit benchmark: the 1008 x 49
// paper shape is too small to show fit-side scaling, so the fit sweep uses
// a larger network (more links) with the same diurnal-plus-noise texture.
matrix synthetic_measurements(std::size_t t, std::size_t m) {
    std::mt19937_64 rng(4242);
    std::normal_distribution<double> gauss(0.0, 1.0);
    matrix y(t, m, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
        const double diurnal = std::sin(2.0 * 3.14159265 * static_cast<double>(r) / 144.0);
        for (std::size_t c = 0; c < m; ++c) {
            const double w = 1.0 + 0.01 * static_cast<double>(c % 37);
            y(r, c) = 1e6 * (5.0 + 2.0 * w * diurnal) + 1e4 * gauss(rng);
        }
    }
    return y;
}

// Records a kernel row's serial spread.
void set_serial(engine_benchmark& out, run_spread spread) {
    out.serial_ms = spread.median_ms;
    out.serial_iqr_ms = spread.iqr_ms;
}

thread_timing pool_timing(std::size_t threads, run_spread spread) {
    thread_timing timing;
    timing.threads = threads;
    timing.ms = spread.median_ms;
    timing.iqr_ms = spread.iqr_ms;
    return timing;
}

bool same_pca(const pca_model& a, const pca_model& b) {
    return a.principal_axes == b.principal_axes && a.axis_variance == b.axis_variance &&
           a.projections == b.projections && a.column_means == b.column_means;
}

// PCA fit through the parallel fit path: the covariance blocks and the
// per-axis projections shard, the eigensolve runs serially. Bit-identical
// across thread counts by construction.
engine_benchmark run_fit_sweep(const std::vector<std::size_t>& thread_counts, bool quick) {
    const matrix y = synthetic_measurements(quick ? 400 : 2400, quick ? 96 : 256);

    engine_benchmark out;
    out.name = "pca_fit";
    out.items = y.rows() * y.cols();

    const pca_model serial = fit_pca(y);
    set_serial(out, time_runs_ms([&] { fit_pca(y); }));

    out.identical_to_serial = true;
    for (std::size_t t : thread_counts) {
        thread_pool pool(t);
        out.identical_to_serial = out.identical_to_serial && same_pca(serial, fit_pca(y, &pool));
        out.parallel.push_back(pool_timing(t, time_runs_ms([&] { fit_pca(y, &pool); })));
    }
    return out;
}

// Low-rank residual projection over every timestep (the per-measurement
// hot path), row-sharded across the pool.
engine_benchmark run_spe_series_sweep(const std::vector<std::size_t>& thread_counts,
                                      bool quick) {
    const subspace_model& model = sprint1_diagnoser().model();
    const matrix big_y = tile_rows(sprint1().link_loads, quick ? 2 : 16);

    engine_benchmark out;
    out.name = "spe_series_lowrank";
    out.items = big_y.rows();

    const vec serial = model.spe_series(big_y);
    set_serial(out, time_runs_ms([&] { model.spe_series(big_y); }));

    out.identical_to_serial = true;
    for (std::size_t t : thread_counts) {
        thread_pool pool(t);
        out.identical_to_serial =
            out.identical_to_serial && serial == model.spe_series(big_y, &pool);
        out.parallel.push_back(
            pool_timing(t, time_runs_ms([&] { model.spe_series(big_y, &pool); })));
    }
    return out;
}

engine_benchmark run_spe_sweep(const std::vector<std::size_t>& thread_counts, bool quick) {
    const auto& diag = sprint1_diagnoser();
    const matrix big_y = tile_rows(sprint1().link_loads, quick ? 2 : 16);

    engine_benchmark out;
    out.name = "spe_sweep_test_all";
    out.items = big_y.rows();

    const auto serial = diag.detector().test_all(big_y);
    set_serial(out, time_runs_ms([&] { diag.detector().test_all(big_y); }));

    out.identical_to_serial = true;
    for (std::size_t t : thread_counts) {
        thread_pool pool(t);
        out.identical_to_serial =
            out.identical_to_serial && same_results(serial, diag.detector().test_all(big_y, &pool));
        out.parallel.push_back(
            pool_timing(t, time_runs_ms([&] { diag.detector().test_all(big_y, &pool); })));
    }
    return out;
}

engine_benchmark run_injection_sweep(const std::vector<std::size_t>& thread_counts,
                                     bool quick) {
    const dataset& ds = sprint1();
    const auto& diag = sprint1_diagnoser();
    injection_config cfg;
    cfg.spike_bytes = 3.0e7;
    cfg.t_begin = 300;
    cfg.t_end = quick ? 303 : 312;

    engine_benchmark out;
    out.name = "injection_sweep";
    out.items = ds.routing.flow_count() * (cfg.t_end - cfg.t_begin);

    const injection_summary serial = run_injection_experiment(ds, diag, cfg);
    set_serial(out, time_runs_ms([&] { run_injection_experiment(ds, diag, cfg); }));

    out.identical_to_serial = true;
    for (std::size_t t : thread_counts) {
        thread_pool pool(t);
        const injection_summary pooled = run_injection_experiment(ds, diag, cfg, &pool);
        out.identical_to_serial = out.identical_to_serial && same_results(serial, pooled);
        out.parallel.push_back(
            pool_timing(t, time_runs_ms([&] { run_injection_experiment(ds, diag, cfg, &pool); })));
    }
    return out;
}

bool write_engine_json(const std::string& path, const std::vector<engine_benchmark>& benches,
                       bool quick) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_perf_micro: cannot open %s for writing\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const engine_benchmark& eb = benches[b];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", eb.name.c_str());
        std::fprintf(f, "      \"items\": %zu,\n", eb.items);
        std::fprintf(f, "      \"runs\": %d,\n", k_kernel_runs);
        std::fprintf(f, "      \"serial_ms\": %.6f,\n", eb.serial_ms);
        std::fprintf(f, "      \"serial_iqr_ms\": %.6f,\n", eb.serial_iqr_ms);
        std::fprintf(f, "      \"identical_to_serial\": %s,\n",
                     eb.identical_to_serial ? "true" : "false");
        std::fprintf(f, "      \"parallel\": [\n");
        for (std::size_t p = 0; p < eb.parallel.size(); ++p) {
            const thread_timing& tt = eb.parallel[p];
            const double speedup = tt.ms > 0.0 ? eb.serial_ms / tt.ms : 0.0;
            // More threads than cores time-slices the pool: its speedup
            // is scheduling noise, not a measurement.
            std::fprintf(f,
                         "        {\"threads\": %zu, \"ms\": %.6f, \"speedup\": %.3f, "
                         "\"measured\": %s, \"iqr_ms\": %.6f}%s\n",
                         tt.threads, tt.ms, speedup,
                         tt.threads > std::thread::hardware_concurrency() ? "false" : "true",
                         tt.iqr_ms, p + 1 < eb.parallel.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n");
        std::fprintf(f, "    }%s\n", b + 1 < benches.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

// Returns false when any parallel result diverged from the serial path
// or the JSON report could not be written.
bool run_engine_comparison(const std::string& json_path, bool quick) {
    const std::vector<std::size_t> thread_counts{1, 2, 4, 8};

    std::printf("Engine comparison: serial sweeps vs pooled sweeps "
                "(hardware threads: %u)\n\n",
                std::thread::hardware_concurrency());
    const std::size_t max_threads =
        *std::max_element(thread_counts.begin(), thread_counts.end());
    if (std::thread::hardware_concurrency() < max_threads) {
        std::printf("note: only %u hardware thread(s) available; parallel timings "
                    "measure dispatch overhead, not scaling — bit-identity is the "
                    "meaningful signal on this machine.\n\n",
                    std::thread::hardware_concurrency());
    }

    std::vector<engine_benchmark> benches;
    benches.push_back(run_fit_sweep(thread_counts, quick));
    benches.push_back(run_spe_series_sweep(thread_counts, quick));
    benches.push_back(run_spe_sweep(thread_counts, quick));
    benches.push_back(run_injection_sweep(thread_counts, quick));

    bool all_identical = true;
    for (const engine_benchmark& eb : benches) {
        std::printf("%-22s %zu items, serial %.3f ms, results %s\n", eb.name.c_str(), eb.items,
                    eb.serial_ms, eb.identical_to_serial ? "bit-identical" : "DIVERGED");
        std::printf("    median of %d runs; serial IQR %.3f ms\n", k_kernel_runs,
                    eb.serial_iqr_ms);
        for (const thread_timing& tt : eb.parallel) {
            std::printf("    %zu thread%s: %.3f ms (%.2fx), IQR %.3f ms\n", tt.threads,
                        tt.threads == 1 ? " " : "s", tt.ms,
                        tt.ms > 0.0 ? eb.serial_ms / tt.ms : 0.0, tt.iqr_ms);
        }
        all_identical = all_identical && eb.identical_to_serial;
    }

    if (!write_engine_json(json_path, benches, quick)) return false;
    std::printf("\nWrote %s\n\n", json_path.c_str());
    return all_identical;
}

}  // namespace

// ---------------------------------------------------------------------------
// Part 2: google-benchmark suite (only when the dependency is present).
// ---------------------------------------------------------------------------
#if NETDIAG_HAVE_GOOGLE_BENCHMARK

#include <benchmark/benchmark.h>

namespace {

void bm_svd_week_of_links(benchmark::State& state) {
    const matrix& y = sprint1().link_loads;  // 1008 x 49, the paper's shape
    for (auto _ : state) {
        benchmark::DoNotOptimize(svd(y));
    }
}
BENCHMARK(bm_svd_week_of_links)->Unit(benchmark::kMillisecond);

void bm_fit_pca(benchmark::State& state) {
    const matrix& y = sprint1().link_loads;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fit_pca(y));
    }
}
BENCHMARK(bm_fit_pca)->Unit(benchmark::kMillisecond);

void bm_fit_full_diagnoser(benchmark::State& state) {
    const dataset& ds = sprint1();
    for (auto _ : state) {
        volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);
        benchmark::DoNotOptimize(&diag);
    }
}
BENCHMARK(bm_fit_full_diagnoser)->Unit(benchmark::kMillisecond);

void bm_spe_single_measurement(benchmark::State& state) {
    const auto& diag = sprint1_diagnoser();
    const auto row = sprint1().link_loads.row(500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(diag.model().spe(row));
    }
}
BENCHMARK(bm_spe_single_measurement);

void bm_diagnose_single_measurement(benchmark::State& state) {
    const auto& diag = sprint1_diagnoser();
    // An anomalous measurement, so identification actually runs.
    vec y(sprint1().link_loads.row(500).begin(), sprint1().link_loads.row(500).end());
    axpy(1e8, sprint1().routing.a.column(40), y);
    for (auto _ : state) {
        benchmark::DoNotOptimize(diag.diagnose(y));
    }
}
BENCHMARK(bm_diagnose_single_measurement);

void bm_incremental_svd_row_update(benchmark::State& state) {
    const matrix& y = sprint1().link_loads;
    right_svd base = right_svd_of(y);
    const vec row(y.row(100).begin(), y.row(100).end());
    for (auto _ : state) {
        benchmark::DoNotOptimize(append_row(base, row, 10));
    }
}
BENCHMARK(bm_incremental_svd_row_update);

void bm_injection_sweep_one_hour(benchmark::State& state) {
    const dataset& ds = sprint1();
    const auto& diag = sprint1_diagnoser();
    injection_config cfg;
    cfg.spike_bytes = 3.0e7;
    cfg.t_begin = 300;
    cfg.t_end = 306;  // 169 flows x 6 timesteps per iteration
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_injection_experiment(ds, diag, cfg));
    }
}
BENCHMARK(bm_injection_sweep_one_hour)->Unit(benchmark::kMillisecond);

void bm_pooled_injection_sweep_one_hour(benchmark::State& state) {
    const dataset& ds = sprint1();
    const auto& diag = sprint1_diagnoser();
    thread_pool pool;
    injection_config cfg;
    cfg.spike_bytes = 3.0e7;
    cfg.t_begin = 300;
    cfg.t_end = 306;
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_injection_experiment(ds, diag, cfg, &pool));
    }
}
BENCHMARK(bm_pooled_injection_sweep_one_hour)->Unit(benchmark::kMillisecond);

}  // namespace

#endif  // NETDIAG_HAVE_GOOGLE_BENCHMARK

int main(int argc, char** argv) {
    bool quick = false;
    bool engine_only = false;
    std::string json_path = "BENCH_engine.json";

    std::vector<char*> forwarded;
    forwarded.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--engine-only") == 0) {
            engine_only = true;
        } else if (std::strncmp(argv[i], "--engine-json=", 14) == 0) {
            json_path = argv[i] + 14;
        } else {
            forwarded.push_back(argv[i]);
        }
    }

    if (!run_engine_comparison(json_path, quick)) {
        std::fprintf(stderr, "bench_perf_micro: engine comparison failed\n");
        return 1;
    }
    if (quick || engine_only) {
        // The google-benchmark suite is skipped, so nothing will consume
        // forwarded flags; reject them instead of ignoring typos.
        if (forwarded.size() > 1) {
            std::fprintf(stderr, "bench_perf_micro: unrecognized flag %s\n", forwarded[1]);
            return 1;
        }
        return 0;
    }

#if NETDIAG_HAVE_GOOGLE_BENCHMARK
    int forwarded_argc = static_cast<int>(forwarded.size());
    benchmark::Initialize(&forwarded_argc, forwarded.data());
    if (benchmark::ReportUnrecognizedArguments(forwarded_argc, forwarded.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
#else
    if (forwarded.size() > 1) {
        std::fprintf(stderr, "bench_perf_micro: unrecognized flag %s\n", forwarded[1]);
        return 1;
    }
    std::printf("google-benchmark not available at build time; microbenchmark suite skipped.\n");
#endif
    return 0;
}
