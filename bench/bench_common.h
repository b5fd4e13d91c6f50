// Shared helpers for the reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "engine/thread_pool.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "measurement/presets.h"
#include "subspace/diagnoser.h"

namespace netdiag::bench {

// Golden-output digest for the replay harness: every figure bench feeds
// its key numeric results into one of these and prints a single canonical
// line, which scripts/check_bench_digests.sh diffs against the checked-in
// bench/golden_digests.txt so silent numeric drift fails CI.
//
// Values are canonicalized to 6 significant digits before hashing: enough
// precision that any real regression moves the digest, coarse enough that
// last-ulp libm differences between toolchains do not. The engine sweeps
// feeding these numbers are bit-identical across thread counts, so the
// digest is machine-parallelism-independent by construction.
class output_digest {
public:
    explicit output_digest(std::string name) : name_(std::move(name)) {}

    void add(const char* label, double value) {
        feed(label);
        char text[40];
        std::snprintf(text, sizeof text, "%.6g", value);
        feed(text);
    }

    void add(const char* label, std::size_t value) {
        feed(label);
        char text[24];
        std::snprintf(text, sizeof text, "%zu", value);
        feed(text);
    }

    void add(const char* label, bool value) { add(label, static_cast<std::size_t>(value)); }

    void add(const char* label, std::span<const double> values) {
        add(label, values.size());
        for (double v : values) add(label, v);
    }

    // The line the golden diff greps for.
    void print() const { std::printf("DIGEST %s %016llx\n", name_.c_str(), hash_); }

private:
    void feed(const char* text) {
        // FNV-1a over the token bytes plus a separator.
        for (const char* p = text; *p != '\0'; ++p) {
            hash_ ^= static_cast<unsigned char>(*p);
            hash_ *= 1099511628211ull;
        }
        hash_ ^= static_cast<unsigned char>('\n');
        hash_ *= 1099511628211ull;
    }

    std::string name_;
    unsigned long long hash_ = 1469598103934665603ull;
};

// Shared thread pool for the bench binaries' sweeps, sized to the
// hardware.
inline thread_pool* pool() {
    static thread_pool p;
    return &p;
}

// The paper's per-dataset anomaly size cutoffs (Section 6.2): anomalies
// larger than these "stand out to the left of the knee".
inline constexpr double k_sprint_cutoff_bytes = 2.0e7;
inline constexpr double k_abilene_cutoff_bytes = 8.0e7;

inline double cutoff_for(const dataset& ds) {
    return ds.name == "Abilene" ? k_abilene_cutoff_bytes : k_sprint_cutoff_bytes;
}

// The paper's injection sizes (Section 6.3).
inline constexpr double k_sprint_large_injection = 3.0e7;
inline constexpr double k_sprint_small_injection = 1.5e7;
inline constexpr double k_abilene_large_injection = 1.2e8;
inline constexpr double k_abilene_small_injection = 5.0e7;

inline void print_header(const std::string& title, const std::string& paper_ref) {
    std::printf("=============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("=============================================================\n\n");
}

}  // namespace netdiag::bench
