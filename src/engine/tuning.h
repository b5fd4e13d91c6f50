// Central knobs for the parallel kernels: block widths and the work/size
// gates below which a kernel ignores its thread_pool.
//
// docs/TUNING.md is the authoritative catalog: per-knob rationale, which
// kernel each knob gates, its contract class (numerical contract vs pure
// scheduling), and the autotune workflow all live there — the comments
// here are deliberately one-line pointers so header and docs cannot
// drift apart.
//
// Two contract classes (see docs/TUNING.md#contract-classes):
//  * block widths are part of the numerical contract — the fixed block
//    layout depends on the problem shape only, never the thread count, so
//    results are bit-identical across pool sizes; changing a width moves
//    results within rounding, like recompiling with a different constant.
//  * gates and scheduling knobs never affect results.
//
// The singleton is plain mutable state with no locking: set it up before
// spawning work, as benchmark sweeps and tests do.
#pragma once

#include <cstddef>

namespace netdiag {

struct tuning {
    // --- subspace/model.cpp: low-rank residual projection ---------------
    std::size_t link_block = 256;               // block width (numerical contract)
    std::size_t parallel_min_links = 1024;      // m gate (scheduling)
    std::size_t spe_series_min_work = 1u << 15; // rows*m*rank gate (scheduling)

    // --- subspace/pca.cpp: offline fit_pca all-axes projections ----------
    std::size_t pca_projection_min_work = 1u << 18;  // t*m gate (scheduling)

    // --- linalg/ops.cpp: blocked covariance Gram -------------------------
    std::size_t covariance_row_block_min = 256;  // min rows/block (numerical contract)
    std::size_t covariance_max_blocks = 64;      // partial-buffer cap (numerical contract)

    // --- linalg/eigen_sym.cpp: symmetric eigensolvers --------------------
    std::size_t ql_parallel_min_work = 1u << 17;   // rotations*rows gate (scheduling)
    std::size_t jacobi_parallel_min_dim = 2048;    // dimension gate (scheduling)

    // --- linalg/svd.cpp: one-sided Jacobi SVD ----------------------------
    std::size_t svd_row_block = 512;               // moment block width (numerical contract)
    std::size_t svd_parallel_min_rows = 8192;      // row-count gate (scheduling)

    // --- linalg/svd_update.cpp: rank-1 row update ------------------------
    std::size_t svd_update_parallel_min_work = 1u << 15;  // m*k gate (scheduling)

    // --- engine/thread_pool.h consumers: host concurrency floor ----------
    // Pool ignored by the compute kernels when the host has fewer hardware
    // threads than this (scheduling; see parallel_hardware_ok()).
    std::size_t parallel_min_hardware = 2;

    bool operator==(const tuning&) const = default;
};

// The process-wide tuning block. Defaults match the previously hardcoded
// constants; mutate before launching parallel work (test/bench seam).
tuning& global_tuning() noexcept;

// True when the host passes the parallel_min_hardware floor: compute
// kernels consult this before engaging a pool, so a core-starved host
// (e.g. a 1-hardware-thread CI container) never pays dispatch overhead
// for parallelism it cannot execute. Pure scheduling: pooled results are
// bit-identical either way by the fixed-block contract.
bool parallel_hardware_ok() noexcept;

// RAII override: snapshots global_tuning() on construction and restores
// it on destruction, so a test or bench sweep that mutates the knobs
// cannot leak altered numerics into the rest of the process when it
// fails or throws mid-way.
class scoped_tuning {
public:
    scoped_tuning() : saved_(global_tuning()) {}
    ~scoped_tuning() { global_tuning() = saved_; }
    scoped_tuning(const scoped_tuning&) = delete;
    scoped_tuning& operator=(const scoped_tuning&) = delete;

private:
    tuning saved_;
};

}  // namespace netdiag
