// Spin-then-sleep backoff for protocol waits (role hand-offs, ring
// publication races). Lives in engine/ because it is the one place the
// serving layers are allowed to touch std::this_thread: netdiag-lint
// (tools/netdiag_lint.cpp) forbids thread primitives and clock calls in
// src/ outside engine/, so every "wait a moment and retry" loop funnels
// through here instead of open-coding a yield or sleep.
//
// The shape: cheap yields first (the common hand-off latency is a few
// scheduler quanta), then millisecond sleeps, so a waiter parked behind a
// long operation -- e.g. a drainer waiting at a refit swap boundary for a
// full model fit -- does not burn a core for the duration.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>

#include "engine/tuning.h"

namespace netdiag {

// Call with an iteration counter that starts at 0 and increments per
// retry; reset it whenever the awaited condition makes progress. The
// yield count and sleep duration are tuning knobs (`role_wait_spin_yields`
// and `role_wait_sleep_us`, see docs/TUNING.md) so bench_autotune can
// sweep them alongside the drainer knobs; both are pure
// scheduling -- they move latency, never results.
inline void spin_then_sleep_backoff(std::size_t spin) {
    if (spin < global_tuning().role_wait_spin_yields) {
        std::this_thread::yield();
    } else {
        std::this_thread::sleep_for(
            std::chrono::microseconds(global_tuning().role_wait_sleep_us));
    }
}

}  // namespace netdiag
