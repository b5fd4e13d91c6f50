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

namespace netdiag {

// Retries that yield before the waiter starts sleeping, and the length of
// each sleep after that. Pure scheduling: they move latency, never results
// (docs/ARCHITECTURE.md, "Fixed scheduling constants").
inline constexpr std::size_t k_role_wait_spin_yields = 64;
inline constexpr std::chrono::microseconds k_role_wait_sleep_us{1000};

// Call with an iteration counter that starts at 0 and increments per
// retry; reset it whenever the awaited condition makes progress.
inline void spin_then_sleep_backoff(std::size_t spin) {
    if (spin < k_role_wait_spin_yields) {
        std::this_thread::yield();
    } else {
        std::this_thread::sleep_for(k_role_wait_sleep_us);
    }
}

}  // namespace netdiag
