// Monotone clock shim for latency instrumentation outside engine/.
//
// netdiag-lint (tools/netdiag_lint.cpp, rule R1) forbids clock calls in
// src/ outside src/engine/, so the serving layer cannot read
// std::chrono::steady_clock directly. This header is the sanctioned
// funnel: monotone_now_ns() returns a monotonically non-decreasing
// nanosecond tick with an arbitrary epoch -- good for intervals, useless
// as wall time, which is exactly the point.
//
// The tick source is injectable so tests can feed a deterministic clock
// (fixed increments per call) and assert exact latency values instead of
// racing the scheduler. Injection is process-global and meant for
// single-threaded test setup.
#pragma once

#include <cstdint>

namespace netdiag {

// Signature of a replacement tick source: returns nanoseconds on a
// monotone axis. Must be safe to call from any thread.
using tick_source_fn = std::uint64_t (*)();

// Nanoseconds from the current tick source (std::chrono::steady_clock by
// default, or whatever set_tick_source installed).
std::uint64_t monotone_now_ns() noexcept;

// Installs `fn` as the process-wide tick source and returns the previous
// override (nullptr when the default steady_clock source was active).
// Passing nullptr restores the default.
tick_source_fn set_tick_source(tick_source_fn fn) noexcept;

// RAII injection for tests: installs `fn` on construction and restores
// the previous source on destruction, so a failing test cannot leak a
// fake clock into the rest of the process.
class scoped_tick_source {
public:
    explicit scoped_tick_source(tick_source_fn fn) noexcept
        : previous_(set_tick_source(fn)) {}
    ~scoped_tick_source() { set_tick_source(previous_); }

    scoped_tick_source(const scoped_tick_source&) = delete;
    scoped_tick_source& operator=(const scoped_tick_source&) = delete;

private:
    tick_source_fn previous_;
};

}  // namespace netdiag
