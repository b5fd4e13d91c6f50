// Host diagnostics: a fixed-work probe that shows whether the vCPU a run
// got was slow, and the process's resident-set high-water mark.
#pragma once

#include <cstdint>
#include <vector>

namespace servebench {

// Nanoseconds on the library's monotone clock (engine/clock.h).
std::uint64_t now_ns() noexcept;

// Median and minimum wall time, in ms, of 5 runs of a fixed
// floating-point loop, timed on a fresh thread pinned to `cpu` (a
// producer's CPU; any CPU when negative).
struct host_probe {
    double median_ms = 0.0;
    double min_ms = 0.0;
};
host_probe probe_host(int cpu);

// CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();

// Restricts the calling thread to `cpus` (and, through inheritance, every
// thread it creates afterwards). Returns false when the kernel refuses.
bool pin_current_thread(const std::vector<int>& cpus);

// Ids of this process's threads (/proc/self/task), ascending.
std::vector<int> thread_ids();

// Restricts thread `tid` of this process to `cpus`.
bool pin_thread(int tid, const std::vector<int>& cpus);

// Resets the kernel's VmHWM for this process (/proc/self/clear_refs,
// value 5). Returns false when the kernel refuses.
bool reset_peak_rss();

// VmHWM in MiB, or 0 when /proc/self/status has no such line.
double peak_rss_mib();

}  // namespace servebench
