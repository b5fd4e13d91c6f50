// Spans recorded by the benchmark around its own calls into each layer.
// Every span has a name (layer.call), a start and end on the monotone
// clock, the index of the span that caused it (or none) and a request id
// (stream index and sequence). Spans are appended to a per-thread log
// kept in memory and written out once the run has finished.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace servebench {

inline constexpr std::uint32_t k_no_parent = 0xFFFFFFFFu;

struct span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = k_no_parent;  // index in the same log
    // stream_index << 40 | sequence; on bench.interval and serve.sink_wait
    // spans, producer_index << 40 | interval number.
    std::uint64_t request = 0;

    std::uint64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

inline std::uint64_t request_id(std::size_t stream_index, std::uint64_t sequence) {
    return (static_cast<std::uint64_t>(stream_index) << 40) | (sequence & ((1ull << 40) - 1));
}

// One thread's spans. Not thread-safe: each producer owns one.
class span_log {
public:
    std::uint32_t open(const char* name, std::uint32_t parent, std::uint64_t request,
                       std::uint64_t start_ns);
    void close(std::uint32_t index, std::uint64_t end_ns) { spans_[index].end_ns = end_ns; }

    const std::vector<span>& spans() const noexcept { return spans_; }
    std::vector<span>& spans() noexcept { return spans_; }
    void reserve(std::size_t n) { spans_.reserve(n); }

private:
    std::vector<span> spans_;
};

// Self time of spans[index]: its duration minus the part of it covered
// by the union of its children's intervals (clipped to the span), so
// overlapping children are not subtracted twice.
std::uint64_t self_time_ns(const std::vector<span>& spans, std::uint32_t index,
                           const std::vector<std::vector<std::uint32_t>>& children);

// children[i] lists the direct children of span i.
std::vector<std::vector<std::uint32_t>> child_index(const std::vector<span>& spans);

// Sum-to-makespan check. The makespan is measured apart from the spans:
// from the interval's first send to the latest delivery its sink stamped.
// The self times of the interval's spans (root and every descendant) must
// add up to it within max(k_makespan_abs_tol_ns, k_makespan_rel_tol *
// makespan). The spans run past the last delivery by the rest of the
// call that delivered it (on the wire, its response leg) and the
// producer's noticing; they fall short of it when an interval is closed
// before its last verdict arrives, e.g. when its ingest calls return.
inline constexpr std::uint64_t k_makespan_abs_tol_ns = 25'000;
inline constexpr double k_makespan_rel_tol = 0.05;

struct makespan_check {
    std::uint64_t self_sum_ns = 0;
    std::uint64_t makespan_ns = 0;
    bool ok = false;

    double excess_ns() const noexcept {
        return static_cast<double>(self_sum_ns) - static_cast<double>(makespan_ns);
    }
};
makespan_check check_makespan(const std::vector<span>& spans, std::uint32_t root,
                              const std::vector<std::vector<std::uint32_t>>& children,
                              std::uint64_t makespan_ns);

// A traced phase passes when at least this share of its intervals is
// within tolerance: a vCPU preempted between a delivery and the
// producer's noticing it puts single intervals outside, while an interval
// that ends at the wrong point puts every interval outside.
inline constexpr double k_makespan_min_within = 0.95;
bool makespans_hold(std::size_t checked, std::size_t outside);

// Writes spans as CSV (log,index,name,start_ns,end_ns,parent,stream,sequence),
// at most `limit` rows in total; returns the rows written.
std::size_t write_spans_csv(std::ostream& out, const std::vector<const span_log*>& logs,
                            std::size_t limit);

}  // namespace servebench
