#include "trace.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace servebench {

namespace {

// The spans of the subtree rooted at `root` (root first).
std::vector<std::uint32_t> subtree(std::uint32_t root,
                                   const std::vector<std::vector<std::uint32_t>>& children) {
    std::vector<std::uint32_t> out{root};
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (const std::uint32_t c : children[out[i]]) out.push_back(c);
    }
    return out;
}

}  // namespace

std::uint32_t span_log::open(const char* name, std::uint32_t parent, std::uint64_t request,
                             std::uint64_t start_ns) {
    spans_.push_back(span{name, start_ns, start_ns, parent, request});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<std::vector<std::uint32_t>> child_index(const std::vector<span>& spans) {
    std::vector<std::vector<std::uint32_t>> children(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != k_no_parent && spans[i].parent < spans.size()) {
            children[spans[i].parent].push_back(i);
        }
    }
    return children;
}

std::uint64_t self_time_ns(const std::vector<span>& spans, std::uint32_t index,
                           const std::vector<std::vector<std::uint32_t>>& children) {
    const span& s = spans[index];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (const std::uint32_t c : children[index]) {
        const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
        const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t run_start = 0;
    std::uint64_t run_end = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
        if (open && a <= run_end) {
            run_end = std::max(run_end, b);
            continue;
        }
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
    }
    if (open) covered += run_end - run_start;
    return s.duration_ns() - covered;
}

makespan_check check_makespan(const std::vector<span>& spans, std::uint32_t root,
                              const std::vector<std::vector<std::uint32_t>>& children,
                              std::uint64_t makespan_ns) {
    makespan_check r;
    r.makespan_ns = makespan_ns;
    for (const std::uint32_t i : subtree(root, children)) {
        r.self_sum_ns += self_time_ns(spans, i, children);
    }
    const std::uint64_t diff = r.self_sum_ns > makespan_ns ? r.self_sum_ns - makespan_ns
                                                           : makespan_ns - r.self_sum_ns;
    const double tol = std::max(static_cast<double>(k_makespan_abs_tol_ns),
                                k_makespan_rel_tol * static_cast<double>(makespan_ns));
    r.ok = static_cast<double>(diff) <= tol;
    return r;
}

bool makespans_hold(std::size_t checked, std::size_t outside) {
    return checked > 0 && static_cast<double>(checked - outside) >=
                              k_makespan_min_within * static_cast<double>(checked);
}

std::size_t write_spans_csv(std::ostream& out, const std::vector<const span_log*>& logs,
                            std::size_t limit) {
    out << "log,index,name,start_ns,end_ns,parent,stream,sequence\n";
    std::size_t written = 0;
    for (std::size_t l = 0; l < logs.size(); ++l) {
        const auto& spans = logs[l]->spans();
        for (std::size_t i = 0; i < spans.size() && written < limit; ++i, ++written) {
            const span& s = spans[i];
            out << l << ',' << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
                << (s.parent == k_no_parent ? -1 : static_cast<long long>(s.parent)) << ','
                << (s.request >> 40) << ',' << (s.request & ((1ull << 40) - 1)) << '\n';
        }
    }
    return written;
}

}  // namespace servebench
