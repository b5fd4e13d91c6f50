#include "probe.h"

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/clock.h"

namespace servebench {

std::uint64_t now_ns() noexcept { return netdiag::monotone_now_ns(); }

namespace {

// A dependent chain of multiply-adds: latency-bound, so it measures the
// core's speed, not its memory system. volatile keeps it from folding.
double fixed_work() {
    volatile double seed = 1.0000001;
    double x = seed;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
        x = x * 1.0000000001 + 1e-12;
        acc += x;
    }
    return acc;
}

}  // namespace

host_probe probe_host(int cpu) {
    std::vector<double> ms;
    std::thread worker([&] {
        if (cpu >= 0) pin_current_thread({cpu});
        for (int i = 0; i < 5; ++i) {
            const std::uint64_t t0 = now_ns();
            volatile double sink = fixed_work();
            (void)sink;
            ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        }
    });
    worker.join();
    std::sort(ms.begin(), ms.end());
    return {ms[ms.size() / 2], ms.front()};
}

std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    return out;
}

bool pin_thread(int tid, const std::vector<int>& cpus) {
    if (cpus.empty()) return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    return sched_setaffinity(tid, sizeof set, &set) == 0;
}

bool pin_current_thread(const std::vector<int>& cpus) { return pin_thread(0, cpus); }

std::vector<int> thread_ids() {
    std::vector<int> out;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
        out.push_back(std::stoi(entry.path().filename().string()));
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool reset_peak_rss() {
    std::ofstream f("/proc/self/clear_refs");
    if (!f) return false;
    f << "5";
    f.flush();
    return static_cast<bool>(f);
}

double peak_rss_mib() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream in(line.substr(6));
            double kib = 0.0;
            in >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

}  // namespace servebench
