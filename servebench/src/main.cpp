// servebench: one run of one serving workload.
//
//   servebench --workload <wire_fleet|wide_backbone> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (see README.md beside this directory). Either way the
// run replays the seed-chosen streams through a standalone detector and
// checks every stream's counters; a wrong verdict or a lost bin makes
// the run incorrect (and its exit code 1). The last line of standard
// output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet.h"
#include "gate.h"
#include "inputs.h"
#include "probe.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace servebench;

// Set-ups per run; setup_s is their median.
constexpr int k_setups = 11;
// An untraced run measures in k_segments segments of equal length. The
// set-ups and every segment are bracketed by host probes; one whose two
// probes differ by more than k_probe_drift ran on a host that changed
// speed, so it is discarded and run again -- at most k_reruns times in a
// run, after which the run cannot measure and exits without a result.
constexpr int k_segments = 8;
constexpr int k_reruns = 8;
constexpr double k_probe_drift = 0.15;
// Shares of --seconds in a traced run: untraced loop, traced loop, ladder.
constexpr double k_untraced_share = 0.3;
constexpr double k_traced_share = 0.3;
constexpr double k_ladder_share = 0.2;
constexpr std::size_t k_migration_probes = 8;
constexpr std::size_t k_fit_probes_per_stream = 24;
constexpr std::size_t k_trace_rows_written = 200'000;

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_dir;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

options parse(int argc, char** argv) {
    options o;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                o.workload = value;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                o.trace = value == "1";
                have_trace = true;
            } else if (arg == "--trace-dir") {
                o.trace_dir = value;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (o.workload.empty() || !have_seed || !have_trace || !(o.seconds > 0.0)) {
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    }
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
        usage("unknown workload '" + o.workload + "'");
    }
    return o;
}

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  // sample count and provenance, printed, not in the JSON
};

double p50(const std::vector<double>& v) { return v.empty() ? 0.0 : percentile(v, 0.5); }

// A tail percentile under the sample-count rule. When the sample cannot
// support q, reports the highest percentile it does support and says so.
std::pair<double, std::string> tail(const std::vector<double>& v, double q) {
    if (const auto x = supported_percentile(v, q)) {
        return {*x, "n=" + std::to_string(v.size())};
    }
    if (const auto t = highest_supported_tail(v)) {
        return {t->value, "n=" + std::to_string(v.size()) + ", too few for p" +
                              std::to_string(static_cast<int>(q * 100)) + "; p" +
                              std::to_string(static_cast<int>(t->q * 100 + 0.5)) + " shown"};
    }
    return {v.empty() ? 0.0 : percentile(v, 1.0), "n=" + std::to_string(v.size()) + ", max shown"};
}

std::string number(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

// Host probes around each measured block (see k_probe_drift).
class probe_gate {
public:
    explicit probe_gate(int cpu) : cpu_(cpu), last_ms_(probe_host(cpu).median_ms) {}

    // Probes the host after a block; true when the probe agrees with the
    // one before the block. Prints both.
    bool steady(const std::string& block) {
        const double now = probe_host(cpu_).median_ms;
        const bool ok = std::fabs(now / last_ms_ - 1.0) <= k_probe_drift;
        std::printf("# %s: host_probe %.2f -> %.2f ms%s\n", block.c_str(), last_ms_, now,
                    ok ? "" : ", discarded (host changed speed)");
        last_ms_ = now;
        if (!ok) ++discarded_;
        return ok;
    }
    // False once more than k_reruns blocks have been discarded.
    bool may_rerun() const noexcept { return discarded_ <= k_reruns; }
    int discarded() const noexcept { return discarded_; }

private:
    int cpu_;
    double last_ms_;
    int discarded_ = 0;
};

void append(phase_result& to, phase_result&& from) {
    to.wall_s += from.wall_s;
    to.verdicts += from.verdicts;
    to.interval_ms.insert(to.interval_ms.end(), from.interval_ms.begin(), from.interval_ms.end());
    to.migrate_ms.insert(to.migrate_ms.end(), from.migrate_ms.begin(), from.migrate_ms.end());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
    for (const metric& m : metrics) {
        std::printf("%-28s %14.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    }
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// The correctness replay of the seed-chosen streams, one thread each.
std::vector<replay_result> replay_all(const workload_inputs& in, const fleet_audit& audit,
                                      bool timed, std::vector<std::string>& errors) {
    std::vector<replay_result> out(in.replay.size());
    std::vector<std::string> failures(in.replay.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < in.replay.size(); ++i) {
        threads.emplace_back([&, i] {
            const std::size_t k = in.replay[i];
            try {
                out[i] = replay_stream(in.streams[k], in.spec.streaming, audit.sent[k], timed,
                                       k_fit_probes_per_stream);
            } catch (const std::exception& e) {
                failures[i] = "replay of stream " + std::to_string(k) + " threw: " + e.what();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& f : failures) {
        if (!f.empty()) errors.push_back(f);
    }
    return out;
}

// The per-layer metrics of a traced run: the loop's phases give verdict
// lag, counts and tracing overhead; the ladder gives the transport rungs
// and the migration probes; the replay gives push_bin and the fit calls.
std::vector<metric> per_layer_metrics(const workload_inputs& in, const phase_result& untraced,
                                      const phase_result& traced, const fleet_audit& audit,
                                      const std::vector<double>& bootstrap_ms,
                                      const ladder_result& l,
                                      const std::vector<replay_result>& replays) {
    std::vector<double> push_us;
    std::vector<double> diagnose_us;
    std::vector<double> refit_ms;
    std::vector<double> cov_ms;
    std::vector<double> eig_ms;
    std::vector<double> rest_ms;
    for (const replay_result& r : replays) {
        push_us.insert(push_us.end(), r.push_us.begin(), r.push_us.end());
        diagnose_us.insert(diagnose_us.end(), r.diagnose_us.begin(), r.diagnose_us.end());
        for (const fit_probe& p : r.fits) {
            refit_ms.push_back(p.refit_ms);
            cov_ms.push_back(p.covariance_ms);
            eig_ms.push_back(p.eigen_ms);
            rest_ms.push_back(p.refit_ms - p.covariance_ms - p.eigen_ms);
        }
    }
    std::vector<double> wire_ms;
    std::vector<double> inproc_ms;
    std::vector<double> detach_ms;
    std::vector<double> restore_ms;
    std::vector<double> native_ms;
    std::vector<double> record_kib;
    double crc_bytes = 0.0;
    double crc_s = 0.0;
    for (const migration_probe& m : l.migrations) {
        wire_ms.push_back(m.wire_ms);
        inproc_ms.push_back(m.detach_ms + m.restore_ms);
        detach_ms.push_back(m.detach_ms);
        restore_ms.push_back(m.restore_ms);
        native_ms.push_back(m.native_ms);
        record_kib.push_back(static_cast<double>(m.record_bytes) / 1024.0);
        crc_bytes += static_cast<double>(m.record_bytes);
        crc_s += m.crc_ms / 1e3;
    }
    const auto [rtt99, rtt99_note] = tail(l.rtt_us, 0.99);
    const auto [ing99, ing99_note] = tail(l.local_us, 0.99);
    const auto [lag99, lag99_note] = tail(traced.lag_us, 0.99);
    const auto [push99, push99_note] = tail(push_us, 0.99);
    const auto refit_tail = highest_supported_tail(refit_ms);
    const double bps_u = static_cast<double>(untraced.verdicts) / untraced.wall_s;
    const double bps_t = static_cast<double>(traced.verdicts) / traced.wall_s;
    const std::string n_ladder = "n=" + std::to_string(l.rtt_us.size()) + " ladder bins";
    const std::string n_probe = "n=" + std::to_string(l.migrations.size()) + " probes";
    const std::string n_fit = "n=" + std::to_string(refit_ms.size()) + " fits";
    std::vector<metric> metrics = {
        {"net.rtt_p50_us", p50(l.rtt_us), "us", n_ladder},
        {"net.rtt_p99_us", rtt99, "us", rtt99_note},
        {"net.self_p50_us", p50(l.rtt_us) - p50(l.local_us), "us", "rtt p50 - serve.ingest p50"},
        {"net.codec_p50_us", p50(l.codec_us), "us", n_ladder},
        {"net.bytes_per_bin", l.bytes_per_bin, "count", "request + response frame bytes"},
        {"net.crc_mib_per_s", crc_s > 0 ? crc_bytes / (1 << 20) / crc_s : 0.0, "MiB/s", n_probe},
        {"net.migrate_transfer_ms", p50(wire_ms) - p50(inproc_ms), "ms",
         "wire p50 " + number(p50(wire_ms)) + " - in-process p50 " + number(p50(inproc_ms))},
        {"serve.ingest_p50_us", p50(l.local_us), "us", n_ladder},
        {"serve.ingest_p99_us", ing99, "us", ing99_note},
        {"serve.verdict_lag_p50_us", p50(traced.lag_us), "us", "n=" + std::to_string(traced.lag_us.size())},
        {"serve.verdict_lag_p99_us", lag99, "us", lag99_note},
        {"serve.self_p50_us", p50(l.local_us) - p50(push_us), "us", "serve.ingest p50 - subspace.push p50"},
        {"serve.accepted", static_cast<double>(audit.totals.accepted), "count", "all streams"},
        {"serve.applied", static_cast<double>(audit.totals.applied), "count", "all streams"},
        {"serve.dropped", static_cast<double>(audit.totals.dropped), "count", "all streams"},
        {"serve.rejected", static_cast<double>(audit.totals.rejected), "count", "all streams"},
        {"subspace.push_p50_us", p50(push_us), "us", "n=" + std::to_string(push_us.size())},
        {"subspace.push_p99_us", push99, "us", push99_note},
        {"subspace.bootstrap_p50_ms", p50(bootstrap_ms), "ms", "n=" + std::to_string(bootstrap_ms.size()) + " open_stream calls"},
        {"subspace.refit_p50_ms", p50(refit_ms), "ms", n_fit},
        {"subspace.refit_tail_ms", refit_tail ? refit_tail->value : (refit_ms.empty() ? 0.0 : percentile(refit_ms, 1.0)), "ms",
         refit_tail ? n_fit + ", p" + std::to_string(static_cast<int>(refit_tail->q * 100 + 0.5)) : n_fit + ", max"},
        {"subspace.diagnose_p50_us", p50(diagnose_us), "us", "n=" + std::to_string(diagnose_us.size()) + " alarm bins"},
        {"subspace.swaps", static_cast<double>(audit.epochs), "count", "model epochs advanced, all streams"},
        {"subspace.alarm_ratio", audit.processed ? static_cast<double>(audit.alarms) / static_cast<double>(audit.processed) : 0.0,
         "ratio", std::to_string(audit.alarms) + " alarms in " + std::to_string(audit.processed) + " bins"},
        {"linalg.covariance_ms", p50(cov_ms), "ms", n_fit},
        {"linalg.eigen_ms", p50(eig_ms), "ms", n_fit},
        {"subspace.fit_rest_ms", p50(rest_ms), "ms", "refit - covariance - eigen, " + n_fit},
        {"measurement.detach_ms", p50(detach_ms), "ms", n_probe},
        {"measurement.restore_ms", p50(restore_ms), "ms", n_probe},
        {"measurement.native_snapshot_ms", p50(native_ms), "ms", n_probe},
        {"measurement.record_kib", p50(record_kib), "KiB", n_probe},
        {"trace.overhead_pct", (bps_u / bps_t - 1.0) * 100.0, "%",
         "untraced " + number(bps_u) + " vs traced " + number(bps_t) + " bins/s"},
    };
    const std::size_t checked = traced.excess_us.size();
    std::printf("# sum-to-makespan: %zu of %zu intervals outside max(%.0f us, %.0f%% of makespan) "
                "(at most %.0f%% may be); span self times minus makespan p50 %.2f us, p99 %.2f us; "
                "layer calls cover %.1f%% of interval time\n",
                traced.makespans_outside, checked, static_cast<double>(k_makespan_abs_tol_ns) / 1e3,
                k_makespan_rel_tol * 100, (1.0 - k_makespan_min_within) * 100,
                checked ? percentile(traced.excess_us, 0.5) : 0.0,
                checked ? percentile(traced.excess_us, 0.99) : 0.0, traced.attributed_share * 100.0);
    // Per-bin means over the ladder's bins and the replay, from which
    // the README derives each layer's share of a bin.
    std::printf("# per-bin means (us): remote_collector.ingest %.3f, stream_server.ingest %.3f, "
                "push_bin %.3f (refits inline); refit mean %.3f ms every %zu bins\n",
                mean(l.rtt_us), mean(l.local_us), mean(push_us), mean(refit_ms),
                in.spec.streaming.refit_interval);
    return metrics;
}

int run(const options& o) {
    std::printf("# servebench workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
    std::uint64_t t0 = now_ns();
    const workload_inputs in = make_inputs(o.workload, o.seed);
    std::size_t bins = 0;
    for (const auto& s : in.streams) bins += s.length;
    std::printf("# inputs: %zu streams, %zu distinct bins, digest %016llx, generated in %.2f s\n",
                in.streams.size(), bins, static_cast<unsigned long long>(in.digest),
                static_cast<double>(now_ns() - t0) / 1e9);
    std::printf("# replayed streams:");
    for (const std::size_t k : in.replay) std::printf(" %zu (%s)", k, in.streams[k].label.c_str());
    std::printf("\n");

    // Placement: producer i, and the frontend threads serving its
    // connections, on CPU i; everything else -- pool workers, accept
    // threads, this thread -- on the remaining CPUs (threads inherit the
    // mask of the thread that creates them).
    std::vector<int> producer_cpus;
    if (const std::vector<int> cpus = allowed_cpus(); cpus.size() >= 2 * k_producers) {
        const auto split = cpus.begin() + static_cast<std::ptrdiff_t>(k_producers);
        producer_cpus.assign(cpus.begin(), split);
        pin_current_thread(std::vector<int>(split, cpus.end()));
    }
    const int probe_cpu = producer_cpus.empty() ? -1 : producer_cpus.front();
    if (!reset_peak_rss()) std::printf("# warning: /proc/self/clear_refs refused; peak RSS includes input generation\n");
    probe_gate gate(probe_cpu);
    // Unmeasurable: the host kept changing speed under the run.
    auto unmeasurable = [&] {
        std::fprintf(stderr, "servebench: %d measured blocks discarded as the host changed speed; "
                             "no result\n", gate.discarded());
        return 3;
    };

    std::vector<std::string> errors;
    std::vector<double> setup_s;
    std::unique_ptr<fleet> f;
    for (;;) {
        setup_s.clear();
        for (int i = 0; i < k_setups; ++i) {
            f.reset();
            t0 = now_ns();
            f = std::make_unique<fleet>(in, in.spec.via, producer_cpus);
            const bool ok = f->first_bin();
            setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
            if (!ok) errors.push_back("setup: first bin not accepted");
        }
        if (gate.steady("set-ups")) break;
        if (!gate.may_rerun()) return unmeasurable();
    }
    std::printf("# set-ups (s):");
    for (const double x : setup_s) std::printf(" %.4f", x);
    std::printf("\n");
    f->warm_up();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    phase_result untraced;
    phase_result traced;
    double peak_rss = 0.0;
    auto count = [&](const phase_result& ph) {
        attempted += ph.attempted;
        failed += ph.failed;
        for (const auto& e : ph.errors) errors.push_back(e);
    };
    if (!o.trace) {
        // Every segment's operations count towards attempted and failed;
        // only steady segments give figures.
        for (int kept = 0; kept < k_segments;) {
            phase_result seg = f->run(o.seconds / k_segments, false);
            count(seg);
            char label[160];
            std::snprintf(label, sizeof label, "segment %d (%.0f bins/s, interval p50 %.4g ms, p99 %.4g ms)",
                          kept + 1, static_cast<double>(seg.verdicts) / seg.wall_s,
                          p50(seg.interval_ms), seg.interval_ms.empty() ? 0.0 : percentile(seg.interval_ms, 0.99));
            if (gate.steady(label)) {
                append(untraced, std::move(seg));
                ++kept;
            } else if (!gate.may_rerun()) {
                return unmeasurable();
            }
        }
        peak_rss = peak_rss_mib();
    } else {
        untraced = f->run(o.seconds * k_untraced_share, false);
        traced = f->run(o.seconds * k_traced_share, true);
        count(untraced);
        count(traced);
    }
    const fleet_audit audit = f->audit();
    for (const auto& e : audit.errors) errors.push_back(e);
    const std::vector<double> bootstrap_ms = f->bootstrap_ms();
    if (o.trace && !o.trace_dir.empty()) {
        const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                                 std::to_string(o.seed) + ".csv";
        std::ofstream out(path);
        std::vector<const span_log*> logs;
        for (const span_log& l : f->logs()) logs.push_back(&l);
        const std::size_t rows = out ? write_spans_csv(out, logs, k_trace_rows_written) : 0;
        std::printf("# spans: %zu rows written to %s\n", rows, out ? path.c_str() : "(unwritable)");
    }
    f.reset();

    std::optional<ladder_result> ladder;
    if (o.trace) {
        ladder = run_ladder(in, o.seconds * k_ladder_share, k_migration_probes, producer_cpus);
        if (ladder->failed > 0) errors.push_back("ladder: " + std::to_string(ladder->failed) + " bins failed");
    }

    const std::uint64_t replay_start = now_ns();
    const std::vector<replay_result> replays = replay_all(in, audit, o.trace, errors);
    const double replay_s = static_cast<double>(now_ns() - replay_start) / 1e9;
    for (std::size_t i = 0; i < replays.size(); ++i) {
        const std::string e = compare_verdicts(audit.served[i], replays[i].digest);
        if (!e.empty()) errors.push_back("stream " + std::to_string(in.replay[i]) + " verdicts differ from replay: " + e);
    }
    if (o.trace && !makespans_hold(traced.excess_us.size(), traced.makespans_outside)) {
        errors.push_back(std::to_string(traced.makespans_outside) + " of " +
                         std::to_string(traced.excess_us.size()) +
                         " intervals fail sum-to-makespan");
    }
    if (o.trace) {
        // Per-layer metrics have no bound, so a traced run is not gated;
        // the probe only shows whether the host held still under it.
        std::printf("# host_probe after the traced run: %.2f ms\n", probe_host(probe_cpu).median_ms);
    }
    for (const auto& e : errors) std::printf("# ERROR %s\n", e.c_str());
    std::uint64_t replayed = 0;
    for (const replay_result& r : replays) replayed += r.digest.count;
    std::printf("# gate: %zu streams audited, %zu replayed (%llu verdicts in %.2f s), %zu errors\n",
                audit.sent.size(), replays.size(), static_cast<unsigned long long>(replayed),
                replay_s, errors.size());
    if (!untraced.interval_ms.empty()) {
        std::printf("# interval tail (ms):");
        for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1.0}) {
            std::printf(" p%g=%.4g", q * 100, percentile(untraced.interval_ms, q));
        }
        std::printf("\n");
    }
    const bool correct = errors.empty();
    std::vector<metric> metrics;
    if (!o.trace) {
        const auto p99 = supported_percentile(untraced.interval_ms, 0.99);
        if (!p99 || untraced.migrate_ms.empty()) {
            std::fprintf(stderr, "servebench: run too short: %zu intervals, %zu migrations\n",
                         untraced.interval_ms.size(), untraced.migrate_ms.size());
            return 1;
        }
        const std::string n_int = "n=" + std::to_string(untraced.interval_ms.size()) + " intervals";
        metrics = {
            {"setup_s", p50(setup_s), "s", "median of " + std::to_string(setup_s.size()) + " set-ups"},
            {"bins_per_s", static_cast<double>(untraced.verdicts) / untraced.wall_s, "bins/s",
             std::to_string(untraced.verdicts) + " verdicts in " + number(untraced.wall_s) + " s"},
            {"interval_p50_ms", p50(untraced.interval_ms), "ms", n_int},
            {"interval_p99_ms", *p99, "ms", n_int},
            {"migrate_p50_ms", p50(untraced.migrate_ms), "ms",
             "n=" + std::to_string(untraced.migrate_ms.size()) + " migrations"},
            {"peak_rss_mb", peak_rss, "MiB", "VmHWM after the reset"},
            {"success_ratio",
             attempted > 0 ? static_cast<double>(attempted - failed) / static_cast<double>(attempted) : 0.0,
             "ratio", std::to_string(failed) + " of " + std::to_string(attempted) + " operations failed"},
        };
    } else {
        metrics = per_layer_metrics(in, untraced, traced, audit, bootstrap_ms, *ladder, replays);
    }
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;  // a wrong verdict or a lost bin fails the run
}

}  // namespace

int main(int argc, char** argv) {
    const options o = parse(argc, argv);
    try {
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
