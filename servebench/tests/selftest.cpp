// Self-tests for the benchmark's own arithmetic and its correctness gate.
// Exits non-zero when any check failed; run.sh runs it after every build
// that relinks it.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "gate.h"
#include "inputs.h"
#include "measurement/dataset.h"
#include "measurement/presets.h"
#include "serve/stream_server.h"
#include "stats.h"
#include "topology/builders.h"
#include "trace.h"

namespace {

using namespace servebench;

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
}

void test_percentile_rule() {
    check(percentile(one_to(100), 0.5) == 50.0, "p50 of 1..100 is 50");
    check(percentile(one_to(100), 0.99) == 99.0, "p99 of 1..100 is 99");
    check(percentile(one_to(1), 0.99) == 1.0, "p99 of one sample is that sample");
    check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
    check(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
    check(supported_percentile(one_to(1000), 0.99).has_value(), "p99 shown with 10 beyond");
    check(!supported_percentile(one_to(999), 0.99).has_value(), "p99 withheld with 9 beyond");
    check(!supported_percentile(one_to(50), 0.99).has_value(), "p99 withheld for 50 samples");
    const auto t = highest_supported_tail(one_to(40));
    check(t.has_value() && std::fabs(t->q - 0.75) < 1e-9 && samples_beyond(40, t->q) >= 10,
          "40 samples support p75 at most");
    check(!highest_supported_tail(one_to(19)).has_value(), "19 samples support no tail");
}

span make(std::uint64_t a, std::uint64_t b, std::uint32_t parent) {
    span s;
    s.name = "x";
    s.start_ns = a;
    s.end_ns = b;
    s.parent = parent;
    return s;
}

void test_self_time() {
    // Parent [0, 100) with children [10, 30), [20, 50) (overlapping) and
    // [70, 80): their union covers 40 + 10 = 50, so self time is 50.
    std::vector<span> spans{make(0, 100, k_no_parent), make(10, 30, 0), make(20, 50, 0),
                            make(70, 80, 0)};
    auto children = child_index(spans);
    check(self_time_ns(spans, 0, children) == 50, "self = parent - union of children");
    check(self_time_ns(spans, 1, children) == 20, "a leaf's self time is its duration");
    // A child sticking out of its parent counts only inside it.
    spans.push_back(make(90, 130, 0));
    children = child_index(spans);
    check(self_time_ns(spans, 0, children) == 40, "children are clipped to the parent");
}

void test_makespan_check() {
    // An interval of 300 us: two calls and a wait, one call with a child.
    std::vector<span> spans{make(0, 300'000, k_no_parent), make(5, 120'000, 0),
                            make(50'000, 90'000, 1), make(120'000, 290'000, 0),
                            make(290'000, 300'000, 0)};
    const auto children = child_index(spans);
    const makespan_check exact = check_makespan(spans, 0, children, 300'000);
    check(exact.ok && exact.self_sum_ns == 300'000 && exact.excess_ns() == 0.0,
          "self times sum to the makespan");
    // The last verdict was delivered 10 us before the producer noticed:
    // within max(25 us, 5%).
    const makespan_check tail = check_makespan(spans, 0, children, 290'000);
    check(tail.ok && tail.excess_ns() == 10'000.0, "a short post-delivery tail is within tolerance");
    // The spans run 40 us past the last delivery (say, a flush round trip
    // after it): outside.
    check(!check_makespan(spans, 0, children, 260'000).ok, "40 us after the last delivery fails");
    // The interval closed when its calls returned, 50 us before the last
    // verdict arrived: outside.
    check(!check_makespan(spans, 0, children, 350'000).ok, "closing before the last delivery fails");
    // On a 10 ms interval, 5% is the wider allowance.
    std::vector<span> stalled{make(0, 10'000'000, k_no_parent), make(0, 9'990'000, 0)};
    check(check_makespan(stalled, 0, child_index(stalled), 9'600'000).ok,
          "400 us on 10 ms is within 5%");
    check(makespans_hold(100, 5) && !makespans_hold(100, 6) && !makespans_hold(0, 0),
          "at least 95% of a phase's intervals must be within tolerance");
}

void test_conservation() {
    netdiag::ingest_stats st;
    st.accepted = 10;
    st.applied = 9;
    st.dropped = 1;
    check(check_conservation(st, 10).empty(), "conserved counters pass");
    st.pending = 1;
    st.accepted = 11;
    check(!check_conservation(st, 11).empty(), "pending bins fail");
    st.pending = 0;
    st.accepted = 10;
    check(!check_conservation(st, 12).empty(), "bins sent but not accepted fail");
}

// End to end: a stream served by a pooled stream_server, digested in its
// sink, must match the standalone replay -- and one flipped bit in one
// verdict must fail the gate.
void test_gate_against_server() {
    netdiag::dataset_config cfg = netdiag::abilene_config();
    cfg.traffic.bins = 360;
    netdiag::dataset ds = netdiag::build_dataset(netdiag::make_abilene(), cfg);
    stream_input in;
    in.label = "abilene";
    in.series = std::make_shared<const netdiag::matrix>(std::move(ds.link_loads));
    in.routing = std::make_shared<const netdiag::matrix>(std::move(ds.routing.a));
    in.bootstrap = 120;
    in.length = 360;

    netdiag::streaming_config sc;
    sc.window = 120;
    sc.refit_interval = 40;
    sc.mode = netdiag::refit_mode::deferred;
    sc.swap_horizon = 6;

    netdiag::stream_server server(netdiag::stream_server_config{2});
    std::vector<netdiag::detection_result> verdicts;
    std::vector<std::uint64_t> epochs;
    const netdiag::stream_detector* det = nullptr;
    netdiag::stream_open_config oc;
    oc.bootstrap_y = in.bootstrap_rows();
    oc.a = *in.routing;
    oc.streaming = sc;
    oc.ingest.sink = [&](std::uint64_t, const netdiag::detection_result& r) {
        verdicts.push_back(r);
        epochs.push_back(det->model_epoch());
    };
    const netdiag::stream_id id = server.open_stream(std::move(oc));
    det = &server.stream(id);
    constexpr std::uint64_t bins = 600;  // wraps the 240-bin feed cycle
    for (std::uint64_t s = 0; s < bins; ++s) {
        check(server.ingest(id, in.bin(s)).ok(), "selftest ingest accepted");
    }
    server.flush_stream(id);
    check(verdicts.size() == bins, "every bin got a verdict");
    check(check_conservation(server.ingest_statistics(id), bins).empty(), "server conserves");

    auto digest = [&](std::size_t flip_index, int field) {
        verdict_digest d;
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
            netdiag::detection_result r = verdicts[i];
            std::uint64_t epoch = epochs[i];
            if (i == flip_index) {
                std::uint64_t bits = 0;
                switch (field) {
                    case 0: r.anomalous = !r.anomalous; break;
                    case 1:
                        std::memcpy(&bits, &r.spe, 8);
                        bits ^= 1;  // lowest mantissa bit
                        std::memcpy(&r.spe, &bits, 8);
                        break;
                    case 2:
                        std::memcpy(&bits, &r.threshold, 8);
                        bits ^= 1;
                        std::memcpy(&r.threshold, &bits, 8);
                        break;
                    default: epoch ^= 1; break;
                }
            }
            d.add(i, r, epoch);
        }
        return d;
    };
    const replay_result replayed = replay_stream(in, sc, bins, /*timed=*/false, 0);
    check(compare_verdicts(digest(bins, 0), replayed.digest).empty(),
          "served verdicts match the standalone replay");
    check(epochs.back() > 0, "the selftest stream refit at least once");
    for (int field = 0; field < 4; ++field) {
        check(!compare_verdicts(digest(bins / 2, field), replayed.digest).empty(),
              "one flipped verdict bit fails the gate");
    }
    const replay_result timed = replay_stream(in, sc, bins, /*timed=*/true, 3);
    check(timed.digest == replayed.digest, "timing the replay does not change it");
    check(timed.push_us.size() == bins && timed.fits.size() == 3, "timed replay samples");
}

void test_inputs_are_seeded() {
    // Generating a workload twice from one seed gives the same bins; a
    // different seed gives different ones.
    const workload_inputs a = make_inputs("wide_backbone", 7);
    const workload_inputs b = make_inputs("wide_backbone", 7);
    const workload_inputs c = make_inputs("wide_backbone", 8);
    check(a.digest == b.digest && a.replay == b.replay, "same seed, same inputs");
    check(a.digest != c.digest, "another seed, other inputs");
    check(a.streams.size() == 16 && a.streams[0].links() == 156 &&
              a.streams[0].routing->cols() == 1296,
          "the backbone has 156 links and 1,296 OD flows");
    // window_after reproduces bootstrap ++ fed bins.
    const stream_input& s = a.streams[3];
    const netdiag::matrix w = s.window_after(10, 1008);
    bool same = true;
    for (std::size_t c = 0; c < s.links(); ++c) {
        same = same && w(1007, c) == s.bin(9)[c] && w(0, c) == s.series->row(s.offset + 10)[c];
    }
    check(same, "window_after is the last window rows of bootstrap ++ bins");
}

}  // namespace

int main() {
    test_percentile_rule();
    test_self_time();
    test_makespan_check();
    test_conservation();
    test_gate_against_server();
    test_inputs_are_seeded();
    if (failures > 0) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("# selftest: all checks passed\n");
    return 0;
}
