// Figure 7: histograms of per-flow detection rates when synthetic spikes
// are injected into every OD flow at every timestep of a day (Sprint-1).
// Large spikes should be detected nearly always; small spikes (below the
// knee) should rarely trigger.
#include "bench_common.h"

#include "eval/injection.h"

namespace {

void run_histogram(const netdiag::dataset& ds,
                   const netdiag::volume_anomaly_diagnoser& diagnoser, double bytes,
                   const char* label, netdiag::bench::output_digest& digest) {
    using namespace netdiag;
    injection_config cfg;
    cfg.spike_bytes = bytes;
    cfg.t_begin = 288;   // start of day 3 (a weekday)
    cfg.t_end = 288 + 144;
    const injection_summary s = run_injection_experiment(ds, diagnoser, cfg, bench::pool());

    std::printf("--- %s injected spike: %.2g bytes ---\n", label, bytes);
    const histogram h = make_histogram(s.detection_rate_by_flow, 0.0, 1.0, 10);
    std::printf("%s", ascii_histogram(h, 50).c_str());
    std::printf("mean detection rate %.3f, identification rate %.3f\n\n", s.detection_rate,
                s.identification_rate);
    digest.add("detection_rate", s.detection_rate);
    digest.add("identification_rate", s.identification_rate);
    digest.add("detection_rate_by_flow", s.detection_rate_by_flow);
}

}  // namespace

int main() {
    using namespace netdiag;
    bench::print_header("Figure 7: detection-rate histograms for injected spikes (Sprint-1)",
                        "Lakhina et al., Figure 7 (Section 6.3)");

    const dataset ds = make_sprint1_dataset();
    const volume_anomaly_diagnoser diagnoser(ds.link_loads, ds.routing.a, 0.999);
    bench::output_digest digest("fig7_injection_hist");
    run_histogram(ds, diagnoser, bench::k_sprint_large_injection, "Large", digest);
    run_histogram(ds, diagnoser, bench::k_sprint_small_injection, "Small", digest);

    std::printf("Paper's observation: the large-injection histogram masses near a\n"
                "detection rate of 1, the small-injection histogram near 0 -- high\n"
                "detection of real anomalies with a low false alarm rate.\n");
    digest.print();
    return 0;
}
