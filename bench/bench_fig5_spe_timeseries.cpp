// Figure 5: squared magnitude of the state vector ||y||^2 (top) versus the
// residual vector SPE = ||y~||^2 (bottom) with Q-statistic thresholds at
// the 99.5% and 99.9% confidence levels, for the two Sprint weeks.
#include "bench_common.h"

#include <algorithm>

#include "measurement/centering.h"

namespace {

void run_week(const netdiag::dataset& ds, netdiag::bench::output_digest& digest) {
    using namespace netdiag;

    const subspace_model model = subspace_model::fit(ds.link_loads);
    const centering_result centered = center_columns(ds.link_loads);

    vec state_norm(ds.bin_count());
    for (std::size_t t = 0; t < ds.bin_count(); ++t) {
        state_norm[t] = norm_squared(centered.centered.row(t));
    }
    const vec spe = model.spe_series(ds.link_loads, bench::pool());
    const double t995 = model.q_threshold(0.995);
    const double t999 = model.q_threshold(0.999);

    std::printf("--- %s ---\n", ds.name.c_str());
    std::printf("State vector ||y||^2 (mean-centered link traffic):\n%s\n",
                ascii_timeseries(state_norm, 72, 7).c_str());
    const std::vector<double> markers{t995, t999};
    std::printf("Residual vector SPE = ||y~||^2 with delta^2 markers (99.5%%, 99.9%%):\n%s\n",
                ascii_timeseries(spe, 72, 7, markers).c_str());

    std::size_t above995 = 0, above999 = 0;
    for (double v : spe) {
        if (v > t995) ++above995;
        if (v > t999) ++above999;
    }
    std::printf("delta^2(99.5%%) = %.3g  -> %zu of %zu bins flagged\n", t995, above995,
                spe.size());
    std::printf("delta^2(99.9%%) = %.3g  -> %zu of %zu bins flagged\n", t999, above999,
                spe.size());
    std::printf("Injected ground-truth anomalies above the cutoff (%.1e bytes):\n",
                bench::cutoff_for(ds));
    for (const anomaly_event& ev : ds.injected) {
        if (std::abs(ev.amplitude_bytes) < bench::cutoff_for(ds)) continue;
        std::printf("  bin %4zu: SPE = %.3g  (%s)\n", ev.t, spe[ev.t],
                    spe[ev.t] > t999 ? "above 99.9% threshold" : "below threshold");
    }
    std::printf("\n");

    digest.add("spe_series", spe);
    digest.add("t995", t995);
    digest.add("t999", t999);
    digest.add("above995", above995);
    digest.add("above999", above999);
}

}  // namespace

int main() {
    using namespace netdiag;
    bench::print_header("Figure 5: state vector vs residual vector timeseries",
                        "Lakhina et al., Figure 5 (Section 5.1)");
    bench::output_digest digest("fig5_spe_timeseries");
    run_week(make_sprint1_dataset(), digest);
    run_week(make_sprint2_dataset(), digest);
    std::printf("Paper's observation: anomalies are invisible in ||y||^2 but stand out\n"
                "sharply in the residual SPE, where nearly all anomalies exceed the\n"
                "threshold while almost no normal bins do.\n");
    digest.print();
    return 0;
}
