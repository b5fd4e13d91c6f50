// Figure 6: the top 40 anomalies extracted by the Fourier method, ranked
// by size, with flags for detection (a), identification (b), and the
// estimated vs true sizes of identified anomalies (c). All three datasets.
#include "bench_common.h"

#include <cmath>

namespace {

void run_dataset(const netdiag::dataset& ds, netdiag::bench::output_digest& digest) {
    using namespace netdiag;

    const volume_anomaly_diagnoser diagnoser(ds.link_loads, ds.routing.a, 0.999);
    const auto diagnoses = diagnoser.diagnose_all(ds.link_loads, bench::pool());

    ground_truth_config cfg;
    cfg.method = truth_method::fourier;
    cfg.top_k = 40;
    cfg.cutoff_bytes = bench::cutoff_for(ds);
    cfg.bin_seconds = ds.bin_seconds;
    const ground_truth gt = extract_ground_truth(ds.od_flows, cfg);

    std::printf("--- %s (cutoff %.1e bytes) ---\n", ds.name.c_str(), gt.cutoff_bytes);
    text_table table({"Rank", "Size (bytes)", "Above cutoff", "Detected", "Identified",
                      "Estimated size"});
    for (std::size_t r = 0; r < gt.ranked.size(); ++r) {
        const true_anomaly& a = gt.ranked[r];
        const diagnosis& d = diagnoses[a.t];
        const bool above = a.size_bytes >= gt.cutoff_bytes;
        const bool detected = d.anomalous;
        const bool identified = detected && d.flow && *d.flow == a.flow;
        table.add_row({std::to_string(r + 1), format_scientific(a.size_bytes, 2),
                       above ? "*" : "", detected ? "yes" : "", identified ? "yes" : "",
                       identified ? format_scientific(std::abs(d.estimated_bytes), 2) : ""});
        digest.add("size_bytes", a.size_bytes);
        digest.add("detected", detected);
        digest.add("identified", identified);
        if (identified) digest.add("estimated_bytes", std::abs(d.estimated_bytes));
    }
    std::printf("%s\n", table.str().c_str());
}

}  // namespace

int main() {
    using namespace netdiag;
    bench::print_header(
        "Figure 6: top-40 Fourier anomalies -- detection / identification / quantification",
        "Lakhina et al., Figure 6 (Section 6.2)");
    bench::output_digest digest("fig6_top40");
    run_dataset(make_sprint1_dataset(), digest);
    run_dataset(make_sprint2_dataset(), digest);
    run_dataset(make_abilene_dataset(), digest);
    std::printf("Paper's observation: a sharp knee separates the few standout anomalies\n"
                "from the mass of near-equal residuals; above the cutoff nearly every\n"
                "anomaly is detected and identified, below it almost none trigger.\n");
    digest.print();
    return 0;
}
