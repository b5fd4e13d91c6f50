// Figure 9: scatter of per-flow detection rate (large injections) against
// the mean rate of the OD flow the spike is injected into (Sprint-1).
// For a fixed-size anomaly, detection tends to be *better* on small flows:
// large-variance flows align with the normal subspace (Section 5.4).
#include "bench_common.h"

#include <algorithm>
#include <cmath>

#include "eval/injection.h"
#include "stats/descriptive.h"

int main() {
    using namespace netdiag;
    bench::print_header("Figure 9: detection rate vs mean OD flow size (Sprint-1, large)",
                        "Lakhina et al., Figure 9 (Section 6.3)");

    const dataset ds = make_sprint1_dataset();
    const volume_anomaly_diagnoser diagnoser(ds.link_loads, ds.routing.a, 0.999);

    injection_config cfg;
    cfg.spike_bytes = bench::k_sprint_large_injection;
    cfg.t_begin = 288;
    cfg.t_end = 288 + 144;
    const injection_summary s = run_injection_experiment(ds, diagnoser, cfg, bench::pool());

    vec flow_means(ds.flow_count());
    for (std::size_t j = 0; j < ds.flow_count(); ++j) flow_means[j] = mean(ds.od_flows.row(j));

    // Decile buckets by flow size.
    std::vector<std::size_t> order(ds.flow_count());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return flow_means[a] < flow_means[b]; });

    bench::output_digest digest("fig9_rate_vs_flowsize");
    text_table table({"Flow-size decile", "Mean flow size (bytes/bin)", "Mean detection rate"});
    const std::size_t buckets = 10;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t begin = b * order.size() / buckets;
        const std::size_t end = (b + 1) * order.size() / buckets;
        double size_sum = 0.0, rate_sum = 0.0;
        for (std::size_t k = begin; k < end; ++k) {
            size_sum += flow_means[order[k]];
            rate_sum += s.detection_rate_by_flow[order[k]];
        }
        const auto count = static_cast<double>(end - begin);
        table.add_row({std::to_string(b + 1), format_scientific(size_sum / count, 2),
                       format_fixed(rate_sum / count, 3)});
        digest.add("decile_size", size_sum / count);
        digest.add("decile_rate", rate_sum / count);
    }
    std::printf("%s\n", table.str().c_str());

    // Rank (Spearman) correlation between flow size and detection rate.
    vec rate_of_rank(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
        rate_of_rank[k] = s.detection_rate_by_flow[order[k]];
    }
    double num = 0.0, den_a = 0.0, den_b = 0.0;
    const double mean_rank = static_cast<double>(order.size() - 1) / 2.0;
    const double mean_rate = mean(rate_of_rank);
    for (std::size_t k = 0; k < order.size(); ++k) {
        const double da = static_cast<double>(k) - mean_rank;
        const double db = rate_of_rank[k] - mean_rate;
        num += da * db;
        den_a += da * da;
        den_b += db * db;
    }
    std::printf("Correlation of flow-size rank with detection rate: %.3f\n",
                num / std::sqrt(den_a * den_b));
    std::printf("\nPaper's observation: fixed-size injections are detected better on\n"
                "smaller OD flows; large-variance flows align with the normal subspace\n"
                "and can also cancel spikes with their own negative deviations.\n");
    digest.add("rank_correlation", num / std::sqrt(den_a * den_b));
    digest.print();
    return 0;
}
