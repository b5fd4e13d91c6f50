// Table 3: diagnosing synthetic volume anomalies -- detection,
// identification and quantification for large and small injections on
// Sprint and Abilene.
#include "bench_common.h"

#include "eval/injection.h"

int main() {
    using namespace netdiag;
    bench::print_header("Table 3: results on diagnosing synthetic volume anomalies",
                        "Lakhina et al., Table 3 (Section 6.3)");

    const dataset sprint = make_sprint1_dataset();
    const dataset abilene = make_abilene_dataset();
    const volume_anomaly_diagnoser sprint_diag(sprint.link_loads, sprint.routing.a, 0.999);
    const volume_anomaly_diagnoser abilene_diag(abilene.link_loads, abilene.routing.a, 0.999);

    struct spec {
        const dataset* ds;
        const volume_anomaly_diagnoser* diag;
        const char* label;
        double bytes;
    };
    const spec specs[] = {
        {&sprint, &sprint_diag, "Sprint  Large", bench::k_sprint_large_injection},
        {&abilene, &abilene_diag, "Abilene Large", bench::k_abilene_large_injection},
        {&sprint, &sprint_diag, "Sprint  Small", bench::k_sprint_small_injection},
        {&abilene, &abilene_diag, "Abilene Small", bench::k_abilene_small_injection},
    };

    text_table table({"Network / Size", "Injection (bytes)", "Detection", "Identification",
                      "Quantification"});
    for (const spec& sp : specs) {
        injection_config cfg;
        cfg.spike_bytes = sp.bytes;
        cfg.t_begin = 288;
        cfg.t_end = 288 + 144;  // every timestep of a day, every flow
        const injection_summary s = run_injection_experiment(*sp.ds, *sp.diag, cfg, bench::pool());
        table.add_row({sp.label, format_scientific(sp.bytes, 1),
                       format_percent(s.detection_rate, 0),
                       format_percent(s.identification_rate, 0),
                       format_percent(s.quantification_error, 0)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf(
        "Paper reports: Sprint large 93%% / 85%% / 18%%; Abilene large 90%% / 69%% /\n"
        "21%%; Sprint small 15%% / 14%% / 11%%; Abilene small 5%% / 3%% / 18%%. The\n"
        "shape to match: large injections detected and identified at high rates\n"
        "with ~20%% size error; small injections (deliberate non-anomalies)\n"
        "rarely trigger.\n");
    return 0;
}
