#include "eval/injection.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "engine/thread_pool.h"

namespace netdiag {
namespace {

// Everything one flow contributes to the summary. Flows are swept
// independently (possibly on different threads) and reduced serially in
// flow order, so totals are bit-identical for any thread count.
struct flow_sweep {
    std::size_t detected = 0;
    std::size_t identified = 0;
    double error_sum = 0.0;
    std::size_t error_count = 0;
    std::vector<std::uint8_t> detected_at;  // one flag per window timestep
};

}  // namespace

void injection_config::validate() const {
    if (t_begin >= t_end) throw std::invalid_argument("injection_config: empty time window");
}

injection_summary run_injection_experiment(const dataset& ds,
                                           const volume_anomaly_diagnoser& diagnoser,
                                           const injection_config& cfg, thread_pool* pool) {
    cfg.validate();
    if (cfg.t_end > ds.bin_count()) {
        throw std::invalid_argument("run_injection_experiment: window exceeds dataset length");
    }
    const subspace_model& model = diagnoser.model();
    if (model.dimension() != ds.link_count()) {
        throw std::invalid_argument("run_injection_experiment: diagnoser/dataset link mismatch");
    }

    const std::size_t n = ds.routing.flow_count();
    const std::size_t window = cfg.t_end - cfg.t_begin;
    const flow_identifier& identifier = diagnoser.identifier();

    // Residuals of the unmodified measurements, one per timestep in window.
    std::vector<vec> base_residuals;
    base_residuals.reserve(window);
    for (std::size_t t = cfg.t_begin; t < cfg.t_end; ++t) {
        base_residuals.push_back(model.residual(ds.link_loads.row(t)));
    }

    // Residual shift per flow: C~ A_i = ||A_i|| * theta~_i (zero for an
    // undetectable flow), formed once per flow.
    std::vector<vec> shift(n);
    for (std::size_t i = 0; i < n; ++i) {
        shift[i] = scaled(identifier.residual_direction(i),
                          identifier.routing_column_norm(i) * cfg.spike_bytes);
    }

    // Map phase: sweep each flow independently into its own slot.
    std::vector<flow_sweep> per_flow(n);
    const auto sweep_flow = [&](std::size_t i) {
        flow_sweep& fs = per_flow[i];
        fs.detected_at.assign(window, 0);
        vec perturbed(model.dimension());
        for (std::size_t w = 0; w < window; ++w) {
            const vec& base = base_residuals[w];
            for (std::size_t l = 0; l < perturbed.size(); ++l) {
                perturbed[l] = base[l] + shift[i][l];
            }
            const diagnosis d = diagnoser.diagnose_residual(perturbed);
            if (!d.anomalous) continue;
            ++fs.detected;
            fs.detected_at[w] = 1;
            if (d.flow && *d.flow == i) {
                ++fs.identified;
                fs.error_sum += std::abs(std::abs(d.estimated_bytes) - cfg.spike_bytes) /
                                cfg.spike_bytes;
                ++fs.error_count;
            }
        }
    };
    if (pool != nullptr) {
        parallel_for(*pool, 0, n, sweep_flow);
    } else {
        for (std::size_t i = 0; i < n; ++i) sweep_flow(i);
    }

    // Reduce phase: serial, in flow order.
    injection_summary out;
    out.flow_count = n;
    out.time_count = window;
    out.spike_bytes = cfg.spike_bytes;
    out.detection_rate_by_flow.assign(n, 0.0);
    out.detection_rate_by_time.assign(window, 0.0);

    std::size_t detected_total = 0;
    std::size_t identified_total = 0;
    double error_sum = 0.0;
    std::size_t error_count = 0;
    std::vector<std::size_t> detected_by_time(window, 0);

    for (std::size_t i = 0; i < n; ++i) {
        const flow_sweep& fs = per_flow[i];
        detected_total += fs.detected;
        identified_total += fs.identified;
        error_sum += fs.error_sum;
        error_count += fs.error_count;
        for (std::size_t w = 0; w < window; ++w) detected_by_time[w] += fs.detected_at[w];
        out.detection_rate_by_flow[i] =
            static_cast<double>(fs.detected) / static_cast<double>(window);
    }

    for (std::size_t w = 0; w < window; ++w) {
        out.detection_rate_by_time[w] =
            static_cast<double>(detected_by_time[w]) / static_cast<double>(n);
    }

    const double cells = static_cast<double>(n) * static_cast<double>(window);
    out.detection_rate = static_cast<double>(detected_total) / cells;
    out.identification_rate = detected_total > 0
                                  ? static_cast<double>(identified_total) /
                                        static_cast<double>(detected_total)
                                  : 0.0;
    out.quantification_error =
        error_count > 0 ? error_sum / static_cast<double>(error_count) : 0.0;
    return out;
}

}  // namespace netdiag
