#include "gate.h"

#include <cstring>
#include <sstream>

#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "measurement/centering.h"
#include "probe.h"
#include "subspace/diagnoser.h"
#include "subspace/online.h"

namespace servebench {

namespace {

std::uint64_t bits_of(double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

double ms_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

}  // namespace

void verdict_digest::add(std::uint64_t sequence, const netdiag::detection_result& r,
                         std::uint64_t epoch) {
    for (const std::uint64_t word :
         {sequence, static_cast<std::uint64_t>(r.anomalous), bits_of(r.spe),
          bits_of(r.threshold), epoch}) {
        hash = (hash ^ word) * 0x100000001B3ull;
        hash ^= hash >> 31;
    }
    ++count;
}

replay_result replay_stream(const stream_input& in, netdiag::streaming_config cfg,
                            std::uint64_t bins, bool timed, std::size_t max_fit_probes) {
    cfg.pool = nullptr;
    const netdiag::matrix& a = *in.routing;
    netdiag::streaming_diagnoser det(in.bootstrap_rows(), a, cfg);
    replay_result out;
    if (timed) out.push_us.reserve(static_cast<std::size_t>(bins));
    for (std::uint64_t seq = 0; seq < bins; ++seq) {
        const auto y = in.bin(seq);
        const std::uint64_t t0 = timed ? now_ns() : 0;
        const netdiag::detection_result r = det.push_bin(y);
        if (timed) out.push_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        out.digest.add(seq, r, det.model_epoch());
        if (!r.anomalous) continue;
        ++out.alarms;
        if (timed) {
            const std::uint64_t d0 = now_ns();
            const netdiag::diagnosis d = det.current().diagnose(y);
            out.diagnose_us.push_back(static_cast<double>(now_ns() - d0) / 1e3);
            (void)d;
        }
    }
    if (!timed || cfg.refit_interval == 0) return out;
    // The fit calls a refit makes, on the windows the replay refit on.
    for (std::uint64_t seq = cfg.refit_interval - 1; seq < bins && out.fits.size() < max_fit_probes;
         seq += cfg.refit_interval) {
        const netdiag::matrix window = in.window_after(seq + 1, cfg.window);
        fit_probe p;
        std::uint64_t t0 = now_ns();
        const netdiag::volume_anomaly_diagnoser fit(window, a, cfg.confidence, cfg.separation,
                                                    nullptr);
        p.refit_ms = ms_since(t0);
        const netdiag::centering_result centered = netdiag::center_columns(window);
        t0 = now_ns();
        const netdiag::matrix cov = netdiag::parallel_centered_covariance(centered.centered,
                                                                          nullptr);
        p.covariance_ms = ms_since(t0);
        t0 = now_ns();
        const netdiag::sym_eigen_result eig = netdiag::sym_eigen(cov);
        p.eigen_ms = ms_since(t0);
        (void)fit;
        (void)eig;
        out.fits.push_back(p);
    }
    return out;
}

std::string check_conservation(const netdiag::ingest_stats& st, std::uint64_t sent) {
    std::ostringstream err;
    if (st.accepted != st.applied + st.dropped + st.pending) {
        err << "accepted " << st.accepted << " != applied " << st.applied << " + dropped "
            << st.dropped << " + pending " << st.pending << "; ";
    }
    if (st.pending != 0) err << "pending " << st.pending << " != 0; ";
    if (st.accepted != sent) err << "accepted " << st.accepted << " != sent " << sent << "; ";
    return err.str();
}

std::string compare_verdicts(const verdict_digest& served, const verdict_digest& replayed) {
    if (served == replayed) return {};
    std::ostringstream err;
    err << "served " << served.count << " verdicts (digest " << std::hex << served.hash
        << std::dec << "), replay " << replayed.count << " (digest " << std::hex
        << replayed.hash << std::dec << ")";
    return err.str();
}

}  // namespace servebench
