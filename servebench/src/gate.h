// The correctness gate. A served stream must give, bin for bin, the
// verdicts of a standalone streaming_diagnoser with no pool fed the same
// bins in sequence order (the parity contract in serve/stream_server.h),
// across migrations too, and every stream's ingest counters must account
// for every bin sent. Any mismatch fails the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/stream_server.h"
#include "subspace/detector.h"

namespace servebench {

// Order-sensitive fold of (sequence, anomalous, SPE bits, threshold bits,
// epoch) over a stream's verdicts. Two streams of verdicts agree exactly
// when count and hash agree (up to 64-bit hash collisions).
struct verdict_digest {
    std::uint64_t hash = 0xCBF29CE484222325ull;
    std::uint64_t count = 0;

    void add(std::uint64_t sequence, const netdiag::detection_result& r, std::uint64_t epoch);
    friend bool operator==(const verdict_digest&, const verdict_digest&) = default;
};

// Timings of the replay's public calls, collected when asked for.
struct fit_probe {
    double refit_ms = 0.0;       // volume_anomaly_diagnoser on the refit window
    double covariance_ms = 0.0;  // parallel_centered_covariance on that window
    double eigen_ms = 0.0;       // sym_eigen on that covariance
};

struct replay_result {
    verdict_digest digest;
    std::uint64_t alarms = 0;
    std::vector<double> push_us;      // streaming_diagnoser::push_bin
    std::vector<double> diagnose_us;  // volume_anomaly_diagnoser::diagnose, alarm bins
    std::vector<fit_probe> fits;      // at refit triggers, up to max_fit_probes
};

// Replays bins [0, bins) of the stream through a standalone diagnoser
// (pool-less copy of cfg). With timed set, times every push_bin, a
// diagnose on every alarm bin, and the fit calls at the first
// max_fit_probes refit triggers.
replay_result replay_stream(const stream_input& in, netdiag::streaming_config cfg,
                            std::uint64_t bins, bool timed, std::size_t max_fit_probes);

// Empty when the counters conserve and account for `sent` bins:
// accepted == applied + dropped + pending, pending == 0, accepted == sent.
std::string check_conservation(const netdiag::ingest_stats& st, std::uint64_t sent);

// Empty when the digests agree, else a description of the mismatch.
std::string compare_verdicts(const verdict_digest& served, const verdict_digest& replayed);

}  // namespace servebench
