// The serving stack under test and the closed loop that drives it.
//
// A fleet is two stream_servers (primary and standby), each with its own
// engine pool, holding one workload's streams. With the wire transport
// each server sits behind an in-process netdiag_frontend on 127.0.0.1
// and every producer holds one remote_collector per server (at most four
// connections). Every stream's ingest sink counts, checks and -- for the
// replayed streams -- digests the verdicts it delivers.
//
// Load shape: producer p (one thread each) owns every stream with
// producer == p. One interval sends each of its streams that stream's
// next bin, one ingest per stream, and ends when the sink has delivered
// all of those verdicts -- not when the ingest calls return and not on a
// flush. After every k_migrate_every intervals the producers meet at a
// rebalance step: each moves one of its streams (round robin) to the
// other server and re-attaches its sink, and all resume together.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gate.h"
#include "inputs.h"
#include "net/frontend.h"
#include "net/remote_collector.h"
#include "serve/stream_server.h"
#include "trace.h"

namespace servebench {

// What one run of the closed loop measured.
struct phase_result {
    std::uint64_t start_ns = 0;
    double wall_s = 0.0;
    std::uint64_t verdicts = 0;
    std::vector<double> interval_ms;  // per producer interval
    std::vector<double> migrate_ms;   // detach start to restore return
    std::uint64_t attempted = 0;      // ingest calls + migrations
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  // the first few failures

    // Traced runs only.
    std::vector<double> lag_us;     // ingest start to the sink's delivery
    std::vector<double> excess_us;  // per interval: span self times - measured makespan
    std::size_t makespans_outside = 0;
    double attributed_share = 0.0;  // layer-call time / interval time
    // One producer's intervals: bench.interval span index and the makespan
    // measured from the sink's delivery stamps.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> interval_roots;
};

// One migration taken apart into its public calls (migration probes).
struct migration_probe {
    double wire_ms = 0.0;      // remote snapshot(detach) + remote restore
    double crc_ms = 0.0;       // net::crc32 over the record
    double detach_ms = 0.0;    // stream_server::detach_stream, interchange
    double restore_ms = 0.0;   // stream_server::restore_stream
    double native_ms = 0.0;    // stream_server::snapshot_stream, native
    std::size_t record_bytes = 0;
};

// End-of-run audit of every stream: conservation, sequence order and
// the served verdict digests of the replayed streams.
struct fleet_audit {
    std::vector<std::string> errors;
    std::vector<std::uint64_t> sent;             // per stream
    std::vector<verdict_digest> served;          // per replayed stream
    netdiag::ingest_stats totals;                // summed over streams
    std::uint64_t epochs = 0;                    // model swaps, summed
    std::uint64_t processed = 0;
    std::uint64_t alarms = 0;
};

class fleet {
public:
    // Setup: builds both servers, opens every stream (bootstrap fit) on
    // its initial server, and for the wire transport starts the
    // frontends and connects the collectors. `via` overrides the
    // workload's transport (the attribution ladder builds one of each).
    // When producer_cpus is set, producer i runs on producer_cpus[i], and
    // so does the frontend thread serving each of its two connections:
    // a round trip is then a hand-off on one CPU, not a cross-CPU wake-up
    // whose cost swings with the hypervisor's scheduling.
    fleet(const workload_inputs& in, transport via, std::vector<int> producer_cpus = {});
    ~fleet();

    fleet(const fleet&) = delete;
    fleet& operator=(const fleet&) = delete;

    // Sends stream 0 its first bin and waits for the verdict: the end of
    // setup. Returns false if it was not accepted.
    bool first_bin();

    // Untimed warm-up: stream k receives in.stagger[k] bins through the
    // local edge, so refits spread evenly over the run.
    void warm_up();

    // Drives the closed loop for `seconds` from two producer threads.
    // With `traced`, records spans around every call into a layer.
    phase_result run(double seconds, bool traced);

    // The attribution ladder's step: sends stream k's next bin on this
    // fleet's transport and returns the call's duration in us, or a
    // negative value when it was not accepted. Waits for the verdict.
    double step(std::size_t k);

    // Moves stream k across the wire and back into the same server, then
    // detaches/restores it in process, timing each public call. Needs the
    // wire transport.
    migration_probe probe_migration(std::size_t k);

    fleet_audit audit() const;

    const std::vector<double>& bootstrap_ms() const noexcept { return bootstrap_ms_; }
    const std::vector<span_log>& logs() const noexcept { return logs_; }
    netdiag::stream_id id_of(std::size_t k) const;
    std::uint64_t sent_of(std::size_t k) const;  // == stream k's next sequence

private:
    struct slot;
    struct producer;

    void open_stream(std::size_t k, int server);
    netdiag::ingest_sink sink_for(slot& s);
    void attach(slot& s, int server, netdiag::stream_id id);
    bool send(producer& p, std::size_t k, phase_result& out, span_log* log, std::uint32_t parent,
              std::uint64_t* call_start);
    bool await(producer& p, phase_result& out);
    void migrate(producer& p, phase_result& out, span_log* log);
    struct rebalance;
    void drive(producer& p, bool traced, span_log* log, rebalance& step, phase_result& out);

    const workload_inputs& in_;
    transport via_;
    std::vector<std::unique_ptr<slot>> slots_;
    std::vector<std::unique_ptr<producer>> producers_;
    std::vector<span_log> logs_;
    std::vector<double> bootstrap_ms_;
    std::vector<int> producer_cpus_;
    std::array<std::unique_ptr<netdiag::stream_server>, 2> servers_;
    std::array<std::unique_ptr<netdiag::net::netdiag_frontend>, 2> frontends_;
};

// The attribution ladder's transport rungs over the same streams and
// bins: each bin goes through a wire fleet's remote_collector::ingest and
// a local fleet's stream_server::ingest, interleaved bin by bin so both
// see the same host, plus net::encode_frame / net::frame_decoder on that
// bin's request and response frames.
struct ladder_result {
    std::vector<double> rtt_us;    // remote_collector::ingest
    std::vector<double> local_us;  // stream_server::ingest
    std::vector<double> codec_us;  // payload + frame encode/decode, request and response
    double bytes_per_bin = 0.0;
    std::vector<migration_probe> migrations;
    std::uint64_t failed = 0;
};
ladder_result run_ladder(const workload_inputs& in, double seconds, std::size_t migration_probes,
                         const std::vector<int>& producer_cpus);

}  // namespace servebench
