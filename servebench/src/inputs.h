// Workload definitions and their seeded inputs. Everything a run feeds
// the serving stack is generated here, from the workload seed, before
// any timed phase; the stack only ever sees the generated bins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "subspace/online.h"

namespace servebench {

enum class transport {
    wire,   // remote_collector -> netdiag_frontend -> stream_server
    local,  // stream_server::ingest in process
};

// The load shape every workload shares: two producer threads, two
// servers with a 2-thread pool each, and a rebalance step after every 48
// intervals.
inline constexpr std::size_t k_producers = 2;
inline constexpr std::size_t k_server_threads = 2;
inline constexpr std::size_t k_migrate_every = 48;

struct workload_spec {
    std::string name;
    transport via = transport::local;
    // Window, refit interval, mode and swap horizon of every stream;
    // the pool is wired by the server.
    netdiag::streaming_config streaming;
};

// One stream: rows [offset, offset + length) of a shared series of link
// loads (time x links). The first `bootstrap` rows open the stream; the
// remaining rows are fed in order and then again from the start, so a
// stream never runs out of bins however long a run lasts.
struct stream_input {
    std::string label;
    std::shared_ptr<const netdiag::matrix> series;
    std::shared_ptr<const netdiag::matrix> routing;  // A: links x OD flows
    std::size_t offset = 0;
    std::size_t bootstrap = 0;
    std::size_t length = 0;
    std::size_t producer = 0;

    std::size_t links() const noexcept { return series->cols(); }
    // The bin a stream receives at ingest sequence `seq`.
    std::span<const double> bin(std::uint64_t seq) const noexcept {
        const std::size_t cycle = length - bootstrap;
        return series->row(offset + bootstrap + static_cast<std::size_t>(seq % cycle));
    }
    netdiag::matrix bootstrap_rows() const;
    // The refit window a standalone diagnoser holds after `pushed` bins:
    // the last `window` rows of bootstrap ++ bins [0, pushed).
    netdiag::matrix window_after(std::uint64_t pushed, std::size_t window) const;
};

struct workload_inputs {
    workload_spec spec;
    std::vector<stream_input> streams;
    // Streams whose verdicts the correctness gate replays, one per
    // producer, chosen from the seed.
    std::vector<std::size_t> replay;
    // Untimed warm-up: stream k first receives k * R / S bins (R the
    // refit interval, S the stream count), so refits spread evenly.
    std::vector<std::uint64_t> stagger;
    std::uint64_t digest = 0;  // over every bin and routing matrix
};

// Names of the workloads make_inputs knows, in a fixed order.
const std::vector<std::string>& workload_names();

// Generates a workload's inputs. Throws std::invalid_argument for an
// unknown name.
workload_inputs make_inputs(const std::string& name, std::uint64_t seed);

}  // namespace servebench
