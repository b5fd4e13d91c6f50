#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <utility>

#include "measurement/dataset.h"
#include "measurement/link_loads.h"
#include "measurement/presets.h"
#include "scenarios/catalog.h"
#include "topology/builders.h"
#include "topology/routing.h"
#include "topology/topology.h"
#include "traffic/generator.h"
#include "traffic/gravity.h"

namespace servebench {

using netdiag::matrix;

matrix stream_input::bootstrap_rows() const {
    matrix out(bootstrap, links());
    for (std::size_t r = 0; r < bootstrap; ++r) out.set_row(r, series->row(offset + r));
    return out;
}

matrix stream_input::window_after(std::uint64_t pushed, std::size_t window) const {
    // Logical row i of bootstrap ++ fed bins: i < bootstrap is bootstrap
    // row i, otherwise fed bin i - bootstrap.
    const std::uint64_t total = bootstrap + pushed;
    const std::uint64_t rows = std::min<std::uint64_t>(window, total);
    matrix out(static_cast<std::size_t>(rows), links());
    for (std::uint64_t r = 0; r < rows; ++r) {
        const std::uint64_t i = total - rows + r;
        out.set_row(static_cast<std::size_t>(r),
                    i < bootstrap ? series->row(offset + static_cast<std::size_t>(i))
                                  : bin(i - bootstrap));
    }
    return out;
}

namespace {

// splitmix64: the seed-derivation step for per-stream seeds.
std::uint64_t mix_seed(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// One week of 10-minute bins: the window, the bootstrap and the fed cycle.
constexpr std::size_t k_week = 1008;
constexpr std::size_t k_day = 144;

struct digest_fold {
    std::uint64_t h = 0xCBF29CE484222325ull;
    void add(const double* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, p + i, sizeof bits);
            h = (h ^ bits) * 0x100000001B3ull;
            h ^= h >> 29;
        }
    }
};

std::uint64_t digest_of(const std::vector<stream_input>& streams) {
    digest_fold f;
    for (const stream_input& s : streams) {
        f.add(s.series->row(s.offset).data(), s.length * s.links());
        f.add(s.routing->data(), s.routing->size());
    }
    return f.h;
}

std::vector<std::uint64_t> stagger_for(std::size_t streams, std::size_t refit_interval) {
    std::vector<std::uint64_t> out(streams);
    for (std::size_t k = 0; k < streams; ++k) out[k] = k * refit_interval / streams;
    return out;
}

// 48 paper-scale streams: stream k is Abilene-shaped with a catalogue
// scenario's episodes when k % 4 < 2, else a Sprint-Europe preset week.
// Producer k % 2 owns stream k, so each producer feeds 12 of each kind.
workload_inputs fleet_inputs(std::uint64_t seed) {
    workload_inputs in;
    in.spec.name = "wire_fleet";
    in.spec.via = transport::wire;
    in.spec.streaming.window = k_week;
    in.spec.streaming.refit_interval = k_week;  // weekly refit
    in.spec.streaming.mode = netdiag::refit_mode::deferred;
    in.spec.streaming.swap_horizon = k_day;     // one-day swap horizon

    constexpr std::size_t streams = 48;
    const auto& scenarios = netdiag::scenario_names();
    std::size_t abilene = 0;
    for (std::size_t k = 0; k < streams; ++k) {
        const std::uint64_t stream_seed = mix_seed(seed ^ mix_seed(k + 1));
        stream_input s;
        s.producer = k % k_producers;
        s.bootstrap = k_week;
        s.length = 2 * k_week;
        if (k % 4 < 2) {
            netdiag::scenario_config cfg;
            cfg.train_bins = k_week;
            cfg.eval_bins = k_week;
            cfg.seed = stream_seed;
            const std::string& scenario = scenarios[abilene++ % scenarios.size()];
            netdiag::scenario_dataset sd = netdiag::build_scenario(scenario, cfg);
            s.label = "abilene/" + scenario;
            s.series = std::make_shared<const matrix>(std::move(sd.data.link_loads));
            s.routing = std::make_shared<const matrix>(std::move(sd.data.routing.a));
        } else {
            netdiag::dataset_config cfg = netdiag::sprint1_config();
            cfg.traffic.bins = 2 * k_week;
            cfg.gravity.seed = mix_seed(stream_seed ^ 1);
            cfg.traffic.seed = mix_seed(stream_seed ^ 2);
            cfg.sampler.seed = mix_seed(stream_seed ^ 3);
            netdiag::dataset ds = netdiag::build_dataset(netdiag::make_sprint_europe(), cfg);
            s.label = "sprint";
            s.series = std::make_shared<const matrix>(std::move(ds.link_loads));
            s.routing = std::make_shared<const matrix>(std::move(ds.routing.a));
        }
        // The scenario/dataset (OD matrices included) dies here; only the
        // link loads and the routing matrix stay.
        in.streams.push_back(std::move(s));
    }

    std::mt19937_64 rng(mix_seed(seed ^ 0x5EED));
    // Producer 0 replays one of its Abilene streams (k % 4 == 0),
    // producer 1 one of its Sprint streams (k % 4 == 3).
    in.replay = {4 * static_cast<std::size_t>(rng() % (streams / 4)),
                 4 * static_cast<std::size_t>(rng() % (streams / 4)) + 3};
    in.stagger = stagger_for(streams, in.spec.streaming.refit_interval);
    return in;
}

// A seeded synthetic backbone: a ring of 36 PoPs plus 24 chords, i.e. 60
// bidirectional edges = 120 directed links + 36 intra-PoP links = 156
// links, and 36^2 = 1,296 OD flows.
netdiag::topology backbone_topology(std::uint64_t seed) {
    constexpr std::size_t pops = 36;
    constexpr std::size_t chords = 24;
    netdiag::topology topo("backbone-36");
    for (std::size_t i = 0; i < pops; ++i) {
        char name[16];
        std::snprintf(name, sizeof name, "p%zu", i);
        topo.add_pop(name);
    }
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> weight(1.0, 3.0);
    for (std::size_t i = 0; i < pops; ++i) topo.add_edge(i, (i + 1) % pops, weight(rng));
    std::size_t added = 0;
    while (added < chords) {
        const std::size_t a = rng() % pops;
        const std::size_t b = rng() % pops;
        if (a == b || topo.has_edge(a, b)) continue;
        topo.add_edge(a, b, weight(rng));
        ++added;
    }
    topo.finalize();
    return topo;
}

// 16 streams over one backbone: stream k sees rows [63 k, 63 k + 2016)
// of one long series (time-offset windows keep generation short). With 8
// streams per producer a refit stall hits 1 in 18 intervals, so the p99
// interval sits inside the stall distribution, not on its edge.
workload_inputs backbone_inputs(std::uint64_t seed) {
    workload_inputs in;
    in.spec.name = "wide_backbone";
    in.spec.via = transport::local;
    in.spec.streaming.window = k_week;
    in.spec.streaming.refit_interval = k_day;  // daily refit
    in.spec.streaming.mode = netdiag::refit_mode::deferred;
    in.spec.streaming.swap_horizon = 8;  // the library default

    constexpr std::size_t streams = 16;
    constexpr std::size_t step = 63;
    const std::size_t length = 2 * k_week;

    netdiag::topology topo = backbone_topology(mix_seed(seed ^ 0xB0B));
    netdiag::routing_result routing = netdiag::build_routing(topo);
    netdiag::gravity_config gravity;
    gravity.total_mean_bytes_per_bin = 1.2e10;
    gravity.weight_sigma = 0.9;
    gravity.seed = mix_seed(seed ^ 0x6A7);
    netdiag::traffic_config traffic;
    traffic.bins = length + (streams - 1) * step;
    traffic.anomaly_count = 40;
    traffic.anomaly_min_bytes = 1.0e8;
    traffic.anomaly_max_bytes = 4.0e8;
    traffic.seed = mix_seed(seed ^ 0x7AF);
    matrix loads;
    {
        const netdiag::od_traffic od =
            netdiag::generate_od_traffic(netdiag::gravity_flow_means(topo.pop_count(), gravity),
                                         traffic);
        loads = netdiag::link_loads_from_flows(routing.a, od.x);
    }  // the 1,296-flow OD matrix is released here
    auto series = std::make_shared<const matrix>(std::move(loads));
    auto a = std::make_shared<const matrix>(std::move(routing.a));
    for (std::size_t k = 0; k < streams; ++k) {
        stream_input s;
        s.label = "backbone+" + std::to_string(k * step);
        s.series = series;
        s.routing = a;
        s.offset = k * step;
        s.bootstrap = k_week;
        s.length = length;
        s.producer = k % k_producers;
        in.streams.push_back(std::move(s));
    }
    std::mt19937_64 rng(mix_seed(seed ^ 0x5EED));
    in.replay = {2 * static_cast<std::size_t>(rng() % (streams / 2)),
                 2 * static_cast<std::size_t>(rng() % (streams / 2)) + 1};
    in.stagger = stagger_for(streams, in.spec.streaming.refit_interval);
    return in;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"wire_fleet", "wide_backbone"};
    return names;
}

workload_inputs make_inputs(const std::string& name, std::uint64_t seed) {
    workload_inputs in;
    if (name == "wire_fleet") {
        in = fleet_inputs(seed);
    } else if (name == "wide_backbone") {
        in = backbone_inputs(seed);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    in.digest = digest_of(in.streams);
    return in;
}

}  // namespace servebench
