// Multi-PoP backbone monitoring through the stream server's concurrent
// ingest edge -- the deployment Section 7.1 envisions, scaled out to
// several vantage feeds with one collector thread per feed.
//
// A NOC ingests three regional measurement feeds of the same backbone
// (think independent collectors: core, east, west). Each feed gets its
// own streaming_diagnoser stream -- own model, own epoch space, own daily
// background refit -- multiplexed over one shared engine pool by a
// stream_server. Each collector runs on its own thread and feeds its
// stream through ingest(): bins are enqueued into the stream's inbox (a
// bounded FIFO behind a per-stream mutex), assigned a monotone sequence,
// and applied in sequence order by the per-stream drainer, with results
// delivered to the feed's ingest sink. No cross-collector coordination
// exists anywhere -- that is the point -- yet per-feed output is
// bit-identical to running that feed alone, so scaling out collectors
// adds hardware utilization, never arithmetic. Alarms are reported with
// the responsible OD flow per feed so fine-grained flow collection can be
// triggered on just the implicated routers.
//
// With --loopback the same deployment runs split across the wire
// protocol (docs/WIRE_FORMAT.md): the collectors become remote_collector
// clients speaking length-prefixed frames to a netdiag_frontend over
// loopback TCP, and mid-run the west feed is migrated -- detached from
// the serving host, restored on a second one, collector re-pointed --
// without losing a bin or an alarm. Same output either way: the wire
// adds routing, never arithmetic.
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "linalg/vector_ops.h"
#include "measurement/dataset.h"
#include "net/frontend.h"
#include "net/migration.h"
#include "net/remote_collector.h"
#include "serve/stream_server.h"
#include "topology/builders.h"

int main(int argc, char** argv) {
    using namespace netdiag;

    const bool loopback = argc > 1 && std::strcmp(argv[1], "--loopback") == 0;

    // Three regional feeds: same backbone, independently generated
    // traffic (different collector seeds), one week of 10-minute bins.
    const char* feed_names[] = {"core", "east", "west"};
    std::vector<dataset> feeds;
    for (std::uint64_t f = 0; f < 3; ++f) {
        dataset_config cfg;
        cfg.name = feed_names[f];
        cfg.gravity.seed = 101 + f;
        cfg.traffic.seed = 7001 + f;
        cfg.traffic.bins = 1008;       // one week
        cfg.traffic.anomaly_count = 0;  // incidents are spliced in below
        feeds.push_back(build_dataset(make_abilene(), cfg));
    }

    const std::size_t bootstrap_bins = 432;  // three days of history
    const std::size_t bins = feeds[0].bin_count();

    // Live incidents: two on the east feed (a surge and an outage-style
    // drop) and one surge on the west feed.
    struct incident {
        std::size_t feed, t, flow;
        double bytes;
    };
    const std::vector<incident> incidents = {
        {1, 600, feeds[1].routing.flow_index(*feeds[1].topo.find_pop("chin"),
                                             *feeds[1].topo.find_pop("losa")), 2.5e8},
        {1, 830, feeds[1].routing.flow_index(*feeds[1].topo.find_pop("nycm"),
                                             *feeds[1].topo.find_pop("sttl")), -2.0e8},
        {2, 700, feeds[2].routing.flow_index(*feeds[2].topo.find_pop("dnvr"),
                                             *feeds[2].topo.find_pop("atla")), 3.0e8},
    };

    // One alarm record per anomalous bin, assembled by the feed's ingest
    // sink (which runs on that feed's drainer thread, in sequence order)
    // and printed after the collectors join.
    struct alarm_record {
        std::size_t t = 0;
        double spe = 0.0, threshold = 0.0;
        bool have_flow = false;
        std::size_t flow = 0;
        double estimated_bytes = 0.0;
    };
    std::vector<std::vector<alarm_record>> alarms(feeds.size());

    stream_server server({.threads = 4});  // the serving host's engine
    // The second serving host the west feed migrates to in loopback mode.
    stream_server standby({.threads = 2});
    std::vector<stream_id> ids(feeds.size());

    // The rows each collector will ingest, precomputed so the sink can
    // re-diagnose an alarming bin against the model snapshot that
    // flagged it.
    std::vector<std::vector<vec>> rows(feeds.size());
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        for (std::size_t t = bootstrap_bins; t < bins; ++t) {
            vec row(feeds[f].link_loads.row(t).begin(), feeds[f].link_loads.row(t).end());
            for (const incident& inc : incidents) {
                if (inc.feed == f && inc.t == t) {
                    axpy(inc.bytes, feeds[f].routing.a.column(inc.flow), row);
                }
            }
            rows[f].push_back(std::move(row));
        }
    }

    // Sink factory: the sink follows its stream (a migration re-attaches
    // it on the target server -- sinks are runtime wiring, not record
    // state), so it takes the serving home explicitly.
    const auto make_sink = [&alarms, &rows, bootstrap_bins](stream_server& home,
                                                           stream_id sid, std::size_t f) {
        return [&alarms, &rows, &home, bootstrap_bins, sid, f](
                   std::uint64_t seq, const detection_result& r) {
            if (!r.anomalous) return;
            alarm_record rec;
            rec.t = bootstrap_bins + static_cast<std::size_t>(seq);
            rec.spe = r.spe;
            rec.threshold = r.threshold;
            const auto& stream = dynamic_cast<const streaming_diagnoser&>(home.stream(sid));
            const diagnosis d = stream.current().diagnose(rows[f][seq]);
            if (d.flow) {
                rec.have_flow = true;
                rec.flow = *d.flow;
                rec.estimated_bytes = d.estimated_bytes;
            }
            alarms[f].push_back(rec);
        };
    };

    for (std::size_t f = 0; f < feeds.size(); ++f) {
        stream_open_config cfg;
        cfg.kind = stream_kind::diagnoser;
        cfg.a = feeds[f].routing.a;
        cfg.bootstrap_y.assign(bootstrap_bins, feeds[f].link_count());
        for (std::size_t t = 0; t < bootstrap_bins; ++t) {
            cfg.bootstrap_y.set_row(t, feeds[f].link_loads.row(t));
        }
        cfg.streaming.window = 432;
        cfg.streaming.refit_interval = 144;  // refit once per day...
        cfg.streaming.mode = refit_mode::deferred;
        cfg.streaming.swap_horizon = 8;  // ...swapped in 80 minutes after the trigger
        cfg.streaming.confidence = 0.999;
        cfg.ingest.capacity = 256;  // the collector's fan-in buffer
        ids[f] = server.open_stream(std::move(cfg));
        server.set_ingest_sink(ids[f], make_sink(server, ids[f], f));
    }

    // Where each feed's stream lives at the end of the run (the west
    // feed moves in loopback mode). Written by its collector thread
    // before the join, read after.
    struct feed_home {
        stream_server* host = nullptr;
        stream_id id = 0;
    };
    std::vector<feed_home> homes(feeds.size());
    for (std::size_t f = 0; f < feeds.size(); ++f) homes[f] = {&server, ids[f]};

    // Loopback mode: serve both hosts over 127.0.0.1 TCP.
    std::optional<net::netdiag_frontend> frontend, standby_frontend;
    if (loopback) {
        frontend.emplace(server);
        standby_frontend.emplace(standby);
        std::printf("loopback mode: collectors speak the wire protocol to port %u; the\n"
                    "west feed migrates to a standby host (port %u) mid-run\n\n",
                    frontend->port(), standby_frontend->port());
    }
    std::printf("monitoring %zu feeds of %s: one ingest thread per feed, "
                "one shared pool of %zu threads\n\n",
                server.stream_count(), feeds[0].topo.name().c_str(), server.pool_size());

    // One collector thread per regional feed, ingesting concurrently --
    // no shared clock, no cross-feed ordering. In loopback mode each
    // collector is a wire client; the west feed's collector additionally
    // drives the migration at half-run and re-points itself.
    constexpr std::size_t k_migrate_feed = 2;
    constexpr std::size_t k_migrate_bin = 300;
    std::vector<std::thread> collectors;
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        collectors.emplace_back([&, f] {
            if (!loopback) {
                for (const vec& row : rows[f]) {
                    const ingest_result r = server.ingest(ids[f], row);
                    if (!r.ok()) {
                        std::fprintf(stderr, "%s collector: ingest error %d\n",
                                     feed_names[f], static_cast<int>(r.error));
                        return;
                    }
                }
                return;
            }
            net::remote_collector client(frontend->port());
            std::uint64_t id = ids[f];
            for (std::size_t i = 0; i < rows[f].size(); ++i) {
                if (f == k_migrate_feed && i == k_migrate_bin) {
                    // Quiesce + detach on the source, restore on the
                    // standby, re-attach the sink (runtime wiring does
                    // not travel in the record), re-point this client.
                    net::remote_collector source(frontend->port());
                    net::remote_collector target(standby_frontend->port());
                    const std::uint64_t moved = net::migrate_stream(source, id, target);
                    standby.set_ingest_sink(moved, make_sink(standby, moved, f));
                    client = net::remote_collector(standby_frontend->port());
                    id = moved;
                    homes[f] = {&standby, moved};
                }
                const ingest_result r = client.ingest(id, rows[f][i]);
                if (!r.ok()) {
                    std::fprintf(stderr, "%s collector: ingest error %d\n", feed_names[f],
                                 static_cast<int>(r.error));
                    return;
                }
            }
            client.flush(id);
        });
    }
    for (std::thread& c : collectors) c.join();
    // Shutdown: apply every feed's residual bins, then join the background
    // refits so the final report reflects a settled pair of hosts.
    server.flush_all();
    standby.flush_all();
    server.drain_all();
    standby.drain_all();

    // Report, capped like a NOC console would be: the weekend regime
    // shift alarms too (the bootstrap saw only weekdays) until the daily
    // refits absorb it.
    std::size_t total_alarms = 0, printed = 0;
    for (std::size_t f = 0; f < feeds.size(); ++f) total_alarms += alarms[f].size();
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        for (const alarm_record& rec : alarms[f]) {
            if (++printed > 12) continue;
            const std::size_t minutes = (rec.t % 144) * 10;
            std::printf("[%-4s day %zu %02zu:%02zu] ALARM  SPE=%.2e (threshold %.2e)",
                        feed_names[f], rec.t / 144, minutes / 60, minutes % 60, rec.spe,
                        rec.threshold);
            if (rec.have_flow) {
                const od_pair pair = feeds[f].routing.pairs[rec.flow];
                std::printf("  flow %s->%s  %+.2e bytes",
                            feeds[f].topo.pop_name(pair.origin).c_str(),
                            feeds[f].topo.pop_name(pair.destination).c_str(),
                            rec.estimated_bytes);
            }
            std::printf("%s\n", printed == 12 ? "  (further alarms elided)" : "");
        }
    }

    std::printf("\n");
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        const stream_server::stream_stats st = homes[f].host->stats(homes[f].id);
        const ingest_stats in = homes[f].host->ingest_statistics(homes[f].id);
        std::printf("%-4s feed: %llu ingested / %zu applied, %zu alarms, model epoch %llu%s\n",
                    feed_names[f], static_cast<unsigned long long>(in.accepted),
                    st.processed, st.alarms, static_cast<unsigned long long>(st.epoch),
                    homes[f].host == &standby ? "  (migrated to standby)" : "");
    }
    std::printf("\nexpected: alarms on east at day 4 04:00 (chin->losa surge, +2.5e8) and\n"
                "day 5 18:20 (nycm->sttl drop, -2.0e8), on west at day 4 20:40 (dnvr->atla\n"
                "surge, +3.0e8), plus weekend regime-shift alarms on every feed until the\n"
                "daily background refits absorb the new level; each feed's epochs advance\n"
                "with its own refits, bit-identical to monitoring that feed alone even\n"
                "though the three collectors ingest with no coordination at all.\n");
    return total_alarms > 0 ? 0 : 1;
}
