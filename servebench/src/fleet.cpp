#include "fleet.h"

#include <algorithm>
#include <barrier>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/migration.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "probe.h"

namespace servebench {

namespace net = netdiag::net;

namespace {

// A verdict that has not arrived this long after its ingest returned
// means the stack lost it; the run fails instead of hanging.
constexpr std::uint64_t k_verdict_timeout_ns = 30'000'000'000ull;
constexpr std::size_t k_max_errors = 8;

void note(phase_result& out, std::string what) {
    ++out.failed;
    if (out.errors.size() < k_max_errors) out.errors.push_back(std::move(what));
}

double us_between(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e3; }
double ms_between(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; }

// Pins the thread that appeared since `before` (the frontend's thread for
// a connection just accepted) to `cpu`.
void pin_new_thread(const std::vector<int>& before, int cpu) {
    const std::uint64_t t0 = now_ns();
    for (;;) {
        for (const int tid : thread_ids()) {
            if (!std::binary_search(before.begin(), before.end(), tid)) {
                pin_thread(tid, {cpu});
                return;
            }
        }
        if (now_ns() - t0 > 5'000'000'000ull) {
            throw std::runtime_error("no frontend thread appeared for a new connection");
        }
        std::this_thread::yield();
    }
}

}  // namespace

// Per-stream state. The producer owning the stream writes `server`, `id`
// and `sent`; the sink (on whichever thread drains the stream) writes the
// verdict-side fields and publishes them through the producer's
// `delivered` counter, which the producer reads with acquire.
struct fleet::slot {
    std::size_t index = 0;
    int server = 0;
    netdiag::stream_id id = 0;
    std::uint64_t sent = 0;

    std::atomic<std::uint64_t>* delivered = nullptr;
    std::uint64_t next_sequence = 0;
    bool in_order = true;
    bool record = false;  // digest verdicts for the correctness replay
    verdict_digest digest;
    const netdiag::stream_detector* detector = nullptr;
    bool stamp = false;  // traced: remember when the verdict arrived
    std::uint64_t delivered_ns = 0;

    void on_verdict(std::uint64_t sequence, const netdiag::detection_result& r) {
        if (sequence != next_sequence) in_order = false;
        next_sequence = sequence + 1;
        if (record) digest.add(sequence, r, detector->model_epoch());
        if (stamp) delivered_ns = now_ns();
        delivered->fetch_add(1, std::memory_order_release);
    }
};

struct fleet::producer {
    std::size_t index = 0;
    std::vector<std::size_t> streams;
    std::atomic<std::uint64_t> delivered{0};
    std::uint64_t expected = 0;  // verdicts owed for accepted bins
    std::uint64_t intervals = 0;
    std::size_t next_migration = 0;
    std::array<std::unique_ptr<net::remote_collector>, 2> collectors;
};

fleet::fleet(const workload_inputs& in, transport via, std::vector<int> producer_cpus)
    : in_(in), via_(via), producer_cpus_(std::move(producer_cpus)) {
    for (int s = 0; s < 2; ++s) {
        servers_[s] = std::make_unique<netdiag::stream_server>(
            netdiag::stream_server_config{k_server_threads});
    }
    for (std::size_t p = 0; p < k_producers; ++p) {
        producers_.push_back(std::make_unique<producer>());
        producers_.back()->index = p;
    }
    logs_.resize(k_producers);
    for (std::size_t k = 0; k < in.streams.size(); ++k) {
        auto s = std::make_unique<slot>();
        s->index = k;
        producer& owner = *producers_.at(in.streams[k].producer);
        s->delivered = &owner.delivered;
        owner.streams.push_back(k);
        slots_.push_back(std::move(s));
    }
    for (const std::size_t k : in.replay) slots_[k]->record = true;
    // Each producer's streams alternate between the two servers, so the
    // rolling rebalance keeps them near half and half.
    for (const auto& p : producers_) {
        for (std::size_t j = 0; j < p->streams.size(); ++j) {
            open_stream(p->streams[j], static_cast<int>(j % 2));
        }
    }
    if (via_ == transport::wire) {
        for (int s = 0; s < 2; ++s) {
            frontends_[s] = std::make_unique<net::netdiag_frontend>(*servers_[s]);
        }
        for (const auto& p : producers_) {
            for (int s = 0; s < 2; ++s) {
                const std::vector<int> before = thread_ids();
                p->collectors[s] = std::make_unique<net::remote_collector>(frontends_[s]->port());
                if (p->index < producer_cpus_.size()) {
                    pin_new_thread(before, producer_cpus_[p->index]);
                }
            }
        }
    }
}

fleet::~fleet() {
    for (const auto& p : producers_) {
        for (auto& c : p->collectors) c.reset();
    }
    for (auto& f : frontends_) {
        if (f) f->stop();
    }
}

netdiag::ingest_sink fleet::sink_for(slot& s) {
    slot* target = &s;
    return [target](std::uint64_t sequence, const netdiag::detection_result& r) {
        target->on_verdict(sequence, r);
    };
}

void fleet::attach(slot& s, int server, netdiag::stream_id id) {
    s.server = server;
    s.id = id;
    s.detector = &servers_[server]->stream(id);
}

void fleet::open_stream(std::size_t k, int server) {
    const stream_input& si = in_.streams[k];
    netdiag::stream_open_config cfg;
    cfg.kind = netdiag::stream_kind::diagnoser;
    cfg.bootstrap_y = si.bootstrap_rows();
    cfg.a = *si.routing;
    cfg.streaming = in_.spec.streaming;
    cfg.ingest.sink = sink_for(*slots_[k]);
    const std::uint64_t t0 = now_ns();
    const netdiag::stream_id id = servers_[server]->open_stream(std::move(cfg));
    bootstrap_ms_.push_back(ms_between(t0, now_ns()));
    attach(*slots_[k], server, id);
}

netdiag::stream_id fleet::id_of(std::size_t k) const { return slots_.at(k)->id; }

std::uint64_t fleet::sent_of(std::size_t k) const { return slots_.at(k)->sent; }

bool fleet::send(producer& p, std::size_t k, phase_result& out, span_log* log,
                 std::uint32_t parent, std::uint64_t* call_start) {
    slot& s = *slots_[k];
    const auto y = in_.streams[k].bin(s.sent);
    const std::uint64_t t0 = now_ns();
    netdiag::ingest_result r;
    bool accepted = false;
    std::string failure;
    try {
        r = via_ == transport::wire ? p.collectors[s.server]->ingest(s.id, y)
                                    : servers_[s.server]->ingest(s.id, y);
        accepted = r.ok();
    } catch (const std::exception& e) {
        failure = e.what();
    }
    if (log != nullptr) {
        const std::uint64_t t1 = now_ns();
        const std::uint32_t i =
            log->open(via_ == transport::wire ? "net.remote_collector.ingest"
                                              : "serve.stream_server.ingest",
                      parent, request_id(k, s.sent), t0);
        log->close(i, t1);
    }
    if (call_start != nullptr) *call_start = t0;
    ++out.attempted;
    if (!accepted && failure.empty()) {
        failure = "ingest error " + std::to_string(static_cast<int>(r.error));
    }
    if (accepted && r.sequence != s.sent) {
        failure = "sequence " + std::to_string(r.sequence) + " != " + std::to_string(s.sent);
    }
    if (!failure.empty()) note(out, "stream " + std::to_string(k) + ": " + failure);
    if (!accepted) return false;
    ++s.sent;
    ++p.expected;
    return failure.empty();
}

bool fleet::await(producer& p, phase_result& out) {
    if (p.delivered.load(std::memory_order_acquire) >= p.expected) return true;
    const std::uint64_t t0 = now_ns();
    while (p.delivered.load(std::memory_order_acquire) < p.expected) {
        if (now_ns() - t0 > k_verdict_timeout_ns) {
            note(out, "producer " + std::to_string(p.index) + ": verdicts missing");
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

void fleet::migrate(producer& p, phase_result& out, span_log* log) {
    if (p.streams.empty()) return;
    const std::size_t k = p.streams[p.next_migration++ % p.streams.size()];
    slot& s = *slots_[k];
    const int src = s.server;
    const int dst = 1 - src;
    const std::uint64_t t0 = now_ns();
    netdiag::stream_id moved = 0;
    ++out.attempted;
    try {
        moved = via_ == transport::wire
                    ? net::migrate_stream(*p.collectors[src], s.id, *p.collectors[dst])
                    : net::migrate_stream(*servers_[src], s.id, *servers_[dst]);
    } catch (const std::exception& e) {
        // The stream is lost with its record; stop feeding it.
        note(out, "migrate stream " + std::to_string(k) + ": " + e.what());
        std::erase(p.streams, k);
        return;
    }
    const std::uint64_t t1 = now_ns();
    out.migrate_ms.push_back(ms_between(t0, t1));
    attach(s, dst, moved);
    servers_[dst]->set_ingest_sink(moved, sink_for(s));
    if (log != nullptr) {
        const std::uint64_t t2 = now_ns();
        const std::uint32_t root = log->open("bench.migration", k_no_parent, request_id(k, s.sent), t0);
        log->close(root, t2);
        const std::uint32_t m = log->open("net.migrate_stream", root, request_id(k, s.sent), t0);
        log->close(m, t1);
        const std::uint32_t a = log->open("serve.set_ingest_sink", root, request_id(k, s.sent), t1);
        log->close(a, t2);
    }
}

bool fleet::first_bin() {
    phase_result scratch;
    producer& p = *producers_[in_.streams[0].producer];
    return send(p, 0, scratch, nullptr, k_no_parent, nullptr) && await(p, scratch);
}

void fleet::warm_up() {
    phase_result scratch;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        slot& s = *slots_[k];
        producer& p = *producers_[in_.streams[k].producer];
        for (std::uint64_t i = 0; i < in_.stagger[k]; ++i) {
            const netdiag::ingest_result r =
                servers_[s.server]->ingest(s.id, in_.streams[k].bin(s.sent));
            if (!r.ok() || r.sequence != s.sent) {
                throw std::runtime_error("warm-up ingest into stream " + std::to_string(k) +
                                         " failed");
            }
            ++s.sent;
            ++p.expected;
        }
    }
    for (const auto& p : producers_) {
        if (!await(*p, scratch)) throw std::runtime_error("warm-up verdicts missing");
    }
}

// The rolling rebalance is one step for all producers: each finishes its
// k_migrate_every-th interval, every producer migrates one stream, and all
// resume together. A migration then never lands inside another
// producer's interval, and the run ends on a step once the deadline has
// passed (checked by the barrier's completion, so all producers agree).
struct fleet::rebalance {
    struct on_step {
        rebalance* self;
        void operator()() noexcept { self->stop = now_ns() >= self->deadline_ns; }
    };
    explicit rebalance(std::size_t producers)
        : gate(static_cast<std::ptrdiff_t>(producers), on_step{this}) {}

    std::uint64_t deadline_ns = 0;  // set before the producers start
    bool stop = false;              // written only by on_step
    std::barrier<on_step> gate;
};

void fleet::drive(producer& p, bool traced, span_log* log, rebalance& step,
                  phase_result& out) {
    std::vector<std::uint64_t> starts(p.streams.size());
    std::vector<std::size_t> sent_now;
    sent_now.reserve(p.streams.size());
    for (;;) {
        if (p.streams.empty()) {
            step.gate.arrive_and_drop();
            return;
        }
        const std::uint64_t t0 = now_ns();
        std::uint32_t root = k_no_parent;
        if (traced) root = log->open("bench.interval", k_no_parent, request_id(p.index, p.intervals), t0);
        sent_now.clear();
        for (std::size_t j = 0; j < p.streams.size(); ++j) {
            if (send(p, p.streams[j], out, traced ? log : nullptr, root, &starts[j])) {
                sent_now.push_back(j);
            }
        }
        const std::uint64_t w0 = traced ? now_ns() : 0;
        const bool delivered = await(p, out);
        const std::uint64_t t1 = now_ns();
        if (traced) {
            const std::uint32_t w = log->open("serve.sink_wait", root, request_id(p.index, p.intervals), w0);
            log->close(w, t1);
            log->close(root, t1);
            std::uint64_t last_delivery = t0;
            for (const std::size_t j : sent_now) {
                const std::uint64_t d = slots_[p.streams[j]]->delivered_ns;
                out.lag_us.push_back(us_between(starts[j], d));
                last_delivery = std::max(last_delivery, d);
            }
            out.interval_roots.emplace_back(root, last_delivery - t0);
        }
        if (!delivered) {
            step.gate.arrive_and_drop();
            return;
        }
        out.interval_ms.push_back(ms_between(t0, t1));
        if (++p.intervals % k_migrate_every != 0) continue;
        step.gate.arrive_and_wait();
        if (step.stop) return;
        migrate(p, out, traced ? log : nullptr);
        step.gate.arrive_and_wait();
    }
}

phase_result fleet::run(double seconds, bool traced) {
    for (const auto& s : slots_) s->stamp = traced;
    const std::uint64_t delivered_before = [&] {
        std::uint64_t n = 0;
        for (const auto& p : producers_) n += p->delivered.load(std::memory_order_acquire);
        return n;
    }();
    std::vector<phase_result> parts(producers_.size());
    std::atomic<bool> go{false};
    rebalance step(producers_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < producers_.size(); ++i) {
        if (traced) logs_[i].reserve(logs_[i].spans().size() + 1'000'000);
        threads.emplace_back([&, i] {
            if (i < producer_cpus_.size()) pin_current_thread({producer_cpus_[i]});
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            try {
                drive(*producers_[i], traced, traced ? &logs_[i] : nullptr, step, parts[i]);
            } catch (const std::exception& e) {
                note(parts[i], std::string("producer stopped: ") + e.what());
                step.gate.arrive_and_drop();
            }
        });
    }
    const std::uint64_t start = now_ns();
    step.deadline_ns = start + static_cast<std::uint64_t>(seconds * 1e9);
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    const std::uint64_t end = now_ns();

    phase_result out;
    out.start_ns = start;
    out.wall_s = static_cast<double>(end - start) / 1e9;
    for (phase_result& part : parts) {
        auto append = [](std::vector<double>& to, const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(out.interval_ms, part.interval_ms);
        append(out.migrate_ms, part.migrate_ms);
        append(out.lag_us, part.lag_us);
        out.attempted += part.attempted;
        out.failed += part.failed;
        for (auto& e : part.errors) {
            if (out.errors.size() < k_max_errors) out.errors.push_back(std::move(e));
        }
    }
    std::uint64_t delivered_after = 0;
    for (const auto& p : producers_) delivered_after += p->delivered.load(std::memory_order_acquire);
    out.verdicts = delivered_after - delivered_before;

    if (traced) {
        // Sum-to-makespan over every interval of this phase: the self
        // times of an interval's spans against its makespan as the sink's
        // delivery stamps measured it.
        std::uint64_t total = 0;
        std::uint64_t attributed = 0;
        for (std::size_t i = 0; i < producers_.size(); ++i) {
            const auto& spans = logs_[i].spans();
            const auto children = child_index(spans);
            for (const auto& [root, makespan] : parts[i].interval_roots) {
                const makespan_check c = check_makespan(spans, root, children, makespan);
                out.excess_us.push_back(c.excess_ns() / 1e3);
                if (!c.ok) ++out.makespans_outside;
                total += spans[root].duration_ns();
                attributed += spans[root].duration_ns() - self_time_ns(spans, root, children);
            }
        }
        out.attributed_share = total > 0 ? static_cast<double>(attributed) / static_cast<double>(total) : 0.0;
    }
    return out;
}

double fleet::step(std::size_t k) {
    producer& p = *producers_[in_.streams[k].producer];
    phase_result scratch;
    const std::uint64_t t0 = now_ns();
    const bool ok = send(p, k, scratch, nullptr, k_no_parent, nullptr);
    const std::uint64_t t1 = now_ns();
    if (!ok || !await(p, scratch)) return -1.0;
    return us_between(t0, t1);
}

migration_probe fleet::probe_migration(std::size_t k) {
    if (via_ != transport::wire) throw std::logic_error("probe_migration needs the wire transport");
    slot& s = *slots_[k];
    producer& p = *producers_[in_.streams[k].producer];
    net::remote_collector& rc = *p.collectors[s.server];
    netdiag::stream_server& server = *servers_[s.server];
    migration_probe m;

    std::uint64_t t0 = now_ns();
    const std::string record = rc.snapshot(s.id, /*detach=*/true);
    const netdiag::stream_id wired = rc.restore(record);
    m.wire_ms = ms_between(t0, now_ns());
    m.record_bytes = record.size();

    t0 = now_ns();
    volatile std::uint32_t crc = net::crc32(record);
    (void)crc;
    m.crc_ms = ms_between(t0, now_ns());

    std::ostringstream detached(std::ios::binary);
    t0 = now_ns();
    server.detach_stream(wired, detached, netdiag::ckpt::encoding::interchange);
    m.detach_ms = ms_between(t0, now_ns());
    std::istringstream restore_from(std::move(detached).str(), std::ios::binary);
    t0 = now_ns();
    const netdiag::stream_id local = server.restore_stream(restore_from);
    m.restore_ms = ms_between(t0, now_ns());

    std::ostringstream native(std::ios::binary);
    t0 = now_ns();
    server.snapshot_stream(local, native, netdiag::ckpt::encoding::native);
    m.native_ms = ms_between(t0, now_ns());

    attach(s, s.server, local);
    server.set_ingest_sink(local, sink_for(s));
    return m;
}

fleet_audit fleet::audit() const {
    fleet_audit a;
    for (const auto& sp : slots_) {
        const slot& s = *sp;
        const netdiag::stream_server& server = *servers_[s.server];
        const netdiag::ingest_stats st = server.ingest_statistics(s.id);
        const std::string label = "stream " + std::to_string(s.index) + " (" +
                                  in_.streams[s.index].label + "): ";
        if (std::string e = check_conservation(st, s.sent); !e.empty()) a.errors.push_back(label + e);
        if (!s.in_order || s.next_sequence != s.sent) {
            a.errors.push_back(label + "verdicts out of sequence order or missing");
        }
        a.sent.push_back(s.sent);
        a.totals.accepted += st.accepted;
        a.totals.applied += st.applied;
        a.totals.dropped += st.dropped;
        a.totals.rejected += st.rejected;
        a.totals.pending += st.pending;
        const auto stats = server.stats(s.id);
        a.epochs += stats.epoch;
        a.processed += stats.processed;
        a.alarms += stats.alarms;
    }
    for (const std::size_t k : in_.replay) a.served.push_back(slots_[k]->digest);
    return a;
}

namespace {

// net::encode_frame + net::frame_decoder (and the payload codec) over
// one bin's ingest request and its response, as the two ends of a
// remote_collector::ingest would run them.
double codec_us(std::uint64_t stream, std::span<const double> y, std::uint64_t sequence,
                std::size_t& frame_bytes) {
    const std::uint64_t t0 = now_ns();
    net::ingest_batch_request req;
    req.stream = stream;
    req.bins.emplace_back(y.begin(), y.end());
    const std::string request = net::encode_frame(
        static_cast<std::uint8_t>(net::msg_type::req_ingest_batch), net::encode(req));
    net::frame_decoder server_side;
    server_side.feed(request);
    net::frame f;
    if (server_side.next(f) != net::frame_decoder::progress::frame_ready) {
        throw std::runtime_error("codec probe: request frame did not decode");
    }
    const net::ingest_batch_request decoded = net::decode_ingest_batch_request(f.payload);
    const std::string response = net::encode_frame(
        static_cast<std::uint8_t>(net::msg_type::resp_ingest_batch),
        net::encode(net::ingest_batch_response{sequence, decoded.bins.size()}));
    net::frame_decoder client_side;
    client_side.feed(response);
    if (client_side.next(f) != net::frame_decoder::progress::frame_ready) {
        throw std::runtime_error("codec probe: response frame did not decode");
    }
    (void)net::decode_ingest_batch_response(f.payload);
    const std::uint64_t t1 = now_ns();
    frame_bytes = request.size() + response.size();
    return us_between(t0, t1);
}

}  // namespace

ladder_result run_ladder(const workload_inputs& in, double seconds, std::size_t migration_probes,
                         const std::vector<int>& producer_cpus) {
    fleet wire(in, transport::wire, producer_cpus);
    fleet local(in, transport::local, producer_cpus);
    wire.warm_up();
    local.warm_up();

    std::vector<ladder_result> parts(k_producers);
    std::vector<std::uint64_t> bytes(k_producers, 0);
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < k_producers; ++p) {
        threads.emplace_back([&, p] {
            if (p < producer_cpus.size()) pin_current_thread({producer_cpus[p]});
            ladder_result& r = parts[p];
            std::vector<std::size_t> mine;
            for (std::size_t k = 0; k < in.streams.size(); ++k) {
                if (in.streams[k].producer == p) mine.push_back(k);
            }
            try {
                while (now_ns() < deadline) {
                    for (const std::size_t k : mine) {
                        const std::uint64_t seq = wire.sent_of(k);
                        const double w = wire.step(k);
                        const double l = local.step(k);
                        if (w < 0 || l < 0) {
                            ++r.failed;
                            continue;
                        }
                        r.rtt_us.push_back(w);
                        r.local_us.push_back(l);
                        std::size_t frame_bytes = 0;
                        r.codec_us.push_back(
                            codec_us(wire.id_of(k), in.streams[k].bin(seq), seq, frame_bytes));
                        bytes[p] += frame_bytes;
                    }
                }
            } catch (const std::exception&) {
                ++r.failed;  // a thrown call ends this rung; the run is incorrect
            }
        });
    }
    for (auto& t : threads) t.join();

    ladder_result out;
    std::uint64_t total_bytes = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        auto append = [](std::vector<double>& to, const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(out.rtt_us, parts[p].rtt_us);
        append(out.local_us, parts[p].local_us);
        append(out.codec_us, parts[p].codec_us);
        out.failed += parts[p].failed;
        total_bytes += bytes[p];
    }
    out.bytes_per_bin = out.rtt_us.empty() ? 0.0
                                           : static_cast<double>(total_bytes) /
                                                 static_cast<double>(out.rtt_us.size());
    // Always the same stream, so the record (and its size) is comparable
    // from run to run: the first replayed stream.
    for (std::size_t i = 0; i < migration_probes; ++i) {
        out.migrations.push_back(wire.probe_migration(in.replay.front()));
    }
    return out;
}

}  // namespace servebench
