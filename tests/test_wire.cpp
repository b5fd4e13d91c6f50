// The wire protocol's byte-level contracts: CRC known answers, framing
// round trips under every split, typed decode errors, and the seeded
// fuzz battery -- >= 10k deterministic mutations (truncations, bit
// flips, length lies, CRC and version corruption) across the frame
// layer, the op payload layer and the interchange record layer, none of
// which may crash, over-read (ASan/UBSan in CI) or partially apply.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "measurement/stream_checkpoint.h"
#include "net/frontend.h"
#include "net/protocol.h"
#include "net/remote_collector.h"
#include "serve/stream_server.h"
#include "subspace/online.h"

namespace netdiag {
namespace {

using net::frame;
using net::frame_decoder;
using net::frame_error;
using net::msg_type;

std::uint8_t type_byte(msg_type t) { return static_cast<std::uint8_t>(t); }

// ---------------------------------------------------------------------------
// CRC32.
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesTheIeeeKnownAnswer) {
    // The check value every IEEE-802.3 CRC32 implementation agrees on.
    EXPECT_EQ(net::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(net::crc32(""), 0x00000000u);
    EXPECT_EQ(net::crc32(std::string(1, '\0')), 0xD202EF8Du);
}

// The byte-at-a-time CRC the sliced kernel replaced, kept as the oracle.
std::uint32_t crc32_oracle(std::string_view bytes) {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
            t[n] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xFFFFFFFFu;
    for (const char ch : bytes) {
        c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::string out(n, '\0');
    for (char& ch : out) ch = static_cast<char>(rng());
    return out;
}

TEST(Crc32, SlicedKernelMatchesTheByteAtATimeOracle) {
    // Every length across the 16-byte blocks and the tail, from every
    // alignment of the start.
    const std::string buf = random_bytes(16 + 80, 0xC12C);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 80; ++len) {
            const std::string_view bytes = std::string_view(buf).substr(offset, len);
            ASSERT_EQ(net::crc32(bytes), crc32_oracle(bytes)) << offset << "+" << len;
        }
    }
    const std::string big = random_bytes(std::size_t{1} << 20, 0xB16);
    EXPECT_EQ(net::crc32(big), crc32_oracle(big));
}

TEST(Crc32, IncrementalFormEqualsOneShotAtEverySplit) {
    const std::string buf = random_bytes(1024, 0x5417);
    const std::uint32_t whole = net::crc32(buf);
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        const std::string_view head = std::string_view(buf).substr(0, split);
        const std::string_view tail = std::string_view(buf).substr(split);
        ASSERT_EQ(net::crc32(tail, net::crc32(head)), whole) << split;
    }
}

TEST(Crc32, DetectsEverySingleBitFlipInASmallMessage) {
    const std::string msg = "netdiag wire";
    const std::uint32_t good = net::crc32(msg);
    for (std::size_t byte = 0; byte < msg.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = msg;
            bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
            EXPECT_NE(net::crc32(bad), good) << "byte " << byte << " bit " << bit;
        }
    }
}

// ---------------------------------------------------------------------------
// Framing round trips and incremental decoding.
// ---------------------------------------------------------------------------

TEST(FrameDecoder, RoundTripsAcrossEverySplitPoint) {
    const frame original{type_byte(msg_type::req_stats), "some payload bytes"};
    const std::string bytes = net::encode_frame(original);

    // Every possible two-part split, plus byte-by-byte feeding: an
    // incremental decoder must be insensitive to how recv chunks the
    // stream.
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        frame_decoder dec;
        frame out;
        dec.feed(std::string_view(bytes).substr(0, split));
        if (split < bytes.size()) {
            EXPECT_EQ(dec.next(out), frame_decoder::progress::need_more) << split;
            dec.feed(std::string_view(bytes).substr(split));
        }
        ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready) << split;
        EXPECT_EQ(out, original) << split;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::need_more);
        EXPECT_EQ(dec.buffered(), 0u);
    }

    frame_decoder byte_by_byte;
    frame out;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        byte_by_byte.feed(std::string_view(bytes).substr(i, 1));
        EXPECT_EQ(byte_by_byte.next(out), frame_decoder::progress::need_more) << i;
    }
    byte_by_byte.feed(std::string_view(bytes).substr(bytes.size() - 1, 1));
    ASSERT_EQ(byte_by_byte.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, original);
}

TEST(FrameDecoder, ExtractsBackToBackFramesFromOneFeed) {
    const frame a{type_byte(msg_type::req_flush), "aaa"};
    const frame b{type_byte(msg_type::resp_flush), ""};
    const frame c{type_byte(msg_type::req_stats), std::string(1000, 'x')};
    frame_decoder dec;
    dec.feed(net::encode_frame(a) + net::encode_frame(b) + net::encode_frame(c));
    frame out;
    ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, a);
    ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, b);
    ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, c);
    EXPECT_EQ(dec.next(out), frame_decoder::progress::need_more);
}

TEST(FrameDecoder, TypedErrorsAndPoisoning) {
    const std::string good = net::encode_frame({type_byte(msg_type::req_flush), "pay"});

    {  // bad magic, detected from the very first byte
        frame_decoder dec;
        dec.feed("XD");
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_magic);
        // Poisoned: new input is ignored, the error sticks.
        dec.feed(good);
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_magic);
    }
    {  // wrong version, detected from the third byte
        frame_decoder dec;
        std::string bytes = good;
        bytes[2] = static_cast<char>(net::k_wire_version + 1);
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_version);
    }
    {  // length beyond the cap: rejected before any payload allocation
        frame_decoder dec;
        std::string bytes = good;
        bytes[4] = static_cast<char>(0xFF);
        bytes[5] = static_cast<char>(0xFF);
        bytes[6] = static_cast<char>(0xFF);
        bytes[7] = static_cast<char>(0x7F);
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_length);
    }
    {  // payload corruption lands on the CRC
        frame_decoder dec;
        std::string bytes = good;
        bytes[net::k_wire_header_bytes] ^= 0x01;
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_crc);
    }
}

TEST(FrameEncode, RejectsOversizedPayloads) {
    frame f{type_byte(msg_type::req_restore), {}};
    f.payload.resize(net::k_max_payload + 1);
    EXPECT_THROW((void)net::encode_frame(f), std::invalid_argument);
    EXPECT_THROW((void)net::envelope(f.type, f.payload), std::invalid_argument);
}

// The bytes on the wire, pinned: header, payload, CRC trailer as
// docs/WIRE_FORMAT.md lays them out (trailer from zlib's crc32). The
// gathered send writes envelope.header, the payload, envelope.trailer:
// the same bytes encode_frame joins.
TEST(FrameEncode, EnvelopeAroundThePayloadIsTheEncodedFrame) {
    const std::string expected("ND\x01\x02\x03\x00\x00\x00pay\x52\xD6\x90\x1D", 15);
    EXPECT_EQ(net::encode_frame(type_byte(msg_type::req_flush), "pay"), expected);

    for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{4099}}) {
        const std::string payload = random_bytes(len, len);
        const net::frame_envelope env = net::envelope(type_byte(msg_type::resp_snapshot), payload);
        std::string gathered(env.header.data(), env.header.size());
        gathered += payload;
        gathered.append(env.trailer.data(), env.trailer.size());
        EXPECT_EQ(gathered, net::encode_frame(type_byte(msg_type::resp_snapshot), payload)) << len;
    }
}

// The socket path: each read lands in the decoder's own window, and a
// frame that spans reads arrives in the string next() hands out. A
// mebibyte frame (and a small one right behind it) must come out intact
// however the reads chunk the stream.
TEST(FrameDecoder, MebibyteFrameRoundTripsThroughTheReceiveWindow) {
    const frame big{type_byte(msg_type::resp_snapshot), random_bytes((1u << 20) + 13, 0xF00D)};
    const frame small{type_byte(msg_type::resp_flush), "ok"};
    const std::string stream = net::encode_frame(big) + net::encode_frame(small);

    const std::array<std::size_t, 4> chunks = {1, 7, std::size_t{16} << 10, stream.size()};
    for (const std::size_t chunk : chunks) {
        frame_decoder dec;
        std::vector<frame> got;
        std::size_t offset = 0;
        while (offset < stream.size()) {
            const std::span<char> window = dec.prepare();
            ASSERT_FALSE(window.empty());
            const std::size_t n = std::min({chunk, window.size(), stream.size() - offset});
            std::memcpy(window.data(), stream.data() + offset, n);
            dec.commit(n);
            offset += n;
            frame out;
            frame_decoder::progress p;
            while ((p = dec.next(out)) == frame_decoder::progress::frame_ready) {
                got.push_back(std::move(out));
            }
            ASSERT_EQ(p, frame_decoder::progress::need_more) << chunk << " @" << offset;
        }
        ASSERT_EQ(got.size(), 2u) << chunk;
        EXPECT_TRUE(got[0] == big) << chunk;
        EXPECT_EQ(got[1], small) << chunk;
        EXPECT_EQ(dec.buffered(), 0u) << chunk;
    }
}

// A frame spanning reads is still CRC-checked before it is released.
TEST(FrameDecoder, FrameSpanningReadsStillFailsOnItsCrc) {
    const std::string payload = random_bytes(100000, 0xBAD);
    std::string bytes = net::encode_frame(type_byte(msg_type::req_restore), payload);
    bytes[net::k_wire_header_bytes + 70000] ^= 0x10;
    frame_decoder dec;
    frame out;
    for (std::size_t offset = 0; offset < bytes.size(); offset += 4096) {
        dec.feed(std::string_view(bytes).substr(offset, 4096));
        if (offset + 4096 < bytes.size()) {
            ASSERT_EQ(dec.next(out), frame_decoder::progress::need_more) << offset;
        }
    }
    EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
    EXPECT_EQ(dec.error(), frame_error::bad_crc);
}

// ---------------------------------------------------------------------------
// Op payload round trips: decode(encode(x)) == x for every op type with
// a codec, at the boundary sizes (0 bins, 1 bin, max batch).
// ---------------------------------------------------------------------------

std::vector<double> pattern_bin(std::size_t width, std::uint64_t salt) {
    std::vector<double> bin(width);
    for (std::size_t i = 0; i < width; ++i) {
        bin[i] = static_cast<double>(salt * 1000 + i) * 0.5 - 3.25;
    }
    return bin;
}

TEST(ProtocolCodec, IngestBatchRoundTripsAtBoundarySizes) {
    for (const std::size_t bins : {std::size_t{0}, std::size_t{1},
                                   static_cast<std::size_t>(net::k_max_ingest_bins)}) {
        net::ingest_batch_request x;
        x.stream = 0xFEEDFACE01ull;
        // Max-batch uses width-1 bins to keep the frame small; the width
        // boundary (0) rides along on the one-bin case.
        const std::size_t width = bins == 1 ? 0 : 1;
        for (std::size_t i = 0; i < bins; ++i) x.bins.push_back(pattern_bin(width, i));
        EXPECT_EQ(net::decode_ingest_batch_request(net::encode(x)), x) << bins;
    }
    net::ingest_batch_request typical;
    typical.stream = 7;
    for (std::size_t i = 0; i < 16; ++i) typical.bins.push_back(pattern_bin(41, i));
    EXPECT_EQ(net::decode_ingest_batch_request(net::encode(typical)), typical);

    EXPECT_THROW(
        (void)net::decode_ingest_batch_request(net::encode(net::ingest_batch_request{
            1, std::vector<std::vector<double>>(net::k_max_ingest_bins + 1)})),
        net::wire_decode_error);
}

TEST(ProtocolCodec, EveryOtherOpRoundTrips) {
    const net::ingest_batch_response ibr{0xFFFFFFFFFFFFFFFFull, 42};
    EXPECT_EQ(net::decode_ingest_batch_response(net::encode(ibr)), ibr);

    const net::flush_request fr{123};
    EXPECT_EQ(net::decode_flush_request(net::encode(fr)), fr);

    for (const bool detach : {false, true}) {
        const net::snapshot_request sr{9, detach};
        EXPECT_EQ(net::decode_snapshot_request(net::encode(sr)), sr);
    }

    const net::restore_response rresp{88};
    EXPECT_EQ(net::decode_restore_response(net::encode(rresp)), rresp);

    const net::stats_request streq{5};
    EXPECT_EQ(net::decode_stats_request(net::encode(streq)), streq);

    const net::stats_response stresp{6, 100, 3, 2, 120, 100, 1, 4, 19, 120};
    EXPECT_EQ(net::decode_stats_response(net::encode(stresp)), stresp);

    const net::close_request cr{31};
    EXPECT_EQ(net::decode_close_request(net::encode(cr)), cr);

    const net::error_response er{net::wire_errc::width_mismatch, "bin width 7 != 6"};
    EXPECT_EQ(net::decode_error_response(net::encode(er)), er);
    const net::error_response empty_msg{net::wire_errc::unknown_op, ""};
    EXPECT_EQ(net::decode_error_response(net::encode(empty_msg)), empty_msg);
}

TEST(ProtocolCodec, TrailingAndTruncatedPayloadsAreTypedErrors) {
    const std::string good = net::encode(net::flush_request{1});
    EXPECT_THROW((void)net::decode_flush_request(good + "x"), net::wire_decode_error);
    EXPECT_THROW((void)net::decode_flush_request(std::string_view(good).substr(0, 4)),
                 net::wire_decode_error);
    EXPECT_THROW((void)net::decode_stats_response(good), net::wire_decode_error);
    EXPECT_NO_THROW(net::decode_empty("", "x"));
    EXPECT_THROW(net::decode_empty("y", "x"), net::wire_decode_error);
}

// ---------------------------------------------------------------------------
// Fuzz battery. All corpora are seeded mt19937_64: failures reproduce.
// ---------------------------------------------------------------------------

// One mutation of `bytes` drawn from the attack classes the satellite
// names: truncation, bit flips, length lies, CRC corruption, version
// corruption, duplication and garbage prefixes.
std::string mutate(const std::string& bytes, std::mt19937_64& rng) {
    std::string out = bytes;
    switch (rng() % 7) {
        case 0:  // truncate anywhere
            out.resize(out.empty() ? 0 : rng() % out.size());
            break;
        case 1: {  // flip 1..8 random bits
            if (out.empty()) break;
            const std::size_t flips = 1 + rng() % 8;
            for (std::size_t f = 0; f < flips; ++f) {
                out[rng() % out.size()] ^= static_cast<char>(1 << (rng() % 8));
            }
            break;
        }
        case 2: {  // lie in the length field (frame offset 4..7)
            if (out.size() < 8) break;
            for (std::size_t i = 4; i < 8; ++i) {
                out[i] = static_cast<char>(rng());
            }
            break;
        }
        case 3: {  // corrupt the CRC trailer
            if (out.size() < 4) break;
            out[out.size() - 1 - rng() % 4] ^= static_cast<char>(1 + rng() % 255);
            break;
        }
        case 4:  // wrong version byte
            if (out.size() >= 3) out[2] = static_cast<char>(rng());
            break;
        case 5:  // duplicate a chunk of itself (length lies of the other kind)
            out += out.substr(out.size() / 2);
            break;
        default:  // garbage prefix
            out.insert(0, std::string(1 + rng() % 5, static_cast<char>(rng())));
            break;
    }
    return out;
}

// Drives one mutated byte string through a fresh decoder in random-size
// chunks, then through the payload decoders when a frame survives.
// Returns the number of frames extracted (for corpus sanity stats).
std::size_t exercise_decoder(const std::string& bytes, std::mt19937_64& rng) {
    frame_decoder dec;
    std::size_t offset = 0;
    std::size_t frames = 0;
    frame out;
    for (;;) {
        const frame_decoder::progress p = dec.next(out);
        if (p == frame_decoder::progress::error) {
            EXPECT_NE(dec.error(), frame_error::none);
            return frames;
        }
        if (p == frame_decoder::progress::frame_ready) {
            ++frames;
            // A frame that survived CRC may still carry a malformed
            // payload; every decoder must reject it cleanly (typed
            // error), never crash or over-read.
            try {
                switch (static_cast<msg_type>(out.type)) {
                    case msg_type::req_ingest_batch:
                        (void)net::decode_ingest_batch_request(out.payload);
                        break;
                    case msg_type::req_flush:
                        (void)net::decode_flush_request(out.payload);
                        break;
                    case msg_type::req_snapshot:
                        (void)net::decode_snapshot_request(out.payload);
                        break;
                    case msg_type::req_stats:
                        (void)net::decode_stats_request(out.payload);
                        break;
                    case msg_type::resp_stats:
                        (void)net::decode_stats_response(out.payload);
                        break;
                    case msg_type::resp_error:
                        (void)net::decode_error_response(out.payload);
                        break;
                    default:
                        break;
                }
            } catch (const net::wire_decode_error&) {
                // the clean typed outcome
            }
            continue;
        }
        if (offset >= bytes.size()) return frames;  // starved: need_more forever is fine
        const std::size_t chunk = std::min<std::size_t>(1 + rng() % 96, bytes.size() - offset);
        dec.feed(std::string_view(bytes).substr(offset, chunk));
        offset += chunk;
    }
}

TEST(WireFuzz, SixThousandFrameMutationsNeverCrashTheDecoder) {
    std::vector<std::string> corpus;
    {
        net::ingest_batch_request ib;
        ib.stream = 3;
        for (std::size_t i = 0; i < 5; ++i) ib.bins.push_back(pattern_bin(6, i));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_ingest_batch),
                                           net::encode(ib)));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_flush),
                                           net::encode(net::flush_request{3})));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_snapshot),
                                           net::encode(net::snapshot_request{3, true})));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_stats),
                                           net::encode(net::stats_request{3})));
        corpus.push_back(net::encode_frame(
            type_byte(msg_type::resp_stats),
            net::encode(net::stats_response{6, 10, 1, 1, 12, 10, 0, 0, 2, 12})));
        corpus.push_back(net::encode_frame(
            type_byte(msg_type::resp_error),
            net::encode(net::error_response{net::wire_errc::server_error, "boom"})));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_shutdown), ""));
    }

    std::mt19937_64 rng(0xC0FFEE);
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < 6000; ++i) {
        const std::string mutated = mutate(corpus[i % corpus.size()], rng);
        survivors += exercise_decoder(mutated, rng);
    }
    // Sanity: some mutations (e.g. payload-only duplication after a clean
    // frame) must still yield frames, or the harness tested nothing.
    EXPECT_GT(survivors, 0u);

    // And unmutated corpus entries must all decode (the mutator, not the
    // encoder, is what breaks frames).
    for (const std::string& bytes : corpus) {
        frame_decoder dec;
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    }
}

// End-to-end no-partial-apply: mutated ingest frames against a live
// stream_server through handle_request. Whenever the response is a
// malformed_payload error, not one counter may have moved -- a payload
// that lies about its bin count cannot half-apply a batch.
TEST(WireFuzz, ThreeThousandMutatedRequestsNeverPartiallyApply) {
    matrix boot(12, 6, 0.0);
    for (std::size_t r = 0; r < boot.rows(); ++r) {
        for (std::size_t c = 0; c < boot.cols(); ++c) {
            boot(r, c) = 100.0 + static_cast<double>(r * 31 + c * 7 % 17);
        }
    }
    stream_server server({.threads = 0});
    stream_open_config cfg;
    cfg.kind = stream_kind::tracking;
    cfg.bootstrap_y = boot;
    cfg.max_rank = 2;
    const stream_id id = server.open_stream(std::move(cfg));

    net::ingest_batch_request ib;
    ib.stream = id;
    for (std::size_t i = 0; i < 4; ++i) ib.bins.push_back(pattern_bin(6, 100 + i));
    const std::string payload = net::encode(ib);

    std::mt19937_64 rng(0xBADF00D);
    std::size_t malformed = 0;
    std::size_t applied_ok = 0;
    for (std::size_t i = 0; i < 3000; ++i) {
        // Mutate the PAYLOAD (the frame layer already has its own fuzz):
        // handle_request sees exactly what a CRC-valid frame would carry.
        std::string mutated = payload;
        switch (rng() % 3) {
            case 0:
                mutated.resize(mutated.empty() ? 0 : rng() % mutated.size());
                break;
            case 1:
                if (!mutated.empty()) {
                    mutated[rng() % mutated.size()] ^=
                        static_cast<char>(1 << (rng() % 8));
                }
                break;
            default:
                mutated += static_cast<char>(rng());
                break;
        }
        const ingest_stats before = server.ingest_statistics(id);
        const frame response = net::handle_request(
            server, frame{type_byte(msg_type::req_ingest_batch), mutated});
        const ingest_stats after = server.ingest_statistics(id);

        ASSERT_EQ(after.accepted, after.applied + after.dropped + after.pending) << i;
        if (static_cast<msg_type>(response.type) == msg_type::resp_error) {
            const net::error_response err = net::decode_error_response(response.payload);
            if (err.code == net::wire_errc::malformed_payload) {
                ++malformed;
                EXPECT_EQ(after.accepted, before.accepted) << i;
                EXPECT_EQ(after.applied, before.applied) << i;
                EXPECT_EQ(after.rejected, before.rejected) << i;
                EXPECT_EQ(after.dropped, before.dropped) << i;
            }
        } else {
            ASSERT_EQ(static_cast<msg_type>(response.type), msg_type::resp_ingest_batch)
                << i;
            ++applied_ok;
        }
    }
    // The corpus must have exercised both outcomes to mean anything.
    EXPECT_GT(malformed, 100u);
    EXPECT_GT(applied_ok, 0u);
}

// A tracking stream on its own server plus its interchange record: the
// body of every restore request below.
struct served_record {
    stream_server server{{.threads = 0}};
    stream_id id = 0;
    std::string record;
};

std::unique_ptr<served_record> serve_one_stream() {
    auto s = std::make_unique<served_record>();
    matrix boot(12, 6, 0.0);
    for (std::size_t r = 0; r < boot.rows(); ++r) {
        for (std::size_t c = 0; c < boot.cols(); ++c) {
            boot(r, c) = 80.0 + static_cast<double>((r * 17 + c * 5) % 29);
        }
    }
    stream_open_config cfg;
    cfg.kind = stream_kind::tracking;
    cfg.bootstrap_y = boot;
    cfg.max_rank = 2;
    s->id = s->server.open_stream(std::move(cfg));
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(s->server.ingest(s->id, pattern_bin(6, 200 + i)).ok());
    }
    std::ostringstream out(std::ios::binary);
    s->server.snapshot_stream(s->id, out, ckpt::encoding::interchange);
    s->record = std::move(out).str();
    return s;
}

// A restore payload is one record, exactly -- the strict decode every
// other op follows. A valid record with anything after it answers
// malformed_payload and publishes nothing.
TEST(RestoreRequest, TrailingBytesAfterTheRecordAreMalformedAndPublishNothing) {
    const std::unique_ptr<served_record> s = serve_one_stream();
    const std::vector<stream_id> before = s->server.stream_ids();
    const std::array<std::string, 3> tails = {"X", std::string(24, '\0'), s->record.substr(0, 24)};
    for (const std::string& tail : tails) {
        const frame request{type_byte(msg_type::req_restore), s->record + tail};
        const frame response = net::handle_request(s->server, request);
        ASSERT_EQ(static_cast<msg_type>(response.type), msg_type::resp_error) << tail.size();
        const net::error_response err = net::decode_error_response(response.payload);
        EXPECT_EQ(err.code, net::wire_errc::malformed_payload) << tail.size();
        EXPECT_EQ(s->server.stream_ids(), before) << tail.size();
    }

    // The record alone restores, under a fresh id.
    const frame request{type_byte(msg_type::req_restore), s->record};
    const frame response = net::handle_request(s->server, request);
    ASSERT_EQ(static_cast<msg_type>(response.type), msg_type::resp_restore);
    EXPECT_EQ(s->server.stream_count(), before.size() + 1);
}

// Restore requests mutated from a real record against a serving
// stream_server: truncations, bit flips and appended bytes. Each answer
// is resp_restore (one more stream) or malformed_payload (the stream set
// untouched) -- never another error, never a half-published stream.
TEST(WireFuzz, MutatedRestoreRequestsRestoreWholeOrPublishNothing) {
    const std::unique_ptr<served_record> s = serve_one_stream();
    std::mt19937_64 rng(0x2E5702E);
    std::size_t restored = 0;
    std::size_t malformed = 0;
    for (std::size_t i = 0; i < 1500; ++i) {
        std::string mutated = s->record;
        const std::size_t kind = i % 3;
        if (kind == 0) {
            mutated.resize(rng() % mutated.size());
        } else if (kind == 1) {
            for (std::size_t f = 1 + rng() % 4; f > 0; --f) {
                mutated[rng() % mutated.size()] ^= static_cast<char>(1 << (rng() % 8));
            }
        } else {
            for (std::size_t a = 1 + rng() % 32; a > 0; --a) mutated += static_cast<char>(rng());
        }

        const std::vector<stream_id> before = s->server.stream_ids();
        const frame request{type_byte(msg_type::req_restore), std::move(mutated)};
        const frame response = net::handle_request(s->server, request);
        const std::vector<stream_id> after = s->server.stream_ids();
        if (static_cast<msg_type>(response.type) == msg_type::resp_restore) {
            ++restored;
            // Only a flip inside a value can still be a record.
            EXPECT_EQ(kind, 1u) << i;
            const stream_id fresh = net::decode_restore_response(response.payload).stream;
            ASSERT_EQ(after.size(), before.size() + 1) << i;
            EXPECT_NE(std::find(after.begin(), after.end(), fresh), after.end()) << i;
            s->server.close_stream(fresh);
        } else {
            ASSERT_EQ(static_cast<msg_type>(response.type), msg_type::resp_error) << i;
            const net::error_response err = net::decode_error_response(response.payload);
            EXPECT_EQ(err.code, net::wire_errc::malformed_payload) << i;
            EXPECT_EQ(after, before) << i;
            ++malformed;
        }
    }
    EXPECT_GT(malformed, 1000u);
    EXPECT_GT(restored, 0u);
    EXPECT_EQ(s->server.stream_ids(), std::vector<stream_id>{s->id});
}

// Hand-written streaming_diagnoser records over 6 links whose parts
// disagree with each other or with what the public API allows. Every
// field but the one-zero-extent matrix header and the two array headers
// that claim more words than the input holds decodes on its own; only
// restore's checks against A's link count m can refuse the record. Two
// faults are records no version-4 writer emits: a version-3 record, which
// the header refuses, and a model block with projections in its slot.
enum class record_fault {
    none,
    version_three,       // consistent, but version 3 with a dense A
    projections_slot,    // the live model block holds t x m projections
    narrow_axes,         // axes with fewer columns than the rank
    short_variances,     // variances shorter than m
    short_means,         // means shorter than m
    narrow_window_row,   // one window row narrower than m
    short_window,        // a one-row window: the next refit cannot fit it
    narrow_queued,       // the queued window narrower than m
    axes_row_mismatch,   // axes over 5 links, A over 6
    rank_above_m,        // normal rank larger than m
    zero_cols_header,    // a matrix header with rows > 0 and cols = 0
    bad_confidence,      // confidence outside (0, 1)
    nan_k_sigma,         // a k_sigma the separation rule refuses: NaN,
    inf_k_sigma,         // +inf (the walk would form every axis),
    zero_k_sigma,        // zero
    negative_k_sigma,    // or negative
    long_queued,         // a queued window longer than the configured window
    alarms_above_processed,  // more alarms than processed bins
    refits_differ_from_epoch,  // a refits slot other than the epoch
    horizon_above_window,    // a swap horizon longer than the window
    swap_bin_past_horizon,   // a pending refit swapping at bin 2^62
    swap_bin_before_processed,  // a pending refit whose swap bin has passed
    pending_swap_at_horizon,    // legal: a pending refit one horizon ahead
    // A's runs (format 4), one defect each.
    routing_no_links,        // a link count of zero
    routing_no_flows,        // an empty run-length array
    routing_link_past_m,     // a link index equal to m
    routing_repeated_link,   // one link twice in a run
    routing_decreasing_links,  // a run whose links descend
    routing_zero_value,      // a stored zero
    routing_inf_value,       // an infinite value
    routing_run_past_m,      // a run length above m
    routing_link_count,      // fewer link indices than the run lengths sum to
    routing_value_count,     // fewer values than the run lengths sum to
    routing_flows_past_input,  // a run-length array claiming 2^24 words the input lacks
    routing_runs_past_input,   // a link-index array claiming 2^20 words the input lacks
    // Non-finite detector state, one slot each: every shape agrees, so
    // only restore's finiteness checks can refuse these.
    nan_routing,         // a NaN value in A's runs
    nan_window_value,    // a NaN in one window row
    inf_queued_value,    // an infinity in the queued window
    nan_axis_entry,      // a NaN in the principal axes
    inf_variance,        // an infinite axis variance
    nan_mean,            // a NaN column mean
};

constexpr std::array<record_fault, 34> k_record_faults = {
    record_fault::narrow_axes,           record_fault::short_variances,
    record_fault::short_means,           record_fault::narrow_window_row,
    record_fault::short_window,          record_fault::narrow_queued,
    record_fault::axes_row_mismatch,     record_fault::rank_above_m,
    record_fault::zero_cols_header,      record_fault::bad_confidence,
    record_fault::nan_k_sigma,           record_fault::inf_k_sigma,
    record_fault::zero_k_sigma,          record_fault::negative_k_sigma,
    record_fault::long_queued,           record_fault::alarms_above_processed,
    record_fault::refits_differ_from_epoch, record_fault::horizon_above_window,
    record_fault::routing_no_links,      record_fault::routing_no_flows,
    record_fault::routing_link_past_m,   record_fault::routing_repeated_link,
    record_fault::routing_decreasing_links, record_fault::routing_zero_value,
    record_fault::routing_inf_value,     record_fault::routing_run_past_m,
    record_fault::routing_link_count,    record_fault::routing_value_count,
    record_fault::routing_flows_past_input, record_fault::routing_runs_past_input,
    record_fault::version_three,         record_fault::projections_slot,
    record_fault::swap_bin_past_horizon, record_fault::swap_bin_before_processed};

// An interchange array header ('W' u64 array, 'M' matrix, ...) whose
// words may claim what the record does not hold.
void put_header(std::ostream& out, char tag, std::initializer_list<std::uint64_t> words) {
    out.put(tag);
    for (const std::uint64_t word : words) {
        for (int b = 0; b < 8; ++b) out.put(static_cast<char>((word >> (8 * b)) & 0xff));
    }
}

std::string fault_record(record_fault fault) {
    constexpr std::size_t m = 6;
    constexpr std::size_t t = 8;
    const auto is = [fault](record_fault f) { return fault == f; };
    const auto ramp = [](std::size_t rows, std::size_t cols) {
        matrix out(rows, cols, 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                out(r, c) = 100.0 + static_cast<double>((r * 7 + c * 3) % 11);
            }
        }
        return out;
    };

    std::ostringstream out(std::ios::binary);
    ckpt::set_encoding(out, ckpt::encoding::interchange);
    ckpt::write_header(out, "streaming_diagnoser");
    ckpt::write_u64(out, 16);      // window
    ckpt::write_u64(out, 4);       // refit interval
    ckpt::write_f64(out, is(record_fault::bad_confidence) ? 1.5 : 0.999);  // confidence
    double k_sigma = 3.0;
    if (is(record_fault::nan_k_sigma)) k_sigma = std::nan("");
    if (is(record_fault::inf_k_sigma)) k_sigma = std::numeric_limits<double>::infinity();
    if (is(record_fault::zero_k_sigma)) k_sigma = 0.0;
    if (is(record_fault::negative_k_sigma)) k_sigma = -1.0;
    ckpt::write_f64(out, k_sigma);
    ckpt::write_u64(out, 1);       // min_normal_axes
    ckpt::write_flag(out, false);  // no fixed rank
    ckpt::write_u64(out, 1);       // refit_mode::deferred
    ckpt::write_u64(out, is(record_fault::horizon_above_window) ? 17 : 2);  // swap horizon

    // A as runs: one flow per link (the identity), unless a fault says
    // otherwise. A fault that needs a run of two gives flow 0 the run
    // (first, second).
    std::vector<std::uint64_t> lengths(m, 1);
    std::vector<std::uint64_t> run_links{0, 1, 2, 3, 4, 5};
    vec values(m, 1.0);
    const auto two_link_run = [&](std::uint64_t first, std::uint64_t second) {
        lengths[0] = 2;
        run_links.insert(run_links.begin() + 1, second);
        run_links[0] = first;
        values.push_back(1.0);
    };
    if (is(record_fault::routing_repeated_link)) two_link_run(3, 3);
    if (is(record_fault::routing_decreasing_links)) two_link_run(3, 0);
    if (is(record_fault::routing_link_past_m)) run_links[2] = m;
    if (is(record_fault::routing_zero_value)) values[4] = 0.0;
    if (is(record_fault::routing_inf_value)) values[4] = std::numeric_limits<double>::infinity();
    if (is(record_fault::nan_routing)) values[1] = std::nan("");
    if (is(record_fault::routing_run_past_m)) lengths[5] = m + 1;
    if (is(record_fault::routing_link_count)) run_links.pop_back();
    if (is(record_fault::routing_value_count)) values.pop_back();
    if (is(record_fault::routing_no_flows)) lengths.clear();
    if (is(record_fault::version_three)) {
        ckpt::write_matrix(out, matrix::identity(m));  // A as a version-3 build wrote it
    } else {
        ckpt::write_u64(out, is(record_fault::routing_no_links) ? 0 : m);
        if (is(record_fault::routing_flows_past_input)) {
            put_header(out, 'W', {std::uint64_t{1} << 24});
        } else {
            ckpt::write_u64_array(out, lengths);
        }
        if (is(record_fault::routing_runs_past_input)) {
            put_header(out, 'W', {std::uint64_t{1} << 20});
            return std::move(out).str();
        }
        ckpt::write_u64_array(out, run_links);
        ckpt::write_vec(out, values);
    }

    matrix window = ramp(t, m);
    if (is(record_fault::nan_window_value)) window(3, 2) = std::nan("");
    const std::size_t window_rows = is(record_fault::short_window) ? 1 : t;
    ckpt::write_u64(out, window_rows);
    for (std::size_t r = 0; r < window_rows; ++r) {
        const auto row = window.row(r);
        const std::size_t width = is(record_fault::narrow_window_row) && r == 3 ? m - 1 : m;
        ckpt::write_vec(out, vec(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(width)));
    }
    ckpt::write_u64(out, 0);                                              // epoch
    const std::uint64_t processed = is(record_fault::swap_bin_before_processed) ? 3 : 0;
    ckpt::write_u64(out, processed);                                      // processed
    ckpt::write_u64(out, is(record_fault::alarms_above_processed) ? 1 : 0);  // alarms
    ckpt::write_u64(out, is(record_fault::refits_differ_from_epoch) ? 1 : 0);  // refits
    ckpt::write_u64(out, 0);                                              // since refit

    // The live model: identity axes, descending variances, rank 2.
    const std::size_t axes_dim = is(record_fault::axes_row_mismatch) ? m - 1 : m;
    if (is(record_fault::zero_cols_header)) {
        put_header(out, 'M', {m, 0});  // rows and cols, no entries
    } else if (is(record_fault::narrow_axes)) {
        matrix axes(m, 1, 0.0);
        axes(0, 0) = 1.0;
        ckpt::write_matrix(out, axes);
    } else {
        matrix axes = matrix::identity(axes_dim);
        if (is(record_fault::nan_axis_entry)) axes(4, 1) = std::nan("");
        ckpt::write_matrix(out, axes);
    }
    vec variances(is(record_fault::short_variances) ? m - 1 : axes_dim, 0.0);
    for (std::size_t i = 0; i < variances.size(); ++i) {
        variances[i] = static_cast<double>(variances.size() - i);
    }
    if (is(record_fault::inf_variance)) variances[3] = std::numeric_limits<double>::infinity();
    ckpt::write_vec(out, variances);
    // projections slot: empty in every record a served model writes
    ckpt::write_matrix(out, is(record_fault::projections_slot) ? ramp(t, m) : matrix{});
    vec means(is(record_fault::short_means) ? m - 1 : axes_dim, 100.0);
    if (is(record_fault::nan_mean)) means[2] = std::nan("");
    ckpt::write_vec(out, means);
    ckpt::write_u64(out, t);
    ckpt::write_u64(out, is(record_fault::rank_above_m) ? m + 1 : 2);

    // A refit awaiting its swap (three faults), else none. Every writer
    // puts the swap bin in [processed, processed + max(horizon, 1)].
    std::optional<std::uint64_t> swap_at;
    if (is(record_fault::swap_bin_past_horizon)) swap_at = std::uint64_t{1} << 62;
    if (is(record_fault::swap_bin_before_processed)) swap_at = processed - 1;
    if (is(record_fault::pending_swap_at_horizon)) swap_at = processed + 2;
    ckpt::write_flag(out, swap_at.has_value());
    if (swap_at) {
        ckpt::write_u64(out, *swap_at);
        ckpt::write_matrix(out, matrix::identity(m));
        ckpt::write_vec(out, vec{6.0, 5.0, 4.0, 3.0, 2.0, 1.0});
        ckpt::write_matrix(out, matrix{});  // projections slot
        ckpt::write_vec(out, vec(m, 100.0));
        ckpt::write_u64(out, t);
        ckpt::write_u64(out, 2);  // normal rank
    }
    const bool queued = is(record_fault::narrow_queued) || is(record_fault::inf_queued_value) ||
                        is(record_fault::long_queued);
    ckpt::write_flag(out, queued);
    if (is(record_fault::narrow_queued)) ckpt::write_matrix(out, ramp(t, m - 1));
    if (is(record_fault::long_queued)) ckpt::write_matrix(out, ramp(17, m));  // window is 16
    if (is(record_fault::inf_queued_value)) {
        matrix queued_window = ramp(t, m);
        queued_window(5, 1) = -std::numeric_limits<double>::infinity();
        ckpt::write_matrix(out, queued_window);
    }
    std::string record = std::move(out).str();
    if (is(record_fault::version_three)) {
        // The version word's low byte, after the 8-byte magic and its 'U'
        // tag: 4 -> 3.
        EXPECT_EQ(record[9], 4);
        record[9] = 3;
    }
    return record;
}

constexpr std::array<record_fault, 6> k_nonfinite_faults = {
    record_fault::nan_routing,    record_fault::nan_window_value, record_fault::inf_queued_value,
    record_fault::nan_axis_entry, record_fault::inf_variance,     record_fault::nan_mean};

// A hand-written tracking_detector record over 6 links tracking 3 axes,
// with one non-finite value in the slot a fault names. tracker_fault::none
// restores, and so do an infinite threshold and a normal rank equal to
// the dimension: q_statistic_threshold returns +inf for an empty residual
// tail.
enum class tracker_fault {
    none,
    alarms_above_processed,       // more alarms than processed bins
    normal_rank_above_dimension,  // normal rank 7 over 6 links
    normal_rank_at_dimension,     // legal
    inf_threshold,                // legal
    nan_threshold,                // the saved Q-threshold
    inf_variance_sum,             // the running total-variance sum
    nan_singular_value,           // the tracker's s
    inf_axis_entry,               // the tracker's V
    nan_running_mean,             // the tracker's running mean
};

std::string tracker_record(tracker_fault fault) {
    constexpr std::size_t m = 6;
    constexpr std::size_t k = 3;
    const auto is = [fault](tracker_fault f) { return fault == f; };
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();

    std::ostringstream out(std::ios::binary);
    ckpt::set_encoding(out, ckpt::encoding::interchange);
    ckpt::write_header(out, "tracking_detector");
    ckpt::write_flag(out, false);  // retired "deferred updates" flag
    ckpt::write_f64(out, 0.999);   // confidence
    ckpt::write_u64(out, is(tracker_fault::normal_rank_above_dimension) ? m + 1
                         : is(tracker_fault::normal_rank_at_dimension)  ? m
                                                                        : 1);  // normal rank
    ckpt::write_u64(out, m);       // dimension
    ckpt::write_f64(out, is(tracker_fault::nan_threshold)   ? nan
                         : is(tracker_fault::inf_threshold) ? inf
                                                            : 12.5);
    ckpt::write_f64(out, is(tracker_fault::inf_variance_sum) ? inf : 300.0);
    ckpt::write_u64(out, 0);                                                // processed
    ckpt::write_u64(out, is(tracker_fault::alarms_above_processed) ? 1 : 0);  // alarms
    ckpt::write_u64(out, 0);                                                // epoch

    ckpt::write_header(out, "incremental_pca_tracker");
    vec s{30.0, 20.0, 10.0};
    if (is(tracker_fault::nan_singular_value)) s[1] = nan;
    ckpt::write_vec(out, s);
    matrix v(m, k, 0.0);
    for (std::size_t j = 0; j < k; ++j) v(j, j) = 1.0;
    if (is(tracker_fault::inf_axis_entry)) v(4, 2) = inf;
    ckpt::write_matrix(out, v);
    vec mean(m, 100.0);
    if (is(tracker_fault::nan_running_mean)) mean[5] = nan;
    ckpt::write_vec(out, mean);
    ckpt::write_u64(out, 8);  // sample count
    ckpt::write_u64(out, k);  // max rank
    ckpt::write_u64(out, 0);  // folds
    return std::move(out).str();
}

constexpr std::array<tracker_fault, 5> k_tracker_nonfinite_faults = {
    tracker_fault::nan_threshold, tracker_fault::inf_variance_sum,
    tracker_fault::nan_singular_value, tracker_fault::inf_axis_entry,
    tracker_fault::nan_running_mean};

// Restore checks every shape against A's link count and refuses a record
// whose parts disagree with std::runtime_error (the codec's malformed-
// input signal), instead of reading out of bounds, serving a silently
// different threshold, or failing later on a refit worker.
TEST(RestoreChecks, StreamingDiagnoserRefusesEveryInconsistentRecord) {
    {
        std::istringstream in(fault_record(record_fault::none), std::ios::binary);
        streaming_diagnoser restored = streaming_diagnoser::restore(in);
        EXPECT_EQ(restored.dimension(), 6u);
        EXPECT_EQ(restored.current().model().normal_rank(), 2u);
    }
    {
        // The pending swap lands exactly one horizon (2) ahead.
        std::istringstream in(fault_record(record_fault::pending_swap_at_horizon),
                              std::ios::binary);
        streaming_diagnoser restored = streaming_diagnoser::restore(in);
        ASSERT_TRUE(restored.refit_pending());
        for (std::size_t r = 0; r < 3; ++r) (void)restored.push(vec(6, 104.0));
        EXPECT_EQ(restored.model_epoch(), 1u);
    }
    for (const record_fault fault : k_record_faults) {
        std::istringstream in(fault_record(fault), std::ios::binary);
        EXPECT_THROW((void)streaming_diagnoser::restore(in), std::runtime_error)
            << "fault " << static_cast<int>(fault);
    }
}

// The inbox capacity and ingest counters of a hand-built server_stream
// record. The defaults balance the way every record a server writes
// does: accepted == applied + dropped + residue (one bin) and next
// sequence == accepted.
struct inbox_fields {
    std::uint64_t capacity = 16;
    std::uint64_t policy = 0;  // retired slot: writers store 0 (block)
    std::uint64_t accepted = 6;
    std::uint64_t applied = 4;
    std::uint64_t dropped = 1;
    std::uint64_t next_sequence = 6;
    std::uint64_t residue = 1;  // bins of 104.0 on each of the six links
};

// Wraps a detector record -- the consistent streaming_diagnoser record
// unless told otherwise -- in a server_stream container
// (docs/CHECKPOINT_FORMAT.md).
std::string server_stream_record(const inbox_fields& f,
                                 const std::string& detector = fault_record(record_fault::none)) {
    std::ostringstream out(std::ios::binary);
    ckpt::set_encoding(out, ckpt::encoding::interchange);
    ckpt::write_header(out, "server_stream");
    ckpt::write_u64(out, f.capacity);
    ckpt::write_u64(out, f.policy);
    ckpt::write_flag(out, true);  // auto_drain
    ckpt::write_u64(out, f.accepted);
    ckpt::write_u64(out, f.applied);
    ckpt::write_u64(out, f.dropped);
    ckpt::write_u64(out, 0);  // rejected
    ckpt::write_u64(out, f.next_sequence);
    ckpt::write_u64(out, f.residue);
    for (std::uint64_t r = 0; r < f.residue; ++r) ckpt::write_vec(out, vec(6, 104.0));
    out << detector;
    return std::move(out).str();
}

// A detector record in the container a server writes around a stream
// that has accepted nothing: the only form a restore takes.
std::string served(const std::string& detector) {
    return server_stream_record(
        {.accepted = 0, .applied = 0, .dropped = 0, .next_sequence = 0, .residue = 0}, detector);
}

// Containers no server writes: unbalanced counters, an inbox larger than
// restore may allocate (the server caps inbox capacity at 2^16), and a
// policy slot other than 0 (1 and 2 were the retired reject and
// drop_oldest).
const std::array<std::pair<const char*, inbox_fields>, 9> k_inbox_faults = {{
    {"applied above accepted", {.accepted = 5, .applied = 100, .dropped = 0,
                                .next_sequence = 5}},
    {"accepted bins unaccounted", {.accepted = 9, .next_sequence = 9}},
    {"sequence ahead of accepted", {.next_sequence = 9}},
    {"sequence behind accepted", {.next_sequence = 5}},
    // applied + dropped + residue wraps to exactly accepted.
    {"counters that wrap", {.accepted = 1, .applied = ~std::uint64_t{0}, .dropped = 1,
                            .next_sequence = 1}},
    {"capacity above the cap", {.capacity = std::uint64_t{1} << 17}},
    {"policy slot 1", {.policy = 1}},
    {"policy slot 2", {.policy = 2}},
    {"policy slot 3", {.policy = 3}},
}};

// The same records, each in a server_stream container, as restore
// requests over loopback: each answers malformed_payload, publishes
// nothing, and the server keeps serving. The faulty containers are
// refused the same way, and by a local restore_stream too.
TEST(WireFuzz, InconsistentRestoreRecordsAreMalformedOverLoopback) {
    stream_server server({.threads = 0});
    net::netdiag_frontend frontend(server);
    net::remote_collector collector(frontend.port());
    const std::uint64_t id = collector.restore(served(fault_record(record_fault::none)));
    const std::vector<stream_id> before = server.stream_ids();

    for (const record_fault fault : k_record_faults) {
        try {
            (void)collector.restore(served(fault_record(fault)));
            ADD_FAILURE() << "fault " << static_cast<int>(fault) << " restored";
        } catch (const net::remote_error& e) {
            EXPECT_EQ(e.code(), net::wire_errc::malformed_payload)
                << "fault " << static_cast<int>(fault) << ": " << e.what();
        }
        EXPECT_EQ(server.stream_ids(), before) << "fault " << static_cast<int>(fault);
    }
    for (const auto& [fault, fields] : k_inbox_faults) {
        const std::string record = server_stream_record(fields);
        EXPECT_THROW((void)server.restore_stream(std::string_view(record)), std::runtime_error)
            << fault;
        std::istringstream in(record, std::ios::binary);
        EXPECT_THROW((void)server.restore_stream(in), std::runtime_error) << fault;
        try {
            (void)collector.restore(record);
            ADD_FAILURE() << fault << " restored";
        } catch (const net::remote_error& e) {
            EXPECT_EQ(e.code(), net::wire_errc::malformed_payload) << fault << ": " << e.what();
        }
        EXPECT_EQ(server.stream_ids(), before) << fault;
    }
    // Non-finite detector state, one fault per slot of both detector
    // kinds: every shape agrees, so only the finiteness checks refuse
    // them, locally through both restore_stream overloads and over
    // loopback. Restoring one would leave a stream that raises no alarm.
    // A tracking record counting more alarms than bins, or holding a
    // normal rank above its dimension, is refused the same way, and so
    // are both kinds of detector record on their own, out of the
    // container a server writes.
    std::vector<std::pair<std::string, std::string>> refused;
    for (const record_fault fault : k_nonfinite_faults) {
        refused.emplace_back("streaming fault " + std::to_string(static_cast<int>(fault)),
                             served(fault_record(fault)));
    }
    for (const tracker_fault fault : k_tracker_nonfinite_faults) {
        refused.emplace_back("tracking fault " + std::to_string(static_cast<int>(fault)),
                             served(tracker_record(fault)));
    }
    refused.emplace_back("tracking alarms above processed",
                         served(tracker_record(tracker_fault::alarms_above_processed)));
    refused.emplace_back("tracking normal rank above dimension",
                         served(tracker_record(tracker_fault::normal_rank_above_dimension)));
    refused.emplace_back("bare streaming record", fault_record(record_fault::none));
    refused.emplace_back("bare tracking record", tracker_record(tracker_fault::none));
    for (const auto& [name, record] : refused) {
        EXPECT_THROW((void)server.restore_stream(std::string_view(record)), std::runtime_error)
            << name;
        std::istringstream in(record, std::ios::binary);
        EXPECT_THROW((void)server.restore_stream(in), std::runtime_error) << name;
        try {
            (void)collector.restore(record);
            ADD_FAILURE() << name << " restored";
        } catch (const net::remote_error& e) {
            EXPECT_EQ(e.code(), net::wire_errc::malformed_payload) << name << ": " << e.what();
        }
        EXPECT_EQ(server.stream_ids(), before) << name;
    }
    // The same tracking record with finite state, the legal +inf
    // threshold, or a normal rank equal to the dimension, restores.
    for (const tracker_fault fault : {tracker_fault::none, tracker_fault::inf_threshold,
                                      tracker_fault::normal_rank_at_dimension}) {
        const stream_id tracked = collector.restore(served(tracker_record(fault)));
        EXPECT_EQ(server.stats(tracked).dimension, 6u) << static_cast<int>(fault);
        // ... and serves: the next bin applies.
        EXPECT_TRUE(server.ingest(tracked, vec(6, 101.0)).ok()) << static_cast<int>(fault);
        server.flush_stream(tracked);
        EXPECT_EQ(server.stats(tracked).processed, 1u) << static_cast<int>(fault);
        server.close_stream(tracked);
    }

    // Balanced containers restore with their counters, up to the cap.
    for (const std::uint64_t capacity : {std::uint64_t{16}, std::uint64_t{1} << 16}) {
        const stream_id fresh = collector.restore(server_stream_record({.capacity = capacity}));
        const ingest_stats st = server.ingest_statistics(fresh);
        EXPECT_EQ(st.accepted, 6u) << capacity;
        EXPECT_EQ(st.applied, 4u) << capacity;
        EXPECT_EQ(st.dropped, 1u) << capacity;
        EXPECT_EQ(st.pending, 1u) << capacity;
        EXPECT_EQ(st.next_sequence, 6u) << capacity;
    }

    const vec bin(6, 104.0);
    // Three bins: fewer than the record's refit interval.
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(collector.ingest(id, bin).ok()) << i;
    collector.flush(id);
    const net::stats_response stats = collector.stats(id);
    EXPECT_EQ(stats.applied, 3u);
    EXPECT_EQ(stats.processed, 3u);
    frontend.stop();
}

// Interchange record mutations through the checkpoint loader: the other
// half of the payload surface (req_restore bodies ARE records). The
// loader must throw std::runtime_error on every malformed record --
// never crash, never allocate from a lying header (the remaining-bytes
// validation), never succeed-and-desync (tag stream violations throw).
TEST(WireFuzz, TwoThousandMutatedInterchangeRecordsNeverCrashTheLoader) {
    matrix boot(10, 5, 0.0);
    for (std::size_t r = 0; r < boot.rows(); ++r) {
        for (std::size_t c = 0; c < boot.cols(); ++c) {
            boot(r, c) = 50.0 + static_cast<double>((r * 13 + c * 3) % 23);
        }
    }
    tracking_detector det(boot, 2);
    std::ostringstream rec(std::ios::binary);
    ckpt::set_encoding(rec, ckpt::encoding::interchange);
    det.save(rec);
    const std::string record = std::move(rec).str();

    // The unmutated record must load (otherwise the fuzz tests nothing).
    {
        std::istringstream in(record, std::ios::binary);
        EXPECT_NO_THROW((void)load_stream_detector(in));
    }

    std::mt19937_64 rng(0x5EED);
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        const std::string mutated = mutate(record, rng);
        std::istringstream in(mutated, std::ios::binary);
        try {
            (void)load_stream_detector(in);
        } catch (const std::runtime_error&) {
            ++rejected;  // the clean typed outcome
        }
    }
    EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace netdiag
