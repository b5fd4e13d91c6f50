#include "net/wire.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace netdiag::net {

namespace {

// Slicing-by-16 tables for the reflected polynomial, built at compile
// time. Row 0 is the classic byte-at-a-time table; row k maps a byte to
// its contribution after k more zero bytes, so sixteen lookups advance
// the CRC past sixteen input bytes at once.
using crc_tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr crc_tables make_crc_tables() {
    crc_tables t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
        }
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t n = 0; n < 256; ++n) {
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
        }
    }
    return t;
}

constexpr crc_tables k_crc_tables = make_crc_tables();

// Little-endian by construction, whatever the host's byte order;
// compilers fold it into one load on little-endian hosts.
std::uint32_t load_le32(const unsigned char* p) noexcept {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
           std::uint32_t{p[3]} << 24;
}

std::uint32_t get_le32(const char* b) noexcept {
    return load_le32(reinterpret_cast<const unsigned char*>(b));
}

void put_le32(char* out, std::uint32_t v) noexcept {
    for (std::size_t i = 0; i < 4; ++i) {
        out[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
}

// A socket read's window while no payload is arriving, and the step by
// which an arriving payload's string grows.
constexpr std::size_t k_read_window = std::size_t{1} << 14;
constexpr std::size_t k_payload_step = std::size_t{1} << 18;

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t prior) noexcept {
    const auto& t = k_crc_tables;
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    std::size_t n = bytes.size();
    std::uint32_t c = ~prior;
    // The four bytes of w, each through the row that carries it past the
    // bytes that follow it in the 16-byte block (`after` of them follow w).
    const auto fold = [&t](std::uint32_t w, std::size_t after) {
        return t[after + 3][w & 0xFFu] ^ t[after + 2][(w >> 8) & 0xFFu] ^
               t[after + 1][(w >> 16) & 0xFFu] ^ t[after][w >> 24];
    };
    for (; n >= 16; p += 16, n -= 16) {
        // The running CRC folds into the block's first word.
        c = fold(c ^ load_le32(p), 12) ^ fold(load_le32(p + 4), 8) ^ fold(load_le32(p + 8), 4) ^
            fold(load_le32(p + 12), 0);
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return ~c;
}

frame_envelope envelope(std::uint8_t type, std::string_view payload) {
    if (payload.size() > k_max_payload) {
        throw std::invalid_argument("frame payload of " + std::to_string(payload.size()) +
                                    " bytes exceeds k_max_payload");
    }
    frame_envelope env{};
    env.header[0] = k_wire_magic0;
    env.header[1] = k_wire_magic1;
    env.header[2] = static_cast<char>(k_wire_version);
    env.header[3] = static_cast<char>(type);
    put_le32(env.header.data() + 4, static_cast<std::uint32_t>(payload.size()));
    const std::uint32_t header_crc = crc32(std::string_view(env.header.data(), env.header.size()));
    put_le32(env.trailer.data(), crc32(payload, header_crc));
    return env;
}

std::string encode_frame(std::uint8_t type, std::string_view payload) {
    const frame_envelope env = envelope(type, payload);
    std::string out;
    out.reserve(env.header.size() + payload.size() + env.trailer.size());
    out.append(env.header.data(), env.header.size());
    out.append(payload);
    out.append(env.trailer.data(), env.trailer.size());
    return out;
}

std::string encode_frame(const frame& f) { return encode_frame(f.type, f.payload); }

const char* frame_error_name(frame_error e) noexcept {
    switch (e) {
        case frame_error::none: return "none";
        case frame_error::bad_magic: return "bad_magic";
        case frame_error::bad_version: return "bad_version";
        case frame_error::bad_length: return "bad_length";
        case frame_error::bad_crc: return "bad_crc";
    }
    return "unknown";
}

void frame_decoder::feed(std::string_view bytes) {
    while (!bytes.empty() && error_ == frame_error::none) {
        const std::span<char> window = prepare();
        const std::size_t n = std::min(window.size(), bytes.size());
        std::memcpy(window.data(), bytes.data(), n);
        commit(n);
        bytes.remove_prefix(n);
    }
}

std::span<char> frame_decoder::prepare() {
    const std::size_t rest = std::size_t{payload_len_} + k_wire_trailer_bytes;
    if (in_payload_ && payload_filled_ < rest) {
        if (payload_filled_ == payload_.size()) {
            payload_.resize(std::min(rest, payload_filled_ + k_payload_step));
        }
        return {payload_.data() + payload_filled_, payload_.size() - payload_filled_};
    }
    if (buffer_.size() - end_ < k_read_window) {
        // Drop the consumed prefix before growing.
        std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
        if (buffer_.size() - end_ < k_read_window) {
            buffer_.resize(std::max(end_ + k_read_window, 2 * buffer_.size()));
        }
    }
    return {buffer_.data() + end_, buffer_.size() - end_};
}

void frame_decoder::commit(std::size_t bytes) {
    if (error_ != frame_error::none) return;  // poisoned
    if (in_payload_ && payload_filled_ < std::size_t{payload_len_} + k_wire_trailer_bytes) {
        payload_filled_ += bytes;
    } else {
        end_ += bytes;
    }
}

frame_decoder::progress frame_decoder::fail(frame_error e) noexcept {
    error_ = e;
    buffer_.clear();
    begin_ = end_ = 0;
    payload_ = std::string();
    in_payload_ = false;
    payload_filled_ = 0;
    return progress::error;
}

frame_decoder::progress frame_decoder::next(frame& out) {
    if (error_ != frame_error::none) return progress::error;
    if (in_payload_) {
        if (payload_filled_ < std::size_t{payload_len_} + k_wire_trailer_bytes) {
            return progress::need_more;
        }
        const std::string_view header(header_.data(), header_.size());
        const std::string_view payload(payload_.data(), payload_len_);
        if (get_le32(payload_.data() + payload_len_) != crc32(payload, crc32(header))) {
            return fail(frame_error::bad_crc);
        }
        payload_.resize(payload_len_);
        out.type = static_cast<std::uint8_t>(header_[3]);
        out.payload = std::move(payload_);
        payload_.clear();
        in_payload_ = false;
        return progress::frame_ready;
    }

    const std::size_t have = end_ - begin_;
    const char* base = buffer_.data() + begin_;

    // Validate the fixed bytes as soon as they arrive: a garbage stream
    // errors immediately instead of waiting for a full bogus header.
    if (have >= 1 && base[0] != k_wire_magic0) return fail(frame_error::bad_magic);
    if (have >= 2 && base[1] != k_wire_magic1) return fail(frame_error::bad_magic);
    if (have >= 3 && static_cast<std::uint8_t>(base[2]) != k_wire_version) {
        return fail(frame_error::bad_version);
    }
    if (have < k_wire_header_bytes) return progress::need_more;

    const std::uint32_t payload_len = get_le32(base + 4);
    if (payload_len > k_max_payload) return fail(frame_error::bad_length);
    const std::size_t total = k_wire_header_bytes + payload_len + k_wire_trailer_bytes;
    if (have < total) {
        // Still arriving: the rest of the frame goes straight into the
        // string its payload will be handed out in. Everything buffered
        // belongs to this frame.
        std::copy_n(base, k_wire_header_bytes, header_.begin());
        payload_len_ = payload_len;
        payload_.clear();
        payload_.reserve(std::size_t{payload_len} + k_wire_trailer_bytes);
        payload_.assign(base + k_wire_header_bytes, have - k_wire_header_bytes);
        payload_filled_ = payload_.size();
        in_payload_ = true;
        begin_ = end_ = 0;
        return progress::need_more;
    }

    const std::uint32_t stored = get_le32(base + k_wire_header_bytes + payload_len);
    const std::uint32_t computed =
        crc32(std::string_view(base, k_wire_header_bytes + payload_len));
    if (stored != computed) return fail(frame_error::bad_crc);

    out.type = static_cast<std::uint8_t>(base[3]);
    out.payload.assign(base + k_wire_header_bytes, payload_len);
    begin_ += total;
    if (begin_ == end_) begin_ = end_ = 0;
    return progress::frame_ready;
}

}  // namespace netdiag::net
