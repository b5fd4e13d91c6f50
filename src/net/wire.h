// Length-prefixed frame layer of the netdiag wire protocol
// (docs/WIRE_FORMAT.md). A frame is the unit a connection exchanges:
//
//   offset  size  field
//        0     2  magic "ND"
//        2     1  protocol version (k_wire_version)
//        3     1  frame type (the protocol op; net/protocol.h)
//        4     4  payload length, little-endian u32, <= k_max_payload
//        8     n  payload (interchange checkpoint primitives)
//      8+n     4  CRC32 (IEEE) over bytes [0, 8+n), little-endian
//
// Every multi-byte field is little-endian, matching the interchange
// checkpoint encoding the payloads are built from. The decoder is
// incremental: feed() it whatever a socket read returned -- any split,
// byte by byte if need be -- and next() hands back complete frames. A
// malformed stream (bad magic, unsupported version, oversized length,
// checksum mismatch) produces a typed frame_error exactly once and
// poisons the decoder; framing offers no resynchronization, so the
// connection is the recovery unit. The decoder never reads past the
// bytes it was fed and never reserves space from the length field before
// the header has validated against k_max_payload.
//
// The byte path costs about what the bytes cost. A writer sends header,
// payload and trailer as one gathered write (frame_envelope), a socket
// reads straight into the decoder's storage (prepare/commit), and a
// payload that spans reads lands in the string next() hands out. Each
// frame is CRC-checked exactly once on each side.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace netdiag::net {

// Bumped when the frame layout changes incompatibly; a decoder rejects
// every other version (bad_version) rather than guessing.
inline constexpr std::uint8_t k_wire_version = 1;

inline constexpr char k_wire_magic0 = 'N';
inline constexpr char k_wire_magic1 = 'D';

inline constexpr std::size_t k_wire_header_bytes = 8;
inline constexpr std::size_t k_wire_trailer_bytes = 4;

// Ceiling on one frame's payload. Generous enough for a detached
// stream record (detector state + inbox residue); a length field above
// it is a protocol violation, not a big frame.
inline constexpr std::uint32_t k_max_payload = 1u << 26;  // 64 MiB

// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320), the ubiquitous
// variant: crc32("123456789") == 0xCBF43926, which tests/test_wire.cpp
// pins as a known-answer check. `prior` continues a running CRC:
// crc32(b, crc32(a)) == crc32(a + b), so a frame's CRC runs over its
// header and then its payload without joining them. One portable
// slicing-by-16 kernel (16 bytes per step over constexpr tables) serves
// every host; tests/test_wire.cpp checks it against a byte-at-a-time
// oracle.
std::uint32_t crc32(std::string_view bytes, std::uint32_t prior = 0) noexcept;

// One decoded frame: the type byte plus the raw payload bytes (the
// protocol layer gives them meaning).
struct frame {
    std::uint8_t type = 0;
    std::string payload;

    friend bool operator==(const frame&, const frame&) = default;
};

// The bytes around a payload: header + payload + trailer is exactly the
// frame encode_frame builds. A socket writer sends the three pieces as
// one gathered write (tcp_socket::send_frame), so the payload is never
// copied into a joined buffer. Throws std::invalid_argument when the
// payload exceeds k_max_payload.
struct frame_envelope {
    std::array<char, k_wire_header_bytes> header;
    std::array<char, k_wire_trailer_bytes> trailer;
};

frame_envelope envelope(std::uint8_t type, std::string_view payload);

// Serializes a frame into one buffer: header, payload, CRC trailer.
// Throws std::invalid_argument when the payload exceeds k_max_payload.
std::string encode_frame(const frame& f);
std::string encode_frame(std::uint8_t type, std::string_view payload);

enum class frame_error {
    none = 0,
    bad_magic,    // stream does not start with "ND"
    bad_version,  // version byte is not k_wire_version
    bad_length,   // declared payload length exceeds k_max_payload
    bad_crc,      // checksum mismatch (bit flips, length lies)
};

const char* frame_error_name(frame_error e) noexcept;

// Incremental decoder. Typical loop:
//
//   decoder.feed(bytes_from_socket);
//   frame f;
//   while (decoder.next(f) == frame_decoder::progress::frame_ready) handle(f);
//   if (decoder.error() != frame_error::none) drop_connection();
//
// A socket feeds it without a bounce buffer:
//
//   const std::span<char> window = decoder.prepare();
//   decoder.commit(recv(fd, window.data(), window.size()));
//
// Magic and version are validated as soon as their bytes arrive, so a
// garbage stream errors within 3 bytes instead of stalling on a bogus
// length. After an error the decoder is poisoned: feed() and commit()
// ignore input and next() keeps returning progress::error.
//
// A frame buffered whole is checked and its payload copied out in place.
// Once next() has seen the header of a frame that is still arriving, the
// decoder reserves a string for the rest of it (the length already
// checked against k_max_payload) and prepare() hands out that string, so
// the payload is received where next() moves it out from. The string
// grows step by step as bytes arrive: a peer that announces 64 MiB and
// stalls costs address space, not memory.
class frame_decoder {
public:
    enum class progress {
        need_more,    // no complete frame buffered yet
        frame_ready,  // one frame extracted into `out`
        error,        // malformed stream; see error()
    };

    // Copies the bytes in (prepare + copy + commit).
    void feed(std::string_view bytes);
    // A writable window, never empty, for the next read to fill; valid
    // until the next call on the decoder.
    std::span<char> prepare();
    // Accounts for `bytes` written at the start of the last window.
    void commit(std::size_t bytes);
    progress next(frame& out);
    frame_error error() const noexcept { return error_; }
    // Bytes buffered but not yet consumed by a returned frame.
    std::size_t buffered() const noexcept {
        return end_ - begin_ + (in_payload_ ? k_wire_header_bytes + payload_filled_ : 0);
    }

private:
    progress fail(frame_error e) noexcept;

    // Headers and frames that arrive whole; the unconsumed bytes are
    // buffer_[begin_, end_), and buffer_ past end_ is the next window.
    std::string buffer_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    // A frame still arriving: its header, and payload_ receiving its
    // payload then its trailer, payload_filled_ bytes so far (payload_
    // past them is the window).
    bool in_payload_ = false;
    std::array<char, k_wire_header_bytes> header_{};
    std::string payload_;
    std::size_t payload_filled_ = 0;
    std::uint32_t payload_len_ = 0;
    frame_error error_ = frame_error::none;
};

}  // namespace netdiag::net
