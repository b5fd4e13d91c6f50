#include "measurement/stream_checkpoint.h"

#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace netdiag {

namespace ckpt {

namespace {

constexpr std::uint64_t k_magic = 0x314b434453444eull;             // "NDSDCK1" packed
constexpr std::uint64_t k_interchange_magic = 0x3149434453444eull;  // "NDSDCI1" packed
// Version 4, the only version read or written: streaming_diagnoser
// records carry the routing matrix as per-flow runs of its nonzeros, their
// lengths and link indices in the u64 array primitive, and a stream's
// record is a "server_stream" container around the detector record.
// Records of earlier versions are refused. The interchange encoding wraps
// the same logical layout (same version number) in tagged little-endian
// primitives; see the header comment and docs/CHECKPOINT_FORMAT.md.
constexpr std::uint64_t k_format_version = 4;
constexpr std::uint64_t k_min_format_version = 4;

// Encoding state attached to a stream (std::ios_base::iword). The
// swapped mode is only ever set by read_header_info, when an interchange
// magic arrives in the opposite byte order (a writer that failed to
// normalize): the payload words are then assembled big-endian instead of
// rejected -- conversion at the boundary is the interchange contract.
constexpr long k_mode_native = 0;
constexpr long k_mode_interchange = 1;
constexpr long k_mode_interchange_swapped = 2;

int encoding_index() {
    static const int index = std::ios_base::xalloc();
    return index;
}

long stream_mode(std::ios_base& stream) { return stream.iword(encoding_index()); }

// Cached end-of-stream offset for remaining_bytes (value is offset + 1;
// 0 = not yet probed, -1 = stream is not seekable). Probing the end is
// a three-seek round trip, so it happens once per stream and every
// subsequent length check costs a single tellg -- this keeps the
// per-primitive validation cheap on the native restore path too.
int end_cache_index() {
    static const int index = std::ios_base::xalloc();
    return index;
}

// One tag byte per interchange primitive, so a schema-free walker (the
// wire fuzzer, the cross-endian test swapper) can traverse any record
// and a desynchronized reader fails on the next tag instead of
// reinterpreting garbage.
constexpr char k_tag_u64 = 'U';
constexpr char k_tag_f64 = 'F';
constexpr char k_tag_string = 'S';
constexpr char k_tag_vec = 'V';
constexpr char k_tag_matrix = 'M';
constexpr char k_tag_u64_array = 'W';

// std::byteswap is C++23; the magic-word probes below need it.
constexpr std::uint64_t byteswap_u64(std::uint64_t v) {
    v = ((v & 0x00ff00ff00ff00ffull) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffull);
    v = ((v & 0x0000ffff0000ffffull) << 16) | ((v >> 16) & 0x0000ffff0000ffffull);
    return (v << 32) | (v >> 32);
}

void write_raw(std::ostream& out, const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
    if (!out) throw std::runtime_error("stream_checkpoint: write failed");
}

void read_raw(std::istream& in, void* data, std::size_t bytes) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    if (in.gcount() != static_cast<std::streamsize>(bytes)) {
        throw std::runtime_error("stream_checkpoint: truncated input");
    }
}

// Shift-based little-endian byte layout: the same code path runs on a
// host of either byte order, so the interchange encoder has no untested
// big-endian branch.
void put_le64(unsigned char* b, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t get_le64(const unsigned char* b) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

void write_tag(std::ostream& out, char tag) { write_raw(out, &tag, 1); }

void expect_tag(std::istream& in, char tag) {
    char found = 0;
    read_raw(in, &found, 1);
    if (found != tag) {
        throw std::runtime_error(std::string("stream_checkpoint: interchange tag mismatch "
                                             "(expected '") +
                                 tag + "', found byte " + std::to_string(found) + ")");
    }
}

void write_u64_le(std::ostream& out, std::uint64_t value) {
    unsigned char b[8];
    put_le64(b, value);
    write_raw(out, b, 8);
}

// Reads one 8-byte word in the stream's detected byte order (LE for
// conforming interchange, reversed for a swapped foreign writer).
std::uint64_t read_u64_word(std::istream& in, long mode) {
    unsigned char b[8];
    read_raw(in, b, 8);
    if (mode == k_mode_interchange_swapped) return byteswap_u64(get_le64(b));
    return get_le64(b);
}

// Validates a header-claimed payload size against the bytes actually
// left in the stream (when it is seekable) BEFORE any allocation, so a
// corrupt or hostile header claiming 2^60 bins fails with a clear error
// instead of an attempted giant allocation.
void check_payload_fits(std::istream& in, std::uint64_t claimed_bytes, const char* what) {
    const std::optional<std::uint64_t> rem = remaining_bytes(in);
    if (rem.has_value() && claimed_bytes > *rem) {
        throw std::runtime_error(std::string("stream_checkpoint: ") + what +
                                 " length exceeds remaining input (" +
                                 std::to_string(claimed_bytes) + " bytes claimed, " +
                                 std::to_string(*rem) +
                                 " left): truncated or corrupt header");
    }
}

// Bulk 8-byte payloads: doubles, which travel as their IEEE bit
// patterns, and u64 words. In interchange mode each word is
// little-endian on the wire. On a little-endian host the in-memory layout
// already matches, so the bulk path is a single raw write/read.
template <typename Word>
void write_words(std::ostream& out, const Word* data, std::size_t count, long mode) {
    static_assert(sizeof(Word) == sizeof(std::uint64_t));
    if (count == 0) return;
    if (mode == k_mode_native || std::endian::native == std::endian::little) {
        write_raw(out, data, count * sizeof(Word));
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        write_u64_le(out, std::bit_cast<std::uint64_t>(data[i]));
    }
}

// A bulk payload needs byteswapping exactly when the wire byte order
// differs from the host's: a conforming interchange record is
// little-endian on the wire, a swapped foreign record is big-endian.
// CI only runs the little-endian host rows, so the static_asserts below
// pin all four host x wire combinations at compile time.
constexpr bool needs_byteswap(long mode, bool host_little) {
    if (mode == k_mode_native) return false;
    const bool wire_little = (mode == k_mode_interchange);
    return wire_little != host_little;
}

static_assert(!needs_byteswap(k_mode_interchange, /*host_little=*/true));
static_assert(needs_byteswap(k_mode_interchange_swapped, /*host_little=*/true));
static_assert(needs_byteswap(k_mode_interchange, /*host_little=*/false));
static_assert(!needs_byteswap(k_mode_interchange_swapped, /*host_little=*/false));
static_assert(!needs_byteswap(k_mode_native, /*host_little=*/true));
static_assert(!needs_byteswap(k_mode_native, /*host_little=*/false));

template <typename Word>
void read_words(std::istream& in, Word* data, std::size_t count, long mode) {
    static_assert(sizeof(Word) == sizeof(std::uint64_t));
    if (count == 0) return;
    read_raw(in, data, count * sizeof(Word));
    if (!needs_byteswap(mode, std::endian::native == std::endian::little)) return;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, data + i, sizeof bits);
        bits = byteswap_u64(bits);
        data[i] = std::bit_cast<Word>(bits);
    }
}

// A count, then that many 8-byte words: the layout of a vec and of a u64
// array, which differ only in their interchange tag.
template <typename Word>
void write_array(std::ostream& out, const std::vector<Word>& value, char tag) {
    const long mode = stream_mode(out);
    if (mode == k_mode_native) {
        write_u64(out, value.size());
    } else {
        write_tag(out, tag);
        write_u64_le(out, value.size());
    }
    write_words(out, value.data(), value.size(), mode);
}

template <typename Word>
std::vector<Word> read_array(std::istream& in, char tag, const char* what) {
    const long mode = stream_mode(in);
    std::uint64_t size = 0;
    if (mode == k_mode_native) {
        size = read_u64(in);
    } else {
        expect_tag(in, tag);
        size = read_u64_word(in, mode);
    }
    if (size > (1u << 28)) {
        throw std::runtime_error(std::string("stream_checkpoint: ") + what + " too large");
    }
    check_payload_fits(in, size * sizeof(Word), what);
    std::vector<Word> value(size, Word{});
    read_words(in, value.data(), size, mode);
    return value;
}

}  // namespace

void set_encoding(std::ios_base& stream, encoding enc) {
    stream.iword(encoding_index()) =
        enc == encoding::interchange ? k_mode_interchange : k_mode_native;
}

void write_u64(std::ostream& out, std::uint64_t value) {
    if (stream_mode(out) == k_mode_native) {
        write_raw(out, &value, sizeof value);
        return;
    }
    write_tag(out, k_tag_u64);
    write_u64_le(out, value);
}

void write_f64(std::ostream& out, double value) {
    // Exact bit pattern: the replay guarantee depends on it.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    if (stream_mode(out) == k_mode_native) {
        write_raw(out, &bits, sizeof bits);
        return;
    }
    write_tag(out, k_tag_f64);
    write_u64_le(out, bits);
}

void write_flag(std::ostream& out, bool value) { write_u64(out, value ? 1 : 0); }

void write_string(std::ostream& out, const std::string& value) {
    const long mode = stream_mode(out);
    if (mode == k_mode_native) {
        write_u64(out, value.size());
    } else {
        write_tag(out, k_tag_string);
        write_u64_le(out, value.size());
    }
    if (!value.empty()) write_raw(out, value.data(), value.size());
}

void write_vec(std::ostream& out, const std::vector<double>& value) {
    write_array(out, value, k_tag_vec);
}

void write_u64_array(std::ostream& out, const std::vector<std::uint64_t>& value) {
    write_array(out, value, k_tag_u64_array);
}

void write_matrix(std::ostream& out, const matrix& value) {
    const long mode = stream_mode(out);
    if (mode == k_mode_native) {
        write_u64(out, value.rows());
        write_u64(out, value.cols());
    } else {
        write_tag(out, k_tag_matrix);
        write_u64_le(out, value.rows());
        write_u64_le(out, value.cols());
    }
    write_words(out, value.data(), value.size(), mode);
}

std::uint64_t read_u64(std::istream& in) {
    const long mode = stream_mode(in);
    if (mode == k_mode_native) {
        std::uint64_t value = 0;
        read_raw(in, &value, sizeof value);
        return value;
    }
    expect_tag(in, k_tag_u64);
    return read_u64_word(in, mode);
}

double read_f64(std::istream& in) {
    const long mode = stream_mode(in);
    if (mode == k_mode_native) {
        std::uint64_t value = 0;
        read_raw(in, &value, sizeof value);
        return std::bit_cast<double>(value);
    }
    expect_tag(in, k_tag_f64);
    return std::bit_cast<double>(read_u64_word(in, mode));
}

bool read_flag(std::istream& in) {
    const std::uint64_t value = read_u64(in);
    if (value > 1) throw std::runtime_error("stream_checkpoint: malformed flag");
    return value == 1;
}

std::string read_string(std::istream& in) {
    const long mode = stream_mode(in);
    std::uint64_t size = 0;
    if (mode == k_mode_native) {
        size = read_u64(in);
    } else {
        expect_tag(in, k_tag_string);
        size = read_u64_word(in, mode);
    }
    if (size > (1u << 20)) throw std::runtime_error("stream_checkpoint: string too large");
    check_payload_fits(in, size, "string");
    std::string value(size, '\0');
    if (size > 0) read_raw(in, value.data(), size);
    return value;
}

std::vector<double> read_vec(std::istream& in) {
    return read_array<double>(in, k_tag_vec, "vector");
}

std::vector<std::uint64_t> read_u64_array(std::istream& in) {
    return read_array<std::uint64_t>(in, k_tag_u64_array, "u64 array");
}

matrix read_matrix(std::istream& in) {
    const long mode = stream_mode(in);
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    if (mode == k_mode_native) {
        rows = read_u64(in);
        cols = read_u64(in);
    } else {
        expect_tag(in, k_tag_matrix);
        rows = read_u64_word(in, mode);
        cols = read_u64_word(in, mode);
    }
    if (rows > (1u << 24) || cols > (1u << 24) ||
        (rows != 0 && cols > (1u << 28) / rows)) {
        throw std::runtime_error("stream_checkpoint: matrix too large");
    }
    // A matrix is 0x0 or has both extents; anything else is not a record
    // this codec wrote (and would throw std::invalid_argument below).
    if ((rows == 0) != (cols == 0)) {
        throw std::runtime_error("stream_checkpoint: matrix with one zero extent");
    }
    check_payload_fits(in, rows * cols * sizeof(double), "matrix");
    matrix value(rows, cols, 0.0);
    read_words(in, value.data(), value.size(), mode);
    return value;
}

std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
    if (!in) return std::nullopt;
    const std::istream::pos_type cur = in.tellg();
    if (cur == std::istream::pos_type(-1)) {
        in.clear();
        return std::nullopt;
    }
    long& cached = in.iword(end_cache_index());
    if (cached == -1) return std::nullopt;
    if (cached == 0) {
        in.seekg(0, std::ios::end);
        if (!in) {
            in.clear();
            in.seekg(cur);
            cached = -1;
            return std::nullopt;
        }
        const std::istream::pos_type probed = in.tellg();
        in.seekg(cur);
        if (probed == std::istream::pos_type(-1)) {
            cached = -1;
            return std::nullopt;
        }
        cached = static_cast<long>(probed) + 1;
    }
    const std::uint64_t end = static_cast<std::uint64_t>(cached - 1);
    const std::uint64_t pos = static_cast<std::uint64_t>(cur);
    if (end < pos) return std::nullopt;
    return end - pos;
}

void write_header(std::ostream& out, const std::string& type_tag) {
    if (stream_mode(out) == k_mode_native) {
        std::uint64_t magic = k_magic;
        write_raw(out, &magic, sizeof magic);
    } else {
        // The interchange magic is little-endian on the wire, untagged
        // (it is what announces the tagged encoding to the reader).
        write_u64_le(out, k_interchange_magic);
    }
    write_u64(out, k_format_version);
    write_string(out, type_tag);
}

header_info read_header_info(std::istream& in) {
    unsigned char raw[8];
    read_raw(in, raw, 8);
    std::uint64_t host_word = 0;
    std::memcpy(&host_word, raw, sizeof host_word);
    const std::uint64_t le_word = get_le64(raw);

    long mode = k_mode_native;
    if (host_word == k_magic) {
        mode = k_mode_native;
    } else if (host_word == byteswap_u64(k_magic)) {
        // A native checkpoint from a host of the opposite byte order. The
        // native format is deliberately host-endian (exact double bit
        // patterns, for bit-exact replay); reject loudly rather than
        // replay garbage.
        throw std::runtime_error(
            "stream_checkpoint: checkpoint was written on a host with different "
            "endianness (the native format is host-endian by design; re-snapshot on "
            "this architecture, or convert to the portable interchange encoding on "
            "the writing host -- see docs/CHECKPOINT_FORMAT.md)");
    } else if (le_word == k_interchange_magic) {
        mode = k_mode_interchange;
    } else if (byteswap_u64(le_word) == k_interchange_magic) {
        // An interchange record whose writer laid words out big-endian (a
        // non-normalizing foreign writer, or the cross-endian fixtures):
        // the encoding is self-identifying, so convert at the boundary
        // instead of rejecting.
        mode = k_mode_interchange_swapped;
    } else {
        throw std::runtime_error("stream_checkpoint: bad magic (not a checkpoint file)");
    }
    in.iword(encoding_index()) = mode;

    const std::uint64_t version = read_u64(in);
    if (version < k_min_format_version || version > k_format_version) {
        throw std::runtime_error(
            "stream_checkpoint: unsupported format version " + std::to_string(version) +
            " (supported: " + std::to_string(k_min_format_version) + ".." +
            std::to_string(k_format_version) + ")");
    }
    header_info info;
    info.type_tag = read_string(in);
    info.version = version;
    return info;
}

std::string read_header(std::istream& in) { return read_header_info(in).type_tag; }

std::uint64_t format_version() noexcept { return k_format_version; }

std::uint64_t min_supported_format_version() noexcept { return k_min_format_version; }

void expect_header(std::istream& in, const std::string& type_tag) {
    const std::string found = read_header(in);
    if (found != type_tag) {
        throw std::runtime_error("stream_checkpoint: expected " + type_tag + ", found " + found);
    }
}

view_streambuf::view_streambuf(std::string_view bytes) {
    // setg wants char*, but nothing writes through the get area: there is
    // no put area, and the inherited pbackfail refuses.
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
}

view_streambuf::pos_type view_streambuf::seekoff(off_type off, std::ios_base::seekdir dir,
                                                 std::ios_base::openmode which) {
    off_type base = 0;
    if (dir == std::ios_base::cur) base = gptr() - eback();
    if (dir == std::ios_base::end) base = egptr() - eback();
    return seekpos(pos_type(base + off), which);
}

view_streambuf::pos_type view_streambuf::seekpos(pos_type pos, std::ios_base::openmode which) {
    const off_type target = pos;
    if ((which & std::ios_base::in) == 0 || target < 0 || target > egptr() - eback()) {
        return pos_type(off_type(-1));
    }
    setg(eback(), eback() + target, egptr());
    return pos;
}

}  // namespace ckpt

}  // namespace netdiag
