// Checkpoint/replay persistence for the streaming subsystem.
//
// A checkpoint is the complete state of a stream_detector -- current
// model, maintenance buffers (window or tracked SVD), pending refit,
// counters, epoch -- written as a flat binary image: magic + format
// version + a type tag, then the detector's fields. Doubles are stored as
// their exact bit patterns, so a restored stream replays the remaining
// detection sequence bit-for-bit.
//
// Two encodings share that logical layout (docs/CHECKPOINT_FORMAT.md):
//
//  - native: host-endian, untagged -- the fast snapshot/restore path for
//    one architecture. A native checkpoint from a host of the opposite
//    byte order is detected via the byte-swapped magic word and rejected
//    with a clear error instead of silently replaying garbage.
//  - interchange: the portable variant. Every primitive is normalized to
//    little-endian on the wire and prefixed with a one-byte type tag, so
//    checkpoints move between hosts of any byte order and a generic
//    walker (the wire fuzzer, the cross-endian test swapper) can traverse
//    a record without the detector schema. The reader detects a record
//    whose writer failed to normalize (the interchange magic arrives
//    byte-swapped) and converts at the boundary rather than rejecting.
//    The interchange encoding doubles as the payload format of the
//    length-prefixed wire protocol in src/net/ (docs/WIRE_FORMAT.md).
//
// The encoding is ambient stream state (set_encoding below): writers pick
// it before the first byte, readers have it detected from the magic by
// read_header_info. The primitives are exposed so the detectors'
// save()/restore() implementations (subspace/online.cpp), the serving
// front-end and tests can share one codec. The codec knows no detector:
// the dispatch from a record's type tag to a restore() lives with the
// detectors (load_stream_detector, subspace/online.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <ios>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"

namespace netdiag {

namespace ckpt {

// How multi-byte values are laid out on the wire. See the header comment.
enum class encoding {
    native,       // host-endian, untagged (default)
    interchange,  // little-endian, one tag byte per primitive
};

// Sets the encoding attached to a stream. Writers call set_encoding
// before writing a record (native is the default); readers never need to
// -- read_header_info detects the encoding (and, for interchange, a
// byte-swapped foreign writer) from the magic word and attaches it to the
// stream for the primitives that follow.
void set_encoding(std::ios_base& stream, encoding enc);

// All readers throw std::runtime_error on truncated or malformed input;
// writers throw std::runtime_error when the stream enters a failed state.
void write_u64(std::ostream& out, std::uint64_t value);
void write_f64(std::ostream& out, double value);
void write_flag(std::ostream& out, bool value);
void write_string(std::ostream& out, const std::string& value);
void write_vec(std::ostream& out, const std::vector<double>& value);
void write_matrix(std::ostream& out, const matrix& value);
// A count, then that many u64 words in one bulk write (format 4 on).
void write_u64_array(std::ostream& out, const std::vector<std::uint64_t>& value);

std::uint64_t read_u64(std::istream& in);
double read_f64(std::istream& in);
bool read_flag(std::istream& in);
std::string read_string(std::istream& in);
std::vector<double> read_vec(std::istream& in);
matrix read_matrix(std::istream& in);
std::vector<std::uint64_t> read_u64_array(std::istream& in);

// Bytes between the stream's current position and its end, or nullopt
// when the stream is not seekable. The readers above validate every
// header-derived length/count against this before allocating, so a
// corrupt header claiming 2^60 bins fails with a clear error instead of
// attempting the allocation. The end offset is probed once and cached
// on the stream (iword), so per-primitive validation costs one tellg,
// not a seek-to-end round trip -- a stream that grows after its first
// record read is therefore measured against the cached end.
std::optional<std::uint64_t> remaining_bytes(std::istream& in);

// Magic + format version + the record type tag, in the encoding attached
// to the stream (set_encoding).
void write_header(std::ostream& out, const std::string& type_tag);

// Parsed header: the record type tag plus the format version the file
// was written with (see format_version()).
struct header_info {
    std::string type_tag;
    std::uint64_t version = 0;
};

// Reads and validates the header -- magic (native host-order, native
// byte-swapped -> loud rejection, interchange in either byte order ->
// accepted and converted), version in the supported range -- returning
// tag and version, and attaching the detected encoding to the stream for
// the reads that follow.
header_info read_header_info(std::istream& in);
// read_header_info, returning only the tag.
std::string read_header(std::istream& in);
// Reads the header and throws unless the tag matches (restore guards).
void expect_header(std::istream& in, const std::string& type_tag);

// The version write_header stamps on new records and the oldest version
// read_header accepts: both 4, so a record of any other version fails
// with "unsupported format version". The byte-level spec lives in
// docs/CHECKPOINT_FORMAT.md.
std::uint64_t format_version() noexcept;
std::uint64_t min_supported_format_version() noexcept;

// A read-only, seekable stream buffer over bytes held elsewhere, so a
// reader parses a record where it lies (std::istream in(&buf)) instead
// of copying it into an istringstream. Seeking is what the readers'
// remaining_bytes() validation and the header re-reads need. The bytes
// must outlive the buffer.
class view_streambuf : public std::streambuf {
public:
    explicit view_streambuf(std::string_view bytes);

protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override;
    pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;
};

}  // namespace ckpt

}  // namespace netdiag
