// netdiag-lint: repo-contract checker for rules no generic tool knows.
//
// The codebase carries determinism contracts that are documented in
// docs/ARCHITECTURE.md but that neither the compiler
// nor clang-tidy can enforce, because they are about *this* repo's layout:
//
//  R1  Determinism / layering: src/ outside src/engine/ and src/net/ must
//      not reach for thread primitives (std::thread, std::async,
//      std::this_thread), C randomness (rand/srand) or wall clocks
//      (system_clock, steady_clock, gettimeofday, ...). Threading funnels
//      through the engine (thread_pool, the sync.h locks and condition
//      variable) -- plus the net layer's accept loop, which owns no
//      replayed state; anything time- or randomness-dependent would break
//      the bit-identical replay guarantee the serving stack advertises.
//  R2  Kernel purity: the numeric kernels (src/linalg/, engine/simd.h,
//      subspace/model.cpp, subspace/pca.cpp) and the rest of a refit's
//      arithmetic (subspace/separation.cpp's 3-sigma walk,
//      stats/descriptive.cpp's mean and sigma behind it, and the routing
//      terms in subspace/identification.cpp and quantification.cpp) must
//      not call std::fma -- the -ffp-contract=off contract demands the
//      same double rounding everywhere, so a refit replays bit for bit --
//      and must not iterate unordered containers, whose traversal order
//      would feed reductions in nondeterministic order.
//  R4  Error-code doc parity: every ingest_error enumerator (except ok)
//      must appear (backticked) in README.md's backpressure section.
//  R5  Layer map: one table (k_layer_map) puts every src/ directory on a
//      layer, bottom to top: engine < stats < linalg < topology, traffic,
//      baselines < measurement < subspace < eval, serve < net <
//      scenarios. A file may include headers from its own directory and
//      from directories on lower layers only -- never from its own
//      layer's other directories or from above -- so the include graph
//      between directories stays acyclic: the kernels cannot reach into
//      evaluation code, the engine into the detectors, or the checkpoint
//      codec into the detectors it stores. A src/ directory missing from
//      the table is a violation too. docs/ARCHITECTURE.md draws the map.
//  R6  Socket containment: raw socket headers (<sys/socket.h>,
//      <netinet/...>, <arpa/inet.h>, <netdb.h>, <sys/un.h>) are allowed
//      only under src/net/. Everything else speaks the wire protocol
//      through net::tcp_socket and friends, so portability shims and
//      SO_* option handling stay in one reviewed place.
//  R7  Annotated locks only: src/ outside engine/sync.h must not use the
//      raw standard mutexes, condition variables or lock guards
//      (std::mutex, std::shared_mutex, std::condition_variable,
//      std::lock_guard, std::unique_lock, std::shared_lock,
//      std::scoped_lock). They carry no capability attributes, so the
//      thread-safety analysis cannot see what they guard; the sync::
//      wrappers forward to them with the annotations attached.
//
// Scanning is token-based on comment- and string-stripped source, so a
// comment saying "no std::thread here" does not trip R1. R5 and R6 scan
// raw lines instead, because include paths live inside string literals. A
// rule whose anchor (src/, the enum, src/net/) is absent under --root is
// skipped: the test fixtures under tests/lint_fixtures/ rely on that to
// exercise one rule at a time. (R3, a tuning-doc parity rule, was
// retired with the tuning block it checked; the other rules keep their
// numbers.)
//
// Exit status: 0 clean, 1 violations (one "file:line: [rule] ..." line
// each), 2 usage or I/O error. Run via scripts/netdiag_lint.sh or the
// lint.* ctest entries.
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct violation {
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

// Replaces comments, string literals and char literals with spaces,
// preserving line structure so reported line numbers match the source.
// Handles //, /* */, "..." and '...' with escapes, and R"( ... )" raw
// strings with an optional delimiter.
std::vector<std::string> stripped_lines(const std::string& text) {
    std::vector<std::string> lines(1);
    enum class state { code, line_comment, block_comment, string, chr, raw_string };
    state st = state::code;
    std::string raw_close;  // e.g. )delim" for the active raw string
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n') {
            if (st == state::line_comment) st = state::code;
            lines.emplace_back();
            continue;
        }
        switch (st) {
            case state::code:
                if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
                    st = state::line_comment;
                } else if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
                    st = state::block_comment;
                    ++i;
                    lines.back() += "  ";
                } else if (c == 'R' && i + 1 < text.size() && text[i + 1] == '"' &&
                           (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                                       text[i - 1] != '_'))) {
                    // R"delim( ... )delim"
                    std::size_t open = text.find('(', i + 2);
                    if (open == std::string::npos) {
                        lines.back() += c;
                        break;
                    }
                    raw_close = ")" + text.substr(i + 2, open - (i + 2)) + "\"";
                    st = state::raw_string;
                    for (std::size_t k = i; k <= open; ++k) lines.back() += ' ';
                    i = open;
                } else if (c == '"') {
                    st = state::string;
                    lines.back() += ' ';
                } else if (c == '\'') {
                    st = state::chr;
                    lines.back() += ' ';
                } else {
                    lines.back() += c;
                }
                break;
            case state::line_comment:
                break;
            case state::block_comment:
                if (c == '*' && i + 1 < text.size() && text[i + 1] == '/') {
                    st = state::code;
                    ++i;
                }
                break;
            case state::string:
                if (c == '\\') {
                    ++i;
                } else if (c == '"') {
                    st = state::code;
                }
                lines.back() += ' ';
                break;
            case state::chr:
                if (c == '\\') {
                    ++i;
                } else if (c == '\'') {
                    st = state::code;
                }
                lines.back() += ' ';
                break;
            case state::raw_string:
                if (text.compare(i, raw_close.size(), raw_close) == 0) {
                    st = state::code;
                    i += raw_close.size() - 1;
                }
                lines.back() += ' ';
                break;
        }
    }
    return lines;
}

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when `token` occurs in `line` bounded by non-identifier characters.
// A preceding ':' is a boundary on purpose: 'fma' must still match inside
// 'std::fma(' and 'rand' inside 'std::rand('.
bool has_token(const std::string& line, const std::string& token) {
    std::size_t pos = 0;
    while ((pos = line.find(token, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= line.size() || !ident_char(line[end]);
        if (left_ok && right_ok) return true;
        pos += 1;
    }
    return false;
}

std::optional<std::string> read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool is_source_file(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

// Path of `p` relative to `root`, with forward slashes.
std::string rel(const fs::path& root, const fs::path& p) {
    std::string s = p.lexically_relative(root).generic_string();
    return s;
}

// --- R1: determinism / layering --------------------------------------------

const char* const k_r1_tokens[] = {
    "std::thread",      "std::jthread",     "std::async",
    "std::this_thread", "rand",             "srand",
    "system_clock",     "steady_clock",     "high_resolution_clock",
    "gettimeofday",     "clock_gettime",    "timespec_get",
};

void check_r1(const fs::path& root, const std::string& relpath,
              const std::vector<std::string>& lines, std::vector<violation>& out) {
    (void)root;
    // The engine owns the pooled workers; the net layer owns the accept
    // loop and per-connection reader threads (none of which touch
    // replayed state). Nobody else spawns.
    if (relpath.rfind("src/engine/", 0) == 0) return;
    if (relpath.rfind("src/net/", 0) == 0) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const char* token : k_r1_tokens) {
            if (has_token(lines[i], token)) {
                out.push_back({relpath, i + 1, "R1",
                               std::string("'") + token +
                                   "' outside src/engine/ and src/net/ -- thread primitives, "
                                   "randomness and wall clocks must funnel through the "
                                   "engine layer"});
            }
        }
    }
}

// --- R2: kernel purity ------------------------------------------------------

bool is_kernel_file(const std::string& relpath) {
    return relpath.rfind("src/linalg/", 0) == 0 || relpath == "src/engine/simd.h" ||
           relpath == "src/subspace/model.cpp" || relpath == "src/subspace/pca.cpp" ||
           relpath == "src/subspace/separation.cpp" ||
           relpath == "src/subspace/identification.cpp" ||
           relpath == "src/subspace/quantification.cpp" ||
           relpath == "src/stats/descriptive.cpp";
}

const char* const k_r2_tokens[] = {"fma", "unordered_map", "unordered_set"};

void check_r2(const std::string& relpath, const std::vector<std::string>& lines,
              std::vector<violation>& out) {
    if (!is_kernel_file(relpath)) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const char* token : k_r2_tokens) {
            if (has_token(lines[i], token)) {
                out.push_back({relpath, i + 1, "R2",
                               std::string("'") + token +
                                   "' in a kernel file -- breaks the fixed-order, "
                                   "contraction-free bit-identical reduction contract"});
            }
        }
    }
}

// --- R5: the layer map ------------------------------------------------------

// Every src/ directory with its layer, bottom to top. A directory may
// include itself and every directory on a lower layer.
struct layer_entry {
    const char* dir;
    int layer;
};

const layer_entry k_layer_map[] = {
    {"engine", 0},
    {"stats", 1},
    {"linalg", 2},
    {"topology", 3}, {"traffic", 3}, {"baselines", 3},
    {"measurement", 4},
    {"subspace", 5},
    {"eval", 6}, {"serve", 6},
    {"net", 7},
    {"scenarios", 8},
};

std::optional<int> layer_of(const std::string& dir) {
    for (const layer_entry& e : k_layer_map) {
        if (dir == e.dir) return e.layer;
    }
    return std::nullopt;
}

// The first path component of an #include line's header ("subspace" for
// #include "subspace/online.h"), or "" when the line is no include or its
// header names no directory.
std::string included_dir(const std::string& line) {
    const std::size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') return "";
    const std::size_t word = line.find_first_not_of(" \t", hash + 1);
    if (word == std::string::npos || line.compare(word, 7, "include") != 0) return "";
    const std::size_t open = line.find_first_of("\"<", word + 7);
    if (open == std::string::npos) return "";
    const std::size_t close = line.find_first_of("\">", open + 1);
    const std::size_t slash = line.find('/', open + 1);
    if (close == std::string::npos || slash == std::string::npos || slash > close) return "";
    return line.substr(open + 1, slash - open - 1);
}

// Raw (unstripped) lines: include paths live inside string literals,
// which stripped_lines blanks out.
void check_r5(const std::string& relpath, const std::vector<std::string>& raw_lines,
              std::vector<violation>& out) {
    const std::size_t dir_end = relpath.find('/', 4);  // relpath is src/<dir>/...
    const std::string dir =
        dir_end == std::string::npos ? "" : relpath.substr(4, dir_end - 4);
    const std::optional<int> own = layer_of(dir);
    if (!own) {
        out.push_back({relpath, 1, "R5",
                       "file outside every directory of the layer map -- add its src/ "
                       "directory to k_layer_map and docs/ARCHITECTURE.md"});
        return;
    }
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
        const std::string target = included_dir(raw_lines[i]);
        if (target.empty() || target == dir) continue;
        const std::optional<int> layer = layer_of(target);
        if (!layer) continue;  // not a src/ directory: a system or third-party header
        if (*layer >= *own) {
            out.push_back({relpath, i + 1, "R5",
                           "src/" + dir + "/ (layer " + std::to_string(*own) + ") includes " +
                               target + "/ (layer " + std::to_string(*layer) +
                               ") -- a directory includes only layers below its own "
                               "(docs/ARCHITECTURE.md)"});
        }
    }
}

// --- R6: socket containment -------------------------------------------------

const char* const k_r6_headers[] = {
    "sys/socket.h", "netinet/", "arpa/inet.h", "netdb.h", "sys/un.h",
};

// Raw (unstripped) lines, like R5: include paths live inside the
// <...> / "..." part that stripped_lines blanks out.
void check_r6(const std::string& relpath, const std::vector<std::string>& raw_lines,
              std::vector<violation>& out) {
    if (relpath.rfind("src/net/", 0) == 0) return;  // the one allowed home
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
        const std::string& line = raw_lines[i];
        if (line.find("#include") == std::string::npos) continue;
        for (const char* header : k_r6_headers) {
            if (line.find(std::string("<") + header) != std::string::npos ||
                line.find(std::string("\"") + header) != std::string::npos) {
                out.push_back({relpath, i + 1, "R6",
                               std::string("raw socket header '") + header +
                                   "' outside src/net/ -- all socket I/O goes through "
                                   "the net layer's tcp wrappers"});
            }
        }
    }
}

// --- R7: annotated locks only -----------------------------------------------

const char* const k_r7_tokens[] = {
    "std::mutex",      "std::shared_mutex", "std::condition_variable",
    "std::lock_guard", "std::unique_lock",  "std::shared_lock",
    "std::scoped_lock",
};

void check_r7(const std::string& relpath, const std::vector<std::string>& lines,
              std::vector<violation>& out) {
    if (relpath == "src/engine/sync.h") return;  // the wrappers themselves
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const char* token : k_r7_tokens) {
            if (has_token(lines[i], token)) {
                out.push_back({relpath, i + 1, "R7",
                               std::string("raw '") + token +
                                   "' outside src/engine/sync.h -- invisible to the "
                                   "thread-safety analysis; use the sync:: wrappers"});
            }
        }
    }
}

// --- R4: doc parity ---------------------------------------------------------

bool doc_mentions(const std::string& doc, const std::string& name) {
    return doc.find("`" + name + "`") != std::string::npos;
}

void check_r4(const fs::path& root, std::vector<violation>& out) {
    const auto header = read_file(root / "src/serve/stream_server.h");
    if (!header) return;  // rule skipped: no serving header under this root
    const auto readme = read_file(root / "README.md");
    const std::vector<std::string> lines = stripped_lines(*header);

    const std::regex enumerator_re(R"(^\s*([a-zA-Z_]\w*)\s*(=[^,]*)?,?\s*$)");
    bool in_enum = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& line = lines[i];
        if (!in_enum) {
            if (line.find("enum class ingest_error") != std::string::npos) in_enum = true;
            continue;
        }
        if (line.find("};") != std::string::npos) break;
        std::smatch m;
        if (std::regex_match(line, m, enumerator_re)) {
            const std::string name = m[1];
            if (name == "ok") continue;  // success is not a backpressure row
            if (!readme || !doc_mentions(*readme, name)) {
                out.push_back({"src/serve/stream_server.h", i + 1, "R4",
                               "ingest_error::" + name +
                                   " is missing from README.md's backpressure table"});
            }
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    fs::path root;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else {
            std::cerr << "usage: netdiag_lint --root <repo-root>\n";
            return 2;
        }
    }
    if (root.empty() || !fs::exists(root)) {
        std::cerr << "netdiag_lint: --root missing or does not exist\n";
        return 2;
    }

    std::vector<violation> violations;

    const fs::path src = root / "src";
    if (fs::exists(src)) {
        // R6's anchor: without a net layer under this root no socket
        // header has a home to be kept in (fixtures exercise one rule at
        // a time).
        const bool has_net = fs::exists(src / "net");
        std::vector<fs::path> files;
        for (const auto& entry : fs::recursive_directory_iterator(src)) {
            if (entry.is_regular_file() && is_source_file(entry.path())) {
                files.push_back(entry.path());
            }
        }
        std::sort(files.begin(), files.end());
        for (const fs::path& file : files) {
            const auto text = read_file(file);
            if (!text) {
                std::cerr << "netdiag_lint: cannot read " << file << "\n";
                return 2;
            }
            const std::vector<std::string> lines = stripped_lines(*text);
            const std::string relpath = rel(root, file);
            check_r1(root, relpath, lines, violations);
            check_r2(relpath, lines, violations);
            check_r7(relpath, lines, violations);
            std::vector<std::string> raw_lines(1);
            for (const char c : *text) {
                if (c == '\n') {
                    raw_lines.emplace_back();
                } else {
                    raw_lines.back() += c;
                }
            }
            check_r5(relpath, raw_lines, violations);
            if (has_net) check_r6(relpath, raw_lines, violations);
        }
    }
    check_r4(root, violations);

    for (const violation& v : violations) {
        std::cout << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message << "\n";
    }
    if (violations.empty()) {
        std::cout << "netdiag_lint: clean (" << root.generic_string() << ")\n";
        return 0;
    }
    std::cout << "netdiag_lint: " << violations.size() << " violation(s)\n";
    return 1;
}
