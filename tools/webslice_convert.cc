/**
 * @file
 * webslice-convert: transcode a recorded session between trace formats.
 *
 *   webslice-convert <input-prefix> <output-prefix> [--to=v1|v2]
 *                    [--verify]
 *
 * Reads <input-prefix>.trc (either format) and writes
 * <output-prefix>.trc in the requested format (default: the other
 * format from the input's). The value log, when present, is transcoded
 * to the matching sidecar format; the text sidecars (.sym, .crit,
 * .meta) are copied verbatim, so the converted prefix is a complete,
 * sliceable session. Output files are published atomically (temp file +
 * rename), and the record stream — and therefore every slice digest
 * computed from it — is preserved bit-identically.
 *
 * --verify reloads both prefixes after conversion and compares every
 * record and every value-log entry byte for byte, failing loudly on
 * the first difference.
 *
 * The tool prints the before/after trace sizes and the compression
 * ratio, which CI's trace-format job asserts against.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "support/logging.hh"
#include "support/strings.hh"
#include "trace/criteria.hh"
#include "trace/trace_file.hh"
#include "trace/value_log.hh"

using namespace webslice;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <input-prefix> <output-prefix> "
                 "[--to=v1|v2] [--verify]\n"
                 "  --to: target trace format; defaults to the format "
                 "the input is not\n"
                 "  --verify: reload both prefixes and compare "
                 "byte-for-byte\n",
                 argv0);
}

uint64_t
fileBytes(const std::string &path)
{
    struct stat st;
    fatal_if(::stat(path.c_str(), &st) != 0, "cannot stat ", path);
    return static_cast<uint64_t>(st.st_size);
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Copy a sidecar verbatim via a temp file + rename. */
void
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    fatal_if(!in, "cannot read ", from);
    const std::string tmp = to + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        fatal_if(!out, "cannot write ", tmp);
        out << in.rdbuf();
        fatal_if(!out, "short write copying ", from, " to ", tmp);
    }
    fatal_if(std::rename(tmp.c_str(), to.c_str()) != 0,
             "cannot rename ", tmp, " into place as ", to);
}

bool
sameRecords(const trace::Record &a, const trace::Record &b)
{
    // Field-wise, not memcmp: the 32-byte Record carries 4 bytes of
    // struct padding whose content v1 files do not define.
    return a.addr == b.addr && a.pc == b.pc && a.aux == b.aux &&
           a.tid == b.tid && a.kind == b.kind && a.flags == b.flags &&
           a.rr0 == b.rr0 && a.rr1 == b.rr1 && a.rr2 == b.rr2 &&
           a.rw == b.rw;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage(argv[0]);
        return 1;
    }
    const std::string in_prefix = argv[1];
    const std::string out_prefix = argv[2];
    bool verify = false;
    bool to_set = false;
    trace::TraceFormat to = trace::TraceFormat::V2;
    for (int a = 3; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--verify")) {
            verify = true;
        } else if (!std::strcmp(argv[a], "--to=v1")) {
            to = trace::TraceFormat::V1;
            to_set = true;
        } else if (!std::strcmp(argv[a], "--to=v2")) {
            to = trace::TraceFormat::V2;
            to_set = true;
        } else {
            usage(argv[0]);
            return 1;
        }
    }
    fatal_if(in_prefix == out_prefix,
             "input and output prefixes must differ");

    const std::string in_trace = in_prefix + ".trc";
    const std::string out_trace = out_prefix + ".trc";
    const trace::TraceFormat from = trace::sniffTraceFormat(in_trace);
    if (!to_set) {
        to = from == trace::TraceFormat::V1 ? trace::TraceFormat::V2
                                            : trace::TraceFormat::V1;
    }

    // ---- trace ---------------------------------------------------------
    const std::vector<trace::Record> records = trace::loadTrace(in_trace);
    {
        // Block index on for v1 so ranged readers keep their seeks;
        // the v2 index is structural. Atomic: a crashed conversion
        // leaves no partial .trc under the output prefix.
        trace::TraceWriter writer(out_trace, /*block_index=*/true, to,
                                  /*atomic=*/true);
        for (const auto &rec : records)
            writer.append(rec);
        writer.close();
    }

    // ---- value log -----------------------------------------------------
    const std::string in_values = in_prefix + ".val";
    const bool have_values = exists(in_values);
    if (have_values) {
        trace::ValueLog values;
        values.load(in_values, records);
        trace::CriteriaSet criteria;
        fatal_if(!exists(in_prefix + ".crit"),
                 "value log present but no criteria sidecar at ",
                 in_prefix, ".crit; cannot transcode snapshots");
        criteria.load(in_prefix + ".crit");
        values.save(out_prefix + ".val",
                    to == trace::TraceFormat::V2
                        ? trace::ValueLogFormat::V2
                        : trace::ValueLogFormat::V1,
                    records, criteria);
    }

    // ---- text sidecars -------------------------------------------------
    for (const char *ext : {".sym", ".crit", ".meta"}) {
        if (exists(in_prefix + ext))
            copyFile(in_prefix + ext, out_prefix + ext);
    }

    // ---- verify --------------------------------------------------------
    if (verify) {
        const auto reloaded = trace::loadTrace(out_trace);
        fatal_if(reloaded.size() != records.size(), "verify failed: ",
                 out_trace, " holds ", reloaded.size(), " records, ",
                 in_trace, " holds ", records.size());
        for (size_t i = 0; i < records.size(); ++i) {
            fatal_if(!sameRecords(records[i], reloaded[i]),
                     "verify failed: record ", i, " differs between ",
                     in_trace, " and ", out_trace);
        }
        if (have_values) {
            trace::ValueLog a, b;
            a.load(in_values, records);
            b.load(out_prefix + ".val", reloaded);
            fatal_if(a.values != b.values, "verify failed: value "
                     "arrays differ between ", in_prefix, ".val and ",
                     out_prefix, ".val");
            fatal_if(a.blobs.size() != b.blobs.size(), "verify failed: "
                     "blob counts differ between ", in_prefix,
                     ".val and ", out_prefix, ".val");
            for (const auto &kv : a.blobs) {
                const auto *blob = b.blobAt(kv.first);
                fatal_if(!blob || *blob != kv.second, "verify failed: "
                         "blob at record ", kv.first, " differs "
                         "between ", in_prefix, ".val and ", out_prefix,
                         ".val");
            }
        }
        std::fprintf(stderr, "verify: records%s bit-identical\n",
                     have_values ? " and value log" : "");
    }

    const uint64_t in_bytes = fileBytes(in_trace);
    const uint64_t out_bytes = fileBytes(out_trace);
    std::printf("%s (v%d, %s bytes) -> %s (v%d, %s bytes), ratio "
                "%.2fx\n",
                in_trace.c_str(), static_cast<int>(from),
                withCommas(in_bytes).c_str(), out_trace.c_str(),
                static_cast<int>(to), withCommas(out_bytes).c_str(),
                out_bytes ? static_cast<double>(in_bytes) /
                                static_cast<double>(out_bytes)
                          : 0.0);
    if (have_values) {
        std::printf("%s.val (%s bytes) -> %s.val (%s bytes)\n",
                    in_prefix.c_str(),
                    withCommas(fileBytes(in_values)).c_str(),
                    out_prefix.c_str(),
                    withCommas(fileBytes(out_prefix + ".val")).c_str());
    }
    return 0;
}
