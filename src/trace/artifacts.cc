#include "trace/artifacts.hh"

#include <iomanip>
#include <sstream>

#include "support/metrics.hh"

namespace webslice {
namespace trace {

namespace {

/** Artifact extensions in report order; .val last because optional. */
const char *const kRequiredExtensions[] = {".trc", ".sym", ".crit",
                                           ".meta"};
constexpr char kValuesExtension[] = ".val";

} // namespace

ArtifactSidecars
loadArtifactSidecars(const std::string &prefix)
{
    ArtifactSidecars sidecars;
    sidecars.symtab.load(prefix + ".sym");
    sidecars.criteria.load(prefix + ".crit");
    sidecars.meta = loadRunMeta(prefix + ".meta");
    return sidecars;
}

std::vector<ArtifactDigest>
digestArtifacts(const std::string &prefix, bool include_values)
{
    std::vector<ArtifactDigest> digests;
    for (const char *ext : kRequiredExtensions) {
        const std::string path = prefix + ext;
        digests.push_back({path, hashFile(path)});
    }
    if (include_values) {
        const std::string path = prefix + kValuesExtension;
        digests.push_back({path, hashFile(path)});
    }
    return digests;
}

uint64_t
combinedArtifactDigest(const std::vector<ArtifactDigest> &digests)
{
    ContentHasher hasher;
    for (const ArtifactDigest &entry : digests) {
        // Fold presence first so "file appeared" differs from "file
        // with the same bytes was already there".
        const uint8_t present = entry.digest.ok ? 1 : 0;
        hasher.update(&present, 1);
        if (!entry.digest.ok)
            continue;
        hasher.addU64(entry.digest.bytes);
        hasher.addU64(entry.digest.hash);
    }
    return hasher.digest();
}

std::string
artifactDigestsJson(const std::string &prefix, bool include_values)
{
    const auto digests = digestArtifacts(prefix, include_values);
    std::ostringstream out;
    out << "{\n";
    bool first = true;
    for (const ArtifactDigest &entry : digests) {
        if (!first)
            out << ",\n";
        first = false;
        out << "    \"" << jsonEscape(entry.path) << "\": ";
        if (!entry.digest.ok) {
            out << "null";
            continue;
        }
        out << "{\"bytes\": " << entry.digest.bytes
            << ", \"hash64\": \"0x" << std::hex << std::setw(16)
            << std::setfill('0') << entry.digest.hash << std::dec
            << std::setfill(' ') << "\"}";
    }
    out << "\n  }";
    return out.str();
}

} // namespace trace
} // namespace webslice
