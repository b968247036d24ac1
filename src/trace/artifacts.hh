/**
 * @file
 * One recording's artifact bundle: the <prefix>.trc/.sym/.crit/.meta
 * files webslice-record hands to every offline consumer, plus the
 * optional <prefix>.val value log.
 *
 * webslice-profile, webslice-check, and webslice-served all start from
 * the same ritual — load the three sidecars, note the run metadata, and
 * digest every artifact for the report — so it lives here once instead
 * of being pasted into each front end. The digests double as the
 * session-cache key in the service: two prefixes with identical digests
 * are the same recording, and a changed file on disk is a different one.
 */

#ifndef WEBSLICE_TRACE_ARTIFACTS_HH
#define WEBSLICE_TRACE_ARTIFACTS_HH

#include <string>
#include <utility>
#include <vector>

#include "support/content_hash.hh"
#include "trace/criteria.hh"
#include "trace/run_meta.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace trace {

/** The non-trace sidecars of one recording, loaded together. */
struct ArtifactSidecars
{
    SymbolTable symtab;
    CriteriaSet criteria;
    RunMeta meta;
};

/**
 * Load <prefix>.sym, <prefix>.crit, and <prefix>.meta. Each loader
 * keeps its own loud failure behavior (file + offset/line on
 * truncation or garbage); a missing .meta stays legal.
 */
ArtifactSidecars loadArtifactSidecars(const std::string &prefix);

/** (path, content hash) for each artifact of a recording, in a fixed
 *  order. */
struct ArtifactDigest
{
    std::string path;
    FileHash digest;
};

/**
 * Hash every byte of the artifact files of `prefix` (hashFile): .trc,
 * .sym, .crit, .meta, and (with include_values) .val. Unreadable files
 * keep digest.ok == false rather than failing, so optional sidecars
 * report as absent.
 */
std::vector<ArtifactDigest> digestArtifacts(const std::string &prefix,
                                            bool include_values = false);

/**
 * Fold a digest list into one content-hash identity for the whole
 * recording. Any changed byte in any artifact changes the fold; a
 * missing-but-listed artifact contributes a fixed marker so presence
 * changes are visible too.
 */
uint64_t combinedArtifactDigest(const std::vector<ArtifactDigest> &digests);

/**
 * The digests as the JSON object both metrics reports embed: path ->
 * {"bytes": N, "hash64": "0x..."} with null for unreadable files.
 */
std::string artifactDigestsJson(const std::string &prefix,
                                bool include_values = false);

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_ARTIFACTS_HH
