/**
 * @file
 * The resident-session cache: the reason webslice-served exists.
 *
 * The paper's workflow is many queries over one trace — pixel-buffer
 * criteria at many markers plus the syscall criteria — but a batch CLI
 * re-opens, re-indexes, and re-runs the forward pass for every query.
 * A Session holds everything a backward pass needs that does not
 * depend on the criterion: the mmap'd trace, the parsed sidecars, the
 * CFGs, postdominators, and the sealed control-dependence map. Repeat
 * queries against a cached session skip the entire forward pass.
 *
 * Cache keying follows the artifact digests (contentHash64 of the .trc/
 * .sym/.crit/.meta bytes): a prefix whose files changed on disk is a
 * different recording and invalidates its stale entry. Entries are
 * evicted least-recently-used once the configured byte budget is
 * exceeded; sessions handed out as shared_ptr stay alive for their
 * holders even after eviction. Concurrent opens of the same recording
 * collapse onto one forward pass — later callers wait for the builder
 * instead of duplicating it.
 *
 * Beside the sessions, the cache keeps finished query summaries keyed by
 * (artifact identity, criteria mode, resolved window end): a slice is a
 * pure function of those three, so a repeated query is answered without
 * a backward pass. Summaries share the byte budget and the per-identity
 * invalidation with sessions.
 */

#ifndef WEBSLICE_SERVICE_SESSION_CACHE_HH
#define WEBSLICE_SERVICE_SESSION_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "service/protocol.hh"
#include "trace/artifacts.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace service {

/** One recording, fully prepared for criterion queries. */
struct Session
{
    std::string prefix;

    /** combinedArtifactDigest over `digests` — the cache identity. */
    uint64_t identity = 0;

    /** Per-artifact digests captured when the session was built. */
    std::vector<trace::ArtifactDigest> digests;

    trace::ArtifactSidecars sidecars;
    std::unique_ptr<trace::MappedTrace> trace;
    graph::CfgSet cfgs;
    graph::ControlDepMap deps; ///< Sealed at build time (thread-safe reads).

    /** Budget accounting: artifact bytes plus graph-structure estimates. */
    uint64_t approxBytes = 0;

    /**
     * Analysis window for a query: the record count, capped by the
     * metadata load-complete index (unless no_window) and by an
     * explicit end_index override — the same derivation the CLIs use.
     */
    size_t windowEnd(bool no_window, uint64_t end_override) const;
};

class SessionCache
{
  public:
    /**
     * @param byte_budget approximate ceiling on cached session bytes;
     *                    the most recent session is always retained
     *                    even if it exceeds the budget alone.
     */
    explicit SessionCache(uint64_t byte_budget);

    SessionCache(const SessionCache &) = delete;
    SessionCache &operator=(const SessionCache &) = delete;

    /**
     * Get the session for `prefix`, building it if absent or stale.
     * Throws FatalError (via the loaders, captured) when the artifacts
     * are missing or malformed — the message carries the loader's
     * file+offset diagnostic for the client.
     *
     * @param was_hit set to true when the forward pass was skipped
     *                (cache hit or joined an in-flight build).
     */
    std::shared_ptr<const Session> acquire(const std::string &prefix,
                                           bool *was_hit = nullptr);

    /**
     * A copy of the cached summary of an earlier query over `session`
     * with this mode and resolved window end, if any. A hit also counts
     * on the slicer.memo_hits metric: it stands in for one backward pass.
     */
    std::optional<SliceSummary>
    findResult(const Session &session, slicer::CriteriaMode mode,
               size_t window_end);

    /**
     * Cache `summary` for (session identity, mode, window end). Over
     * budget, cold summaries are evicted before cold sessions, since
     * recomputing a summary is one backward pass while rebuilding a
     * session is a full forward pass.
     */
    void storeResult(const Session &session, slicer::CriteriaMode mode,
                     size_t window_end, const SliceSummary &summary);

    /** Cache observability (also published as service.* metrics). */
    struct Stats
    {
        uint64_t entries = 0;
        uint64_t bytes = 0;
        uint64_t byteBudget = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t invalidations = 0;
        uint64_t built = 0;     ///< Forward passes actually run.
        uint64_t openWaits = 0; ///< Joins onto an in-flight build.

        /** Result cache (bytes are included in `bytes` too). */
        uint64_t resultEntries = 0;
        uint64_t resultBytes = 0;
        uint64_t resultHits = 0;
        uint64_t resultMisses = 0;
        uint64_t resultEvictions = 0;
    };

    Stats stats() const;

    /** Drop every entry (drain/tests); in-use sessions stay alive. */
    void clear();

  private:
    struct Building
    {
        bool done = false;
        std::shared_ptr<const Session> session;
        std::exception_ptr error;
    };

    struct Entry
    {
        std::shared_ptr<const Session> session;
        std::list<std::string>::iterator lruIt;
    };

    struct ResultEntry
    {
        SliceSummary summary;
        std::list<std::string>::iterator lruIt;
        uint64_t identity = 0;
        uint64_t bytes = 0;
    };

    std::shared_ptr<Session>
    buildSession(const std::string &prefix,
                 std::vector<trace::ArtifactDigest> digests,
                 uint64_t identity) const;

    /** Insert under the lock; evicts LRU entries beyond the budget. */
    void insertLocked(const std::string &prefix,
                      std::shared_ptr<const Session> session);

    void removeLocked(const std::string &prefix);

    /** Move `prefix` to the front of the LRU list. */
    void touchLocked(const std::string &prefix, Entry &entry);

    void removeResultLocked(const std::string &key);

    /** Evict cold results (never `exempt`) while over the byte budget. */
    void evictResultsLocked(const std::string &exempt);

    /** Drop cached results of a now-invalidated recording. */
    void dropResultsForIdentityLocked(uint64_t identity);

    void publishGaugesLocked();

    const uint64_t budget_;

    mutable std::mutex mutex_;
    std::condition_variable buildDone_;
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_; ///< Front = most recently used.
    std::map<uint64_t, std::shared_ptr<Building>> building_;
    std::unordered_map<std::string, ResultEntry> results_;
    std::list<std::string> resultLru_; ///< Front = most recently used.
    uint64_t bytes_ = 0;
    uint64_t resultBytes_ = 0; ///< Results' share of bytes_.
    Stats counters_;
};

} // namespace service
} // namespace webslice

#endif // WEBSLICE_SERVICE_SESSION_CACHE_HH
