#include "service/session_cache.hh"

#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/columnar.hh"

namespace webslice {
namespace service {

namespace {

Counter &
cacheCounter(const char *name)
{
    return MetricRegistry::global().counter(name);
}

/**
 * Rough but monotonic footprint of a prepared session: the artifact
 * bytes (the mmap'd trace dominates) plus per-node/per-edge estimates
 * for the graph structures. The budget is a sizing knob, not an
 * allocator ledger, so "plausibly proportional" is the contract.
 */
uint64_t
estimateSessionBytes(const Session &session)
{
    // Artifacts are charged at their on-disk size — for a columnar (v2)
    // trace that is the compressed footprint, which is also what the
    // digest pass read. The decoded view is charged separately below
    // when the trace could not be mmap'd (v2 always decodes into an
    // owned buffer).
    uint64_t bytes = 0;
    for (const auto &artifact : session.digests)
        if (artifact.digest.ok)
            bytes += artifact.digest.bytes;
    if (session.trace && !session.trace->mapped())
        bytes += session.trace->records().size() * sizeof(trace::Record);

    uint64_t nodes = 0;
    uint64_t edges = 0;
    for (const auto &entry : session.cfgs.byFunc) {
        nodes += entry.second.nodeCount();
        for (const auto &succ : entry.second.succs)
            edges += succ.size();
    }
    // Node: pc + hash slot + two adjacency vector headers; edge: two
    // int32 endpoints kept in both directions.
    bytes += nodes * 96 + edges * 16;
    bytes += session.cfgs.funcOf.size() * sizeof(trace::FuncId);
    bytes += session.deps.pairCount() * 16 + session.deps.nodeCount() * 64;
    return bytes;
}

std::string
resultKey(uint64_t identity, slicer::CriteriaMode mode, size_t window_end)
{
    return format("%016llx|%d|%llu",
                  static_cast<unsigned long long>(identity),
                  static_cast<int>(mode),
                  static_cast<unsigned long long>(window_end));
}

/** Heap footprint of one cached summary: the key, the summary with its
 *  strings and share list, and about 64 bytes of hash-node and LRU-node
 *  bookkeeping. */
uint64_t
estimateResultBytes(const std::string &key, const SliceSummary &summary)
{
    uint64_t bytes = key.size() + sizeof(SliceSummary) + 64;
    bytes += summary.mode.size();
    for (const auto &share : summary.categoryShares)
        bytes += sizeof(share) + share.first.size();
    return bytes;
}

} // namespace

size_t
Session::windowEnd(bool no_window, uint64_t end_override) const
{
    size_t end = trace->records().size();
    const trace::RunMeta &meta = sidecars.meta;
    if (!no_window && meta.loadOnly && meta.loadCompleteIndex != SIZE_MAX)
        end = std::min(end, meta.loadCompleteIndex);
    if (end_override != UINT64_MAX)
        end = std::min<size_t>(end, end_override);
    return end;
}

SessionCache::SessionCache(uint64_t byte_budget)
    : budget_(byte_budget)
{
    counters_.byteBudget = byte_budget;
    // The columnar trace decode cache shares the --cache-bytes budget
    // rather than adding its own: a quarter goes to decoded v2 blocks
    // (ranged and streamed reads), the rest stays with sessions.
    trace::TraceDecodeCache::global().setBudget(byte_budget / 4);
}

std::shared_ptr<Session>
SessionCache::buildSession(const std::string &prefix,
                           std::vector<trace::ArtifactDigest> digests,
                           uint64_t identity) const
{
    // Loader failures must reach the caller as exceptions with the
    // loaders' own file+offset diagnostics, not exit the daemon.
    ScopedFatalCapture capture;
    auto session = std::make_shared<Session>();
    session->prefix = prefix;
    session->identity = identity;
    session->digests = std::move(digests);
    session->sidecars = trace::loadArtifactSidecars(prefix);
    session->trace =
        std::make_unique<trace::MappedTrace>(prefix + ".trc");
    session->cfgs = graph::buildCfgs(session->trace->records(),
                                     session->sidecars.symtab);
    session->deps = graph::buildControlDeps(session->cfgs);
    // Seal now: concurrent queries will probe depsOf() from worker
    // threads, and the lazy first-use seal is not race-safe.
    session->deps.ensureSealed();
    session->approxBytes = estimateSessionBytes(*session);
    return session;
}

std::shared_ptr<const Session>
SessionCache::acquire(const std::string &prefix, bool *was_hit)
{
    if (was_hit)
        *was_hit = false;

    // Digest outside the lock: it reads every artifact byte and must
    // not serialize against other lookups.
    auto digests = trace::digestArtifacts(prefix);
    const uint64_t identity = trace::combinedArtifactDigest(digests);

    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(prefix);
    if (it != entries_.end()) {
        if (it->second.session->identity == identity) {
            ++counters_.hits;
            cacheCounter("service.cache_hits").add();
            touchLocked(prefix, it->second);
            if (was_hit)
                *was_hit = true;
            return it->second.session;
        }
        // The files changed under the prefix: the entry describes a
        // recording that no longer exists on disk, and so do any
        // results computed from it.
        ++counters_.invalidations;
        cacheCounter("service.cache_invalidations").add();
        dropResultsForIdentityLocked(it->second.session->identity);
        removeLocked(prefix);
    }

    ++counters_.misses;
    cacheCounter("service.cache_misses").add();

    auto inflight = building_.find(identity);
    if (inflight != building_.end()) {
        // Same recording already being prepared: wait for that forward
        // pass instead of running a duplicate.
        ++counters_.openWaits;
        cacheCounter("service.cache_open_waits").add();
        auto build = inflight->second;
        buildDone_.wait(lock, [&] { return build->done; });
        if (build->error)
            std::rethrow_exception(build->error);
        if (entries_.find(prefix) == entries_.end())
            insertLocked(prefix, build->session);
        if (was_hit)
            *was_hit = true; // The forward pass was shared, not re-run.
        return build->session;
    }

    auto build = std::make_shared<Building>();
    building_.emplace(identity, build);
    lock.unlock();

    std::shared_ptr<Session> session;
    try {
        session = buildSession(prefix, std::move(digests), identity);
    } catch (...) {
        std::lock_guard<std::mutex> relock(mutex_);
        building_.erase(identity);
        build->error = std::current_exception();
        build->done = true;
        buildDone_.notify_all();
        throw;
    }

    lock.lock();
    ++counters_.built;
    cacheCounter("service.sessions_built").add();
    insertLocked(prefix, session);
    building_.erase(identity);
    build->session = session;
    build->done = true;
    buildDone_.notify_all();
    return session;
}

void
SessionCache::insertLocked(const std::string &prefix,
                           std::shared_ptr<const Session> session)
{
    // A racing rebuild of the same prefix (files changed while another
    // build was in flight) may have landed first; replace it cleanly
    // so the LRU list and byte ledger stay consistent.
    removeLocked(prefix);
    lru_.push_front(prefix);
    bytes_ += session->approxBytes;
    entries_[prefix] = Entry{std::move(session), lru_.begin()};

    // Over budget, cold results go before cold sessions: recomputing a
    // result is one backward pass, rebuilding a session a forward pass.
    evictResultsLocked(std::string());

    // Evict from the cold end until the budget holds; the entry just
    // inserted is exempt, since a cache that cannot hold the session
    // being served would thrash forever.
    while (bytes_ > budget_ && lru_.size() > 1) {
        const std::string victim = lru_.back();
        ++counters_.evictions;
        cacheCounter("service.cache_evictions").add();
        removeLocked(victim);
    }
    publishGaugesLocked();
}

void
SessionCache::removeLocked(const std::string &prefix)
{
    auto it = entries_.find(prefix);
    if (it == entries_.end())
        return;
    bytes_ -= it->second.session->approxBytes;
    lru_.erase(it->second.lruIt);
    entries_.erase(it);
    publishGaugesLocked();
}

void
SessionCache::touchLocked(const std::string &prefix, Entry &entry)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(prefix);
    entry.lruIt = lru_.begin();
}

std::optional<SliceSummary>
SessionCache::findResult(const Session &session, slicer::CriteriaMode mode,
                         size_t window_end)
{
    const std::string key = resultKey(session.identity, mode, window_end);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = results_.find(key);
    if (it == results_.end()) {
        ++counters_.resultMisses;
        cacheCounter("service.result_misses").add();
        return std::nullopt;
    }
    ++counters_.resultHits;
    cacheCounter("service.result_hits").add();
    cacheCounter("slicer.memo_hits").add();
    resultLru_.erase(it->second.lruIt);
    resultLru_.push_front(key);
    it->second.lruIt = resultLru_.begin();
    return it->second.summary;
}

void
SessionCache::storeResult(const Session &session, slicer::CriteriaMode mode,
                          size_t window_end, const SliceSummary &summary)
{
    const std::string key = resultKey(session.identity, mode, window_end);
    ResultEntry entry;
    entry.summary = summary;
    entry.identity = session.identity;
    entry.bytes = estimateResultBytes(key, summary);

    std::lock_guard<std::mutex> lock(mutex_);
    removeResultLocked(key); // racing computations of one key: last wins
    resultLru_.push_front(key);
    entry.lruIt = resultLru_.begin();
    bytes_ += entry.bytes;
    resultBytes_ += entry.bytes;
    results_[key] = std::move(entry);
    evictResultsLocked(key);
    publishGaugesLocked();
}

void
SessionCache::removeResultLocked(const std::string &key)
{
    auto it = results_.find(key);
    if (it == results_.end())
        return;
    bytes_ -= it->second.bytes;
    resultBytes_ -= it->second.bytes;
    resultLru_.erase(it->second.lruIt);
    results_.erase(it);
}

void
SessionCache::evictResultsLocked(const std::string &exempt)
{
    // The result just inserted (if any) is exempt for the same reason
    // the newest session is: a cache that cannot hold what it is
    // serving would thrash forever.
    while (bytes_ > budget_ && !resultLru_.empty() &&
           resultLru_.back() != exempt) {
        const std::string victim = resultLru_.back();
        ++counters_.resultEvictions;
        cacheCounter("service.result_evictions").add();
        removeResultLocked(victim);
    }
}

void
SessionCache::dropResultsForIdentityLocked(uint64_t identity)
{
    std::vector<std::string> victims;
    for (const auto &kv : results_)
        if (kv.second.identity == identity)
            victims.push_back(kv.first);
    for (const auto &key : victims)
        removeResultLocked(key);
}

void
SessionCache::publishGaugesLocked()
{
    auto &registry = MetricRegistry::global();
    registry.gauge("service.cache_bytes").set(bytes_);
    registry.gauge("service.cache_entries").set(entries_.size());
    registry.gauge("service.result_bytes").set(resultBytes_);
    registry.gauge("service.result_entries").set(results_.size());
}

SessionCache::Stats
SessionCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = counters_;
    out.entries = entries_.size();
    out.bytes = bytes_;
    out.byteBudget = budget_;
    out.resultEntries = results_.size();
    out.resultBytes = resultBytes_;
    return out;
}

void
SessionCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    results_.clear();
    resultLru_.clear();
    bytes_ = 0;
    resultBytes_ = 0;
    publishGaugesLocked();
}

} // namespace service
} // namespace webslice
