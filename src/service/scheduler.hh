/**
 * @file
 * Multi-criteria batch scheduling over cached sessions.
 *
 * Each slicing criterion of a batch becomes one Job run on the shared
 * ThreadPool, so a batch of N criteria against one session executes
 * its backward passes concurrently. A query whose (recording, mode,
 * window) was answered before is served from the session cache's result
 * cache without a backward pass. Robustness is part of the contract:
 *
 *  - bounded queue: submissions beyond the configured depth are
 *    rejected immediately (429-style backpressure) instead of growing
 *    an unbounded backlog;
 *  - dedup: an in-flight job with the same (recording identity,
 *    criterion) key absorbs identical submissions — both callers get
 *    the one result;
 *  - timeouts: a query whose queue deadline passed by the time a
 *    worker dequeues it reports Timeout without running;
 *  - isolation: loader/analysis failures are captured per job (see
 *    ScopedFatalCapture) and reported in that job's result only.
 */

#ifndef WEBSLICE_SERVICE_SCHEDULER_HH
#define WEBSLICE_SERVICE_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "service/protocol.hh"
#include "service/session_cache.hh"
#include "support/thread_pool.hh"

namespace webslice {
namespace service {

/** Handle to one submitted query; wait() blocks until its result. */
class Job
{
  public:
    /** Block until the job has completed and return its result. */
    const QueryResult &wait() const;

    bool done() const;

  private:
    friend class Scheduler;

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    bool done_ = false;
    QueryResult result_;

    /** Connections still waiting on this job. Starts at one for the
     *  submitter; each dedup twin adds one; Scheduler::abandon takes
     *  one away. A job dequeued with no waiters left is cancelled
     *  instead of computed — its result would be thrown away anyway. */
    std::atomic<int> waiters_{1};

    std::string prefix_;
    SliceQuery query_;
    std::string dedupKey_;
    std::chrono::steady_clock::time_point submitted_;
    std::chrono::steady_clock::time_point deadline_{}; ///< zero = none.
};

class Scheduler
{
  public:
    struct Options
    {
        /** Concurrent query workers (>= 1; clamped). */
        int workers = 2;

        /** Queued + running ceiling before submissions are rejected. */
        size_t maxQueue = 64;
    };

    Scheduler(SessionCache &cache, const Options &options);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Outcome of submit(): the job plus how it was admitted. */
    struct Submitted
    {
        std::shared_ptr<Job> job;
        bool rejected = false; ///< Bounced off the full queue.
        bool deduped = false;  ///< Attached to an in-flight twin.
    };

    /**
     * Enqueue one query. Never blocks: a full queue yields an already
     * completed Rejected job, and a duplicate of an in-flight query
     * returns that query's job with `deduped` set.
     */
    Submitted submit(const std::string &prefix, const SliceQuery &query);

    /**
     * Declare that a waiter is gone (its connection dropped mid-batch).
     * A queued job whose every waiter abandoned it is cancelled at
     * dequeue time — no backward pass runs for a result nobody will
     * read. Already-running or already-done jobs are unaffected, as are
     * dedup twins still waited on by another connection.
     */
    void abandon(const std::shared_ptr<Job> &job);

    /**
     * Asynchronously build (or refresh) the session for `prefix` on the
     * worker pool without slicing anything — the replication path: a
     * fleet router warms a recording's replica shard so a failover
     * lands on a hot session. Best-effort: load failures are dropped
     * (the real query will surface the loader's diagnostic).
     */
    void warmSession(const std::string &prefix);

    /** Block until every submitted job has completed (graceful drain). */
    void drain();

    struct Stats
    {
        uint64_t submitted = 0;
        uint64_t completed = 0;
        uint64_t rejected = 0;
        uint64_t deduped = 0;
        uint64_t timedOut = 0;
        uint64_t failed = 0;
        uint64_t abandoned = 0; ///< Cancelled unrun: all waiters gone.
        uint64_t queueDepthPeak = 0;
    };

    Stats stats() const;

  private:
    void runJob(const std::shared_ptr<Job> &job);
    void finishJob(const std::shared_ptr<Job> &job, QueryResult result,
                   bool abandoned = false);

    SessionCache &cache_;
    ThreadPool pool_;
    TaskGroup group_;
    const size_t maxQueue_;

    mutable std::mutex mutex_;
    size_t inQueue_ = 0; ///< Jobs submitted but not yet finished.
    std::unordered_map<std::string, std::weak_ptr<Job>> inflight_;
    Stats counters_;
};

} // namespace service
} // namespace webslice

#endif // WEBSLICE_SERVICE_SCHEDULER_HH
