#include "service/server.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"

namespace webslice {
namespace service {

namespace {

int
bindUnixSocket(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    fatal_if(path.size() >= sizeof(addr.sun_path),
             "socket path too long: ", path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    fatal_if(fd < 0, "cannot create unix socket: ",
             std::strerror(errno));
    // A previous daemon instance may have left its socket file behind;
    // binding over it is the expected restart path.
    ::unlink(path.c_str());
    fatal_if(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0,
             "cannot bind ", path, ": ", std::strerror(errno));
    fatal_if(::listen(fd, 64) != 0, "cannot listen on ", path, ": ",
             std::strerror(errno));
    return fd;
}

int
bindTcpSocket(int port, int &bound_port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    fatal_if(fd < 0, "cannot create tcp socket: ",
             std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    fatal_if(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0,
             "cannot bind 127.0.0.1:", port, ": ", std::strerror(errno));
    fatal_if(::listen(fd, 64) != 0, "cannot listen on tcp port ", port,
             ": ", std::strerror(errno));
    socklen_t len = sizeof(addr);
    fatal_if(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                           &len) != 0,
             "getsockname failed: ", std::strerror(errno));
    bound_port = ntohs(addr.sin_port);
    return fd;
}

} // namespace

Server::Server(const ServerOptions &options)
    : options_(options),
      cache_(options.cacheBytes),
      scheduler_(cache_,
                 Scheduler::Options{options.workers, options.maxQueue})
{
    fatal_if(options_.socketPath.empty(),
             "the server requires a unix socket path");
    // A client hanging up mid-batch turns every further result write
    // into a SIGPIPE; the default disposition would kill the daemon.
    // Writes must fail with EPIPE instead, which handleBatch treats as
    // "abandon this connection's remaining results".
    std::signal(SIGPIPE, SIG_IGN);
    unixFd_ = bindUnixSocket(options_.socketPath);
    if (options_.tcpPort >= 0)
        tcpFd_ = bindTcpSocket(options_.tcpPort, boundTcpPort_);
    fatal_if(::pipe(shutdownPipe_) != 0, "cannot create shutdown pipe: ",
             std::strerror(errno));
}

Server::~Server()
{
    requestShutdown();
    {
        // Handlers are detached; they must all be gone before the
        // members they reference are torn down.
        std::unique_lock<std::mutex> lock(connMutex_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
        connsDone_.wait(lock, [&] { return activeConns_ == 0; });
    }
    if (unixFd_ >= 0)
        ::close(unixFd_);
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
    for (int fd : {shutdownPipe_[0], shutdownPipe_[1]})
        if (fd >= 0)
            ::close(fd);
    ::unlink(options_.socketPath.c_str());
}

void
Server::abortConnections()
{
    std::lock_guard<std::mutex> lock(connMutex_);
    for (int fd : connFds_)
        ::shutdown(fd, SHUT_RDWR);
}

void
Server::requestShutdown()
{
    draining_.store(true);
    if (shuttingDown_.exchange(true))
        return;
    // Wake the poll() in run(); ignore a full pipe, one byte is enough.
    const char byte = 's';
    [[maybe_unused]] ssize_t w = ::write(shutdownPipe_[1], &byte, 1);
}

void
Server::run()
{
    inform("webslice-served listening on ", options_.socketPath,
           tcpFd_ >= 0 ? format(" and 127.0.0.1:%d", boundTcpPort_)
                       : std::string());
    while (!shuttingDown_.load()) {
        pollfd fds[3];
        nfds_t nfds = 0;
        fds[nfds++] = {shutdownPipe_[0], POLLIN, 0};
        fds[nfds++] = {unixFd_, POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[nfds++] = {tcpFd_, POLLIN, 0};
        const int ready = ::poll(fds, nfds, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("poll failed: ", std::strerror(errno));
            break;
        }
        if (fds[0].revents != 0)
            break; // Shutdown byte arrived.
        for (nfds_t i = 1; i < nfds; ++i) {
            if (fds[i].revents == 0)
                continue;
            const int client = ::accept(fds[i].fd, nullptr, nullptr);
            if (client < 0) {
                if (errno != EINTR && errno != ECONNABORTED)
                    warn("accept failed: ", std::strerror(errno));
                continue;
            }
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                connFds_.insert(client);
                ++activeConns_;
            }
            std::thread([this, client] { handleConnection(client); })
                .detach();
        }
    }

    shuttingDown_.store(true);
    // Half-close live connections: their readers see EOF once the
    // in-flight frames are answered, so handlers exit cleanly.
    {
        std::unique_lock<std::mutex> lock(connMutex_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RD);
        connsDone_.wait(lock, [&] { return activeConns_ == 0; });
    }
    scheduler_.drain();
    // Close and remove the listening socket now, not in the destructor:
    // once run() returns, the address must be reusable immediately.
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(options_.socketPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
    inform("webslice-served drained and stopping");
}

bool
Server::sendJson(int fd, const Json &body)
{
    std::string error;
    int write_errno = 0;
    if (!writeFrame(fd, body.dump(), error, kMaxFrameBytes,
                    &write_errno)) {
        if (write_errno == EPIPE || write_errno == ECONNRESET) {
            // The peer hung up; routine for a fleet client failing over
            // or a Ctrl-C'd CLI. Count it, don't cry about it.
            MetricRegistry::global()
                .counter("service.client_disconnects")
                .add();
        } else {
            warn("response write failed: ", error);
        }
        return false;
    }
    return true;
}

void
Server::stampIdentity(Json &body) const
{
    if (!options_.shardId.empty()) {
        body.set("shard", Json::string(options_.shardId));
        body.set("shard_epoch",
                 Json::integer(
                     static_cast<int64_t>(options_.shardEpoch)));
    }
    body.set("draining", Json::boolean(draining_.load()));
}

Json
Server::statsResponse() const
{
    Json j = Json::object();
    j.set("schema", Json::string(kServeSchema));
    j.set("op", Json::string("stats"));
    j.set("status", Json::string("ok"));
    stampIdentity(j);

    const auto cache = cache_.stats();
    Json cache_json = Json::object();
    cache_json.set("entries",
                   Json::integer(static_cast<int64_t>(cache.entries)));
    cache_json.set("bytes",
                   Json::integer(static_cast<int64_t>(cache.bytes)));
    cache_json.set("byte_budget",
                   Json::integer(static_cast<int64_t>(cache.byteBudget)));
    cache_json.set("hits",
                   Json::integer(static_cast<int64_t>(cache.hits)));
    cache_json.set("misses",
                   Json::integer(static_cast<int64_t>(cache.misses)));
    cache_json.set("evictions",
                   Json::integer(static_cast<int64_t>(cache.evictions)));
    cache_json.set("invalidations",
                   Json::integer(
                       static_cast<int64_t>(cache.invalidations)));
    cache_json.set("built",
                   Json::integer(static_cast<int64_t>(cache.built)));
    cache_json.set("open_waits",
                   Json::integer(static_cast<int64_t>(cache.openWaits)));
    cache_json.set("result_entries",
                   Json::integer(static_cast<int64_t>(cache.resultEntries)));
    cache_json.set("result_bytes",
                   Json::integer(static_cast<int64_t>(cache.resultBytes)));
    cache_json.set("result_hits",
                   Json::integer(static_cast<int64_t>(cache.resultHits)));
    cache_json.set("result_misses",
                   Json::integer(static_cast<int64_t>(cache.resultMisses)));
    cache_json.set("result_evictions",
                   Json::integer(
                       static_cast<int64_t>(cache.resultEvictions)));
    j.set("cache", std::move(cache_json));

    // Backward passes the result cache saved, with a stable zero even
    // before the first query — the raw counters section below only
    // lists names that already exist.
    Json slicer_json = Json::object();
    slicer_json.set("memo_hits",
                    Json::integer(static_cast<int64_t>(
                        MetricRegistry::global()
                            .counter("slicer.memo_hits")
                            .value())));
    j.set("slicer", std::move(slicer_json));

    // Trace-layer I/O counters: on-disk footprint touched, columnar
    // blocks decoded, and value-log checkpoint restores. Same
    // stable-zeros contract as the slicer section.
    Json trace_json = Json::object();
    for (const char *name :
         {"trace.bytes_on_disk", "trace.bytes_decoded",
          "trace.blocks_decoded", "trace.checkpoint_restores",
          "trace.block_cache_hits", "trace.block_cache_misses",
          "trace.block_cache_evictions"}) {
        const char *dot = std::strchr(name, '.');
        trace_json.set(dot + 1,
                       Json::integer(static_cast<int64_t>(
                           MetricRegistry::global().counter(name)
                               .value())));
    }
    j.set("trace", std::move(trace_json));

    const auto sched = scheduler_.stats();
    Json sched_json = Json::object();
    sched_json.set("submitted",
                   Json::integer(static_cast<int64_t>(sched.submitted)));
    sched_json.set("completed",
                   Json::integer(static_cast<int64_t>(sched.completed)));
    sched_json.set("rejected",
                   Json::integer(static_cast<int64_t>(sched.rejected)));
    sched_json.set("deduped",
                   Json::integer(static_cast<int64_t>(sched.deduped)));
    sched_json.set("timed_out",
                   Json::integer(static_cast<int64_t>(sched.timedOut)));
    sched_json.set("failed",
                   Json::integer(static_cast<int64_t>(sched.failed)));
    sched_json.set("abandoned",
                   Json::integer(static_cast<int64_t>(sched.abandoned)));
    sched_json.set("queue_depth_peak",
                   Json::integer(
                       static_cast<int64_t>(sched.queueDepthPeak)));
    j.set("scheduler", std::move(sched_json));

    Json counters = Json::object();
    for (const auto &counter :
         MetricRegistry::global().counterValues())
        counters.set(counter.first,
                     Json::integer(static_cast<int64_t>(counter.second)));
    j.set("counters", std::move(counters));

    Json gauges = Json::object();
    for (const auto &gauge : MetricRegistry::global().gaugeValues())
        gauges.set(gauge.first,
                   Json::integer(static_cast<int64_t>(gauge.second)));
    j.set("gauges", std::move(gauges));
    return j;
}

void
Server::handleBatch(int fd, const Json &request)
{
    const Json *prefix_json = request.find("prefix");
    const Json *queries_json = request.find("queries");
    if (!prefix_json || !prefix_json->isString() ||
        prefix_json->asString().empty()) {
        sendJson(fd, errorResponse(
                         "batch request requires a string 'prefix'"));
        return;
    }
    if (!queries_json || !queries_json->isArray() ||
        queries_json->items().empty()) {
        sendJson(fd, errorResponse("batch request requires a non-empty "
                                   "'queries' array"));
        return;
    }
    const std::string &prefix = prefix_json->asString();

    // Submit everything up front so the batch runs concurrently on the
    // scheduler's workers; then stream results back in submission
    // order as they complete.
    std::vector<Scheduler::Submitted> submitted;
    submitted.reserve(queries_json->items().size());
    size_t id = 0;
    bool parse_failed = false;
    QueryResult bad;
    for (const Json &query_json : queries_json->items()) {
        SliceQuery query;
        std::string error;
        if (!SliceQuery::fromJson(query_json, query, error)) {
            // Report the malformed query in-band at its id, then stop
            // submitting: a half-understood batch must not half-run.
            // The frame goes out after the preceding results so the
            // stream stays in submission order.
            bad.status = QueryResult::Status::Error;
            bad.error = format("query %zu: %s", id, error.c_str());
            parse_failed = true;
            break;
        }
        submitted.push_back(scheduler_.submit(prefix, query));
        ++id;
    }

    size_t ok = 0, errors = 0, rejected = 0, timeouts = 0;
    for (size_t i = 0; i < submitted.size(); ++i) {
        QueryResult result = submitted[i].job->wait();
        result.deduped = result.deduped || submitted[i].deduped;
        result.shard = options_.shardId;
        result.shardEpoch = options_.shardEpoch;
        switch (result.status) {
          case QueryResult::Status::Ok: ++ok; break;
          case QueryResult::Status::Rejected: ++rejected; break;
          case QueryResult::Status::Timeout: ++timeouts; break;
          default: ++errors; break;
        }
        if (!sendJson(fd, result.toJson(i))) {
            // Peer is gone. Withdraw this connection from every result
            // it has not consumed yet: still-queued jobs with no other
            // waiter are cancelled at dequeue instead of computing
            // slices nobody will read.
            for (size_t j = i + 1; j < submitted.size(); ++j)
                scheduler_.abandon(submitted[j].job);
            return;
        }
    }
    if (parse_failed) {
        ++errors;
        bad.shard = options_.shardId;
        bad.shardEpoch = options_.shardEpoch;
        if (!sendJson(fd, bad.toJson(submitted.size())))
            return;
    }

    Json done = Json::object();
    done.set("schema", Json::string(kServeSchema));
    done.set("op", Json::string("batch_done"));
    done.set("status", Json::string(parse_failed ? "error" : "ok"));
    stampIdentity(done);
    done.set("results",
             Json::integer(static_cast<int64_t>(submitted.size())));
    done.set("ok", Json::integer(static_cast<int64_t>(ok)));
    done.set("errors", Json::integer(static_cast<int64_t>(errors)));
    done.set("rejected", Json::integer(static_cast<int64_t>(rejected)));
    done.set("timeouts", Json::integer(static_cast<int64_t>(timeouts)));
    sendJson(fd, done);
}

void
Server::handleConnection(int fd)
{
    std::string payload;
    std::string error;
    while (true) {
        const FrameRead got = readFrame(fd, payload, error);
        if (got == FrameRead::Eof)
            break;
        if (got == FrameRead::Error) {
            // Protocol violation: answer once, then hang up — resync
            // inside a corrupted length-prefixed stream is guesswork.
            sendJson(fd, errorResponse(format("bad frame: %s",
                                              error.c_str())));
            break;
        }
        Json request;
        if (!Json::parse(payload, request, error)) {
            sendJson(fd, errorResponse(format("bad request JSON: %s",
                                              error.c_str())));
            break;
        }
        const Json *op_json = request.find("op");
        const std::string op = op_json ? op_json->asString() : "";
        if (op == "ping") {
            Json pong = Json::object();
            pong.set("schema", Json::string(kServeSchema));
            pong.set("op", Json::string("pong"));
            pong.set("status", Json::string("ok"));
            stampIdentity(pong);
            if (!sendJson(fd, pong))
                break;
        } else if (op == "stats") {
            if (!sendJson(fd, statsResponse()))
                break;
        } else if (op == "drain") {
            // Supervisor-initiated handoff: stop taking batches but keep
            // answering ping/stats so fleet clients see the flag and
            // fail over while in-flight work finishes.
            beginDrain();
            Json ack = Json::object();
            ack.set("schema", Json::string(kServeSchema));
            ack.set("op", Json::string("drain_ack"));
            ack.set("status", Json::string("ok"));
            stampIdentity(ack);
            if (!sendJson(fd, ack))
                break;
        } else if (op == "warm") {
            const Json *prefix_json = request.find("prefix");
            if (!prefix_json || !prefix_json->isString() ||
                prefix_json->asString().empty()) {
                sendJson(fd, errorResponse(
                                 "warm request requires a string "
                                 "'prefix'"));
                break;
            }
            scheduler_.warmSession(prefix_json->asString());
            Json ack = Json::object();
            ack.set("schema", Json::string(kServeSchema));
            ack.set("op", Json::string("warm_ack"));
            ack.set("status", Json::string("ok"));
            stampIdentity(ack);
            if (!sendJson(fd, ack))
                break;
        } else if (op == "shutdown") {
            Json ack = Json::object();
            ack.set("schema", Json::string(kServeSchema));
            ack.set("op", Json::string("shutdown"));
            ack.set("status", Json::string("ok"));
            stampIdentity(ack);
            sendJson(fd, ack);
            requestShutdown();
            break;
        } else if (op == "batch") {
            if (draining_.load()) {
                // Refuse instead of queueing: a draining shard's answer
                // could outlive the shard. The flag in the frame tells a
                // fleet client this is a failover, not a user error.
                Json refusal = errorResponse(
                    "shard is draining; retry against a replica");
                stampIdentity(refusal);
                sendJson(fd, refusal);
                break;
            }
            handleBatch(fd, request);
        } else {
            sendJson(fd, errorResponse(format(
                             "unknown op '%s' (expected ping, stats, "
                             "batch, warm, drain, or shutdown)",
                             op.c_str())));
            break;
        }
    }
    ::close(fd);
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connFds_.erase(fd);
        --activeConns_;
        connsDone_.notify_all();
    }
}

} // namespace service
} // namespace webslice
