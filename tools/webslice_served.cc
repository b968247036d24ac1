/**
 * @file
 * webslice-served: the resident slicing service.
 *
 *   webslice-served --socket PATH [--tcp PORT] [--workers N]
 *                   [--queue N] [--cache-bytes N]
 *                   [--preload PREFIX]... [--metrics-json FILE]
 *
 * Holds parsed sessions (mmap'd trace, CFGs, postdominators, control
 * dependences) in an LRU cache keyed by the recording's artifact
 * digests, so repeated slicing queries against the same recording skip
 * the entire forward pass; a query repeating an earlier (mode, window)
 * is answered from the cached result without a backward pass. Clients (webslice-client, or anything that
 * speaks webslice-serve-v1: 4-byte little-endian length prefix, one
 * JSON value per frame) submit batches of slicing criteria; the batch's
 * queries run concurrently on a bounded scheduler with request dedup,
 * per-query timeouts, and 429-style rejection when the queue is full.
 *
 * SIGTERM/SIGINT shut the daemon down gracefully: the accept loop
 * stops, in-flight requests drain, each connection's pending frames are
 * answered, and the socket file is removed. --metrics-json writes the
 * run report (schema webslice-metrics-v1; '-' for stdout) at exit, so
 * supervised deployments get cache and queue statistics per lifetime.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/server.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"

using namespace webslice;

namespace {

constexpr char kUsage[] =
    "usage: %s --socket PATH [--tcp PORT] [--workers N] [--queue N]\n"
    "       [--cache-bytes N]\n"
    "       [--preload PREFIX] [--metrics-json FILE]\n"
    "       [--shard-id NAME] [--shard-epoch N]\n"
    "\n"
    "  --socket PATH         Unix-domain listening socket (required)\n"
    "  --tcp PORT            also listen on 127.0.0.1:PORT (0 = pick an\n"
    "                        ephemeral port, printed on startup)\n"
    "  --workers N           concurrent query workers (default 2)\n"
    "  --queue N             in-flight request ceiling before submissions\n"
    "                        are rejected (default 64)\n"
    "  --cache-bytes N       byte budget shared by cached sessions and\n"
    "                        query results (default 2 GiB)\n"
    "  --preload PREFIX      build this recording's session before\n"
    "                        accepting connections (repeatable)\n"
    "  --metrics-json FILE   write the run report at exit ('-' = stdout)\n"
    "  --shard-id NAME       fleet identity stamped on every result and\n"
    "                        status frame (default: none, fields omitted)\n"
    "  --shard-epoch N       shard generation, bumped by the supervisor\n"
    "                        on each restart (default 1)\n";

uint64_t
parseCount(const char *flag, const char *text, uint64_t max_value)
{
    fatal_if(text[0] == '\0', "empty value for ", flag);
    fatal_if(text[0] == '-', "negative value for ", flag, ": '", text, "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    fatal_if(end == text || *end != '\0', "non-numeric value for ", flag,
             ": '", text, "'");
    fatal_if(errno == ERANGE || value > max_value, "value for ", flag,
             " out of range: '", text, "' (max ", max_value, ")");
    return value;
}

// The signal handler may only do async-signal-safe work; writing one
// byte to the server's shutdown pipe is exactly that.
int g_shutdown_fd = -1;

void
onShutdownSignal(int)
{
    const char byte = 1;
    if (g_shutdown_fd >= 0)
        (void)!write(g_shutdown_fd, &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerOptions options;
    std::vector<std::string> preload;
    std::string metrics_json;
    for (int a = 1; a < argc; ++a) {
        const auto need_value = [&](const char *flag) -> const char * {
            fatal_if(a + 1 >= argc, flag, " requires a value");
            return argv[++a];
        };
        if (!std::strcmp(argv[a], "--socket")) {
            options.socketPath = need_value("--socket");
        } else if (!std::strcmp(argv[a], "--tcp")) {
            options.tcpPort = static_cast<int>(
                parseCount("--tcp", need_value("--tcp"), 65535));
        } else if (!std::strcmp(argv[a], "--workers")) {
            options.workers = static_cast<int>(parseCount(
                "--workers", need_value("--workers"), 1u << 10));
        } else if (!std::strcmp(argv[a], "--queue")) {
            options.maxQueue = static_cast<size_t>(parseCount(
                "--queue", need_value("--queue"), 1u << 20));
        } else if (!std::strcmp(argv[a], "--cache-bytes")) {
            options.cacheBytes = parseCount(
                "--cache-bytes", need_value("--cache-bytes"), UINT64_MAX);
        } else if (!std::strcmp(argv[a], "--preload")) {
            preload.push_back(need_value("--preload"));
        } else if (!std::strcmp(argv[a], "--metrics-json")) {
            metrics_json = need_value("--metrics-json");
        } else if (!std::strcmp(argv[a], "--shard-id")) {
            options.shardId = need_value("--shard-id");
        } else if (!std::strcmp(argv[a], "--shard-epoch")) {
            options.shardEpoch = parseCount(
                "--shard-epoch", need_value("--shard-epoch"),
                UINT64_MAX);
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                         argv[a]);
            std::fprintf(stderr, kUsage, argv[0]);
            return 1;
        }
    }
    if (options.socketPath.empty()) {
        std::fprintf(stderr, "%s: --socket is required\n", argv[0]);
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }

    service::Server server(options);

    for (const std::string &prefix : preload) {
        std::fprintf(stderr, "webslice-served: preloading %s\n",
                     prefix.c_str());
        try {
            server.cache().acquire(prefix);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: preload of %s failed: %s\n",
                         argv[0], prefix.c_str(), e.what());
            return 1;
        }
    }

    g_shutdown_fd = server.notifyShutdownFd();
    struct sigaction action {};
    action.sa_handler = onShutdownSignal;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    signal(SIGPIPE, SIG_IGN);

    std::fprintf(stderr, "webslice-served: listening on %s",
                 options.socketPath.c_str());
    if (server.boundTcpPort() >= 0)
        std::fprintf(stderr, " and 127.0.0.1:%d", server.boundTcpPort());
    std::fprintf(stderr, "\n");

    server.run();

    std::fprintf(stderr, "webslice-served: drained, shutting down\n");
    if (!metrics_json.empty()) {
        writeMetricsReport(metrics_json, MetricRegistry::global(),
                           "webslice-served");
    }
    return 0;
}
