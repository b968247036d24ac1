/**
 * @file
 * The service-mix workload: a closed loop of client connections to a
 * running webslice-served, each sending single-query batches drawn from
 * a seeded mix, followed (in a separate process) by an untimed oracle
 * check of every reply.
 *
 * Query classes, drawn from the workload seed in shuffled rounds of
 * four (two repeats, one new mode, one new window):
 *   repeat      (50%) a (recording, mode, window) already asked: the
 *                     result memo answers it while its plan is cached;
 *   new-mode    (25%) the other criteria mode on a window already asked
 *                     in one mode: the cached epoch plan is reused and a
 *                     walk runs;
 *   new-window  (25%) a window end not asked before: a plan is built.
 *                     Its recording and mode also come in shuffled
 *                     rounds, so every seed spreads new windows evenly.
 * Repeats and new modes draw uniformly from everything asked so far. A
 * class with no eligible history (a repeat before anything was asked)
 * falls back to new-window. Each recording's first new window is its
 * default (metadata) window, the one the offline chain slices.
 *
 * Every reply carries the daemon's queue, run and slice times, so the
 * per-layer latencies come from every query and the client adds nothing
 * to a round trip when the run is traced.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "commands.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "spans.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "trace/artifacts.hh"
#include "trace/trace_file.hh"

using namespace webslice;
using service::Json;

namespace perfbench {

namespace {

constexpr uint64_t kDefaultWindow = UINT64_MAX;

enum class QueryClass { Repeat, NewMode, NewWindow };

const char *
className(QueryClass cls)
{
    switch (cls) {
      case QueryClass::Repeat:
        return "repeat";
      case QueryClass::NewMode:
        return "new_mode";
      case QueryClass::NewWindow:
        return "new_window";
    }
    return "?";
}

struct Recording
{
    std::string prefix;
    uint64_t records = 0;
    uint64_t window = 0; ///< default (metadata) window end
};

/** PREFIX,RECORDS,WINDOW */
Recording
parseRecording(const std::string &text)
{
    Recording rec;
    const size_t a = text.find(',');
    const size_t b = text.find(',', a == std::string::npos ? a : a + 1);
    fatal_if(a == std::string::npos || b == std::string::npos,
             "--recording needs PREFIX,RECORDS,WINDOW, got '", text, "'");
    rec.prefix = text.substr(0, a);
    rec.records = std::stoull(text.substr(a + 1, b - a - 1));
    rec.window = std::stoull(text.substr(b + 1));
    fatal_if(rec.window == 0 || rec.window > rec.records,
             "bad default window in '", text, "'");
    return rec;
}

struct Query
{
    uint64_t seq = 0;
    QueryClass cls = QueryClass::NewWindow;
    size_t recording = 0;
    slicer::CriteriaMode mode = slicer::CriteriaMode::PixelBuffer;
    uint64_t end = kDefaultWindow;
};

/**
 * Draws from a fixed multiset in seed-shuffled rounds: every round of
 * `items.size()` draws holds each item exactly once, so the mix's
 * composition is the same for every seed and only its order varies.
 */
template <typename T>
class ShuffledRounds
{
  public:
    explicit ShuffledRounds(std::vector<T> items) : items_(std::move(items))
    {
    }

    T
    draw(Rng &rng)
    {
        if (next_ == items_.size()) {
            for (size_t i = items_.size(); i > 1; --i)
                std::swap(items_[i - 1], items_[rng.below(i)]);
            next_ = 0;
        }
        return items_[next_++];
    }

  private:
    std::vector<T> items_;
    size_t next_ = items_.size();
};

/** The seeded query sequence; next() is called under the mix lock. */
class MixGenerator
{
  public:
    MixGenerator(uint64_t seed, const std::vector<Recording> &recordings)
        : rng_(seed ^ 0x3e41c0de5eedull), recordings_(recordings),
          usedEnds_(recordings.size()),
          classes_({QueryClass::Repeat, QueryClass::Repeat,
                    QueryClass::NewMode, QueryClass::NewWindow}),
          recordingOrder_(indices(recordings.size())),
          modes_({slicer::CriteriaMode::PixelBuffer,
                  slicer::CriteriaMode::Syscalls})
    {
    }

    Query
    next()
    {
        Query q;
        q.seq = seq_++;
        q.cls = classes_.draw(rng_);
        if (q.cls == QueryClass::Repeat && !asked_.empty()) {
            const auto &[rec, mode, end] = asked_[rng_.below(asked_.size())];
            q.recording = rec;
            q.mode = mode;
            q.end = end;
            return q;
        }
        if (q.cls == QueryClass::NewMode && !halfAsked_.empty()) {
            const size_t pick = rng_.below(halfAsked_.size());
            const auto [rec, mode, end] = halfAsked_[pick];
            halfAsked_.erase(halfAsked_.begin() + pick);
            q.recording = rec;
            q.mode = mode == slicer::CriteriaMode::PixelBuffer
                         ? slicer::CriteriaMode::Syscalls
                         : slicer::CriteriaMode::PixelBuffer;
            q.end = end;
            asked_.emplace_back(q.recording, q.mode, q.end);
            return q;
        }
        q.cls = QueryClass::NewWindow;
        q.recording = recordingOrder_.draw(rng_);
        q.mode = modes_.draw(rng_);
        auto &used = usedEnds_[q.recording];
        if (used.insert(kDefaultWindow).second) {
            q.end = kDefaultWindow;
        } else {
            // A fresh end in the last three quarters of the default
            // window, so every window holds real work.
            const uint64_t window = recordings_[q.recording].window;
            const uint64_t lo = window / 4;
            do {
                q.end = lo + rng_.below(window - lo);
            } while (!used.insert(q.end).second);
        }
        asked_.emplace_back(q.recording, q.mode, q.end);
        halfAsked_.emplace_back(q.recording, q.mode, q.end);
        return q;
    }

  private:
    using Triple = std::tuple<size_t, slicer::CriteriaMode, uint64_t>;

    static std::vector<size_t>
    indices(size_t n)
    {
        std::vector<size_t> all(n);
        for (size_t i = 0; i < n; ++i)
            all[i] = i;
        return all;
    }

    Rng rng_;
    const std::vector<Recording> &recordings_;
    uint64_t seq_ = 0;
    std::vector<Triple> asked_;     ///< every triple asked
    std::vector<Triple> halfAsked_; ///< windows asked in one mode only
    std::vector<std::set<uint64_t>> usedEnds_;
    ShuffledRounds<QueryClass> classes_;
    ShuffledRounds<size_t> recordingOrder_;
    ShuffledRounds<slicer::CriteriaMode> modes_;
};

struct Reply
{
    Query query;
    double sent = 0.0;
    double received = 0.0;
    service::QueryResult result;
    std::string error; ///< transport failure, empty otherwise
};

int64_t
statsCounter(const Json &stats, const char *section, const char *name)
{
    const Json *sec = stats.find(section);
    const Json *value = sec ? sec->find(name) : nullptr;
    return value ? value->asInt() : 0;
}

bool
fetchStats(const std::string &socket, Json &stats)
{
    service::ServiceClient client;
    std::string error;
    Json request = Json::object();
    request.set("op", Json::string("stats"));
    return client.connectUnix(socket, error) &&
           client.call(request, stats, error);
}

} // namespace

int
runMix(const Args &args)
{
    const std::string socket = args.get("socket");
    const uint64_t seed = args.number("seed", 1);
    const double seconds = static_cast<double>(args.number("seconds", 10));
    const size_t clients = args.number("clients", 4);
    std::vector<Recording> recordings;
    for (const auto &text : args.all("recording"))
        recordings.push_back(parseRecording(text));
    fatal_if(recordings.empty(), "mix needs --recording");

    Json stats_before;
    fatal_if(!fetchStats(socket, stats_before), "stats op failed");

    MixGenerator generator(seed, recordings);
    std::mutex generator_mutex;
    std::vector<std::vector<Reply>> per_client(clients);
    std::atomic<size_t> connect_failures{0};

    const double start = nowSeconds();
    const double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            service::ServiceClient client;
            std::string error;
            if (!client.connectUnix(socket, error)) {
                connect_failures.fetch_add(1);
                return;
            }
            while (nowSeconds() < deadline) {
                Reply reply;
                {
                    std::lock_guard<std::mutex> lock(generator_mutex);
                    reply.query = generator.next();
                }
                service::SliceQuery query;
                query.mode = reply.query.mode;
                query.endIndex = reply.query.end;
                service::ServiceClient::BatchOutcome outcome;
                reply.sent = nowSeconds();
                const bool ok = client.batch(
                    recordings[reply.query.recording].prefix, {query},
                    outcome, error, [&](const Json &frame) {
                        const Json *op = frame.find("op");
                        if (op && op->asString() == "result")
                            reply.received = nowSeconds();
                    });
                if (!ok || outcome.results.size() != 1) {
                    reply.error = ok ? "batch without one result" : error;
                } else {
                    reply.result = outcome.results[0];
                }
                per_client[c].push_back(std::move(reply));
                if (!per_client[c].back().error.empty())
                    break; // the connection is unusable after an I/O error
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    double finished = start;
    std::vector<Reply> replies;
    for (auto &list : per_client)
        for (auto &reply : list) {
            finished = std::max(finished, reply.received);
            replies.push_back(std::move(reply));
        }
    std::sort(replies.begin(), replies.end(),
              [](const Reply &a, const Reply &b) {
                  return a.query.seq < b.query.seq;
              });

    Json stats_after;
    fatal_if(!fetchStats(socket, stats_after), "stats op failed");

    // Every reply with its telemetry, one JSON object per line, for the
    // checker and for run.py's latency metrics. Times are milliseconds;
    // sent_ms is relative to the start of the loop.
    const std::string replies_path = args.get("replies");
    std::ofstream out(replies_path);
    fatal_if(!out, "cannot write ", replies_path);
    size_t failed = connect_failures.load();
    for (const Reply &reply : replies) {
        const bool ok = reply.error.empty() &&
                        reply.result.status ==
                            service::QueryResult::Status::Ok;
        Json line = Json::object();
        line.set("seq", Json::integer(reply.query.seq));
        line.set("class", Json::string(className(reply.query.cls)));
        line.set("prefix",
                 Json::string(recordings[reply.query.recording].prefix));
        line.set("mode", Json::string(modeName(reply.query.mode)));
        line.set("end", reply.query.end == kDefaultWindow
                            ? Json::null()
                            : Json::integer(reply.query.end));
        line.set("ok", Json::boolean(ok));
        if (!ok) {
            ++failed;
            line.set("error", Json::string(reply.error.empty()
                                               ? reply.result.error
                                               : reply.error));
        } else {
            const auto &r = reply.result;
            line.set("window_end", Json::integer(r.windowEnd));
            line.set("in_slice_fnv1a",
                     Json::integer(static_cast<int64_t>(r.inSliceFnv1a)));
            line.set("sent_ms", Json::number((reply.sent - start) * 1e3));
            line.set("rt_ms",
                     Json::number((reply.received - reply.sent) * 1e3));
            line.set("queue_ms", Json::number(r.queueMs));
            line.set("run_ms", Json::number(r.runMs));
            line.set("slice_ms", Json::number(r.sliceMs));
        }
        out << line.dump() << '\n';
    }
    fatal_if(!out, "write to ", replies_path, " failed");

    const auto delta = [&](const char *section, const char *name) {
        return statsCounter(stats_after, section, name) -
               statsCounter(stats_before, section, name);
    };
    Json result = Json::object();
    result.set("attempted",
               Json::integer(static_cast<int64_t>(replies.size()) +
                             int64_t(connect_failures.load())));
    result.set("failed", Json::integer(failed));
    result.set("wall_s", Json::number(std::max(finished - start, 1e-9)));
    result.set("plan_builds", Json::integer(delta("cache", "plan_builds")));
    result.set("memo_hits", Json::integer(delta("slicer", "memo_hits")));
    result.set("session_builds",
               Json::integer(statsCounter(stats_after, "cache", "built")));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

int
runCheckMix(const Args &args)
{
    const bool corrupt = args.number("corrupt-oracle", 0) != 0;
    // KEY=DIGEST, KEY = "PREFIX|MODE|END" as in the replies file: the
    // file-streamed chain's digests from set-up.
    std::map<std::string, uint64_t> expected_offline;
    for (const auto &text : args.all("expect")) {
        const size_t eq = text.rfind('=');
        fatal_if(eq == std::string::npos, "--expect needs KEY=DIGEST");
        expected_offline[text.substr(0, eq)] =
            std::stoull(text.substr(eq + 1), nullptr, 16);
    }

    struct Line
    {
        std::string prefix;
        slicer::CriteriaMode mode;
        uint64_t end;
        uint64_t windowEnd;
        uint64_t digest;
    };
    std::vector<Line> lines;
    size_t failed_replies = 0;
    {
        const std::string path = args.get("replies");
        std::ifstream in(path);
        fatal_if(!in, "cannot read ", path);
        std::string text, error;
        while (std::getline(in, text)) {
            Json json;
            fatal_if(!Json::parse(text, json, error), path, ": ", error);
            if (!json.find("ok")->asBool()) {
                ++failed_replies;
                continue;
            }
            const Json *end = json.find("end");
            lines.push_back(
                {json.find("prefix")->asString(),
                 parseMode(json.find("mode")->asString()),
                 end->isNull() ? kDefaultWindow
                               : static_cast<uint64_t>(end->asInt()),
                 static_cast<uint64_t>(json.find("window_end")->asInt()),
                 static_cast<uint64_t>(json.find("in_slice_fnv1a")->asInt())});
        }
    }

    using Key = std::tuple<std::string, slicer::CriteriaMode, uint64_t>;
    std::map<Key, uint64_t> oracle;      // triple -> in-memory digest
    std::map<Key, uint64_t> oracleEnd;   // triple -> window end
    std::map<std::string, std::vector<Key>> by_prefix;
    const auto want = [&](const Key &key) {
        if (oracle.emplace(key, 0).second)
            by_prefix[std::get<0>(key)].push_back(key);
    };
    // KEY is PREFIX|MODE|default.
    const auto offline_key = [](const std::string &key) {
        const size_t bar1 = key.find('|'), bar2 = key.rfind('|');
        return Key{key.substr(0, bar1),
                   parseMode(key.substr(bar1 + 1, bar2 - bar1 - 1)),
                   kDefaultWindow};
    };
    for (const auto &entry : expected_offline)
        want(offline_key(entry.first));
    for (const Line &line : lines)
        want({line.prefix, line.mode, line.end});

    // One recording at a time: decode the served .trc, run the
    // sequential forward pass in memory, then slice every distinct
    // (mode, window) asked of it on a few threads.
    for (const auto &[prefix, keys] : by_prefix) {
        const auto records = trace::loadTrace(prefix + ".trc");
        const auto sidecars = trace::loadArtifactSidecars(prefix);
        const auto cfgs = graph::buildCfgs(records, sidecars.symtab, 1);
        const auto deps = graph::buildControlDeps(cfgs, 1);
        deps.ensureSealed(); // depsOf() seals lazily; not from threads
        size_t window = records.size();
        if (sidecars.meta.loadOnly &&
            sidecars.meta.loadCompleteIndex != SIZE_MAX)
            window = std::min(window, sidecars.meta.loadCompleteIndex);

        std::atomic<size_t> next{0};
        std::mutex result_mutex;
        std::vector<std::thread> workers;
        for (int w = 0; w < forwardJobs(); ++w) {
            workers.emplace_back([&] {
                for (size_t i; (i = next.fetch_add(1)) < keys.size();) {
                    const Key &key = keys[i];
                    slicer::SlicerOptions options;
                    options.mode = std::get<1>(key);
                    options.endIndex =
                        std::min<uint64_t>(window, std::get<2>(key));
                    const auto slice = slicer::computeSlice(
                        records, cfgs, deps, sidecars.criteria, options);
                    std::lock_guard<std::mutex> lock(result_mutex);
                    oracle[key] = sliceDigest(slice) ^ (corrupt ? 1 : 0);
                    oracleEnd[key] = options.endIndex;
                }
            });
        }
        for (auto &worker : workers)
            worker.join();
    }

    std::vector<std::string> failures;
    size_t offline_mismatched = 0;
    for (const auto &[key, digest] : expected_offline) {
        if (oracle.at(offline_key(key)) != digest) {
            ++offline_mismatched;
            failures.push_back(key + ": in-memory oracle differs from the "
                                     "offline chain's digest");
        }
    }
    size_t mismatched = 0;
    for (const Line &line : lines) {
        const Key key{line.prefix, line.mode, line.end};
        if (oracle.at(key) != line.digest ||
            oracleEnd.at(key) != line.windowEnd) {
            if (mismatched++ < 5)
                failures.push_back(line.prefix + " " + modeName(line.mode) +
                                   " end=" + std::to_string(line.windowEnd) +
                                   ": reply digest differs from the oracle");
        }
    }

    Json result = Json::object();
    result.set("checked", Json::integer(lines.size()));
    result.set("distinct", Json::integer(oracle.size()));
    result.set("mismatched", Json::integer(mismatched));
    result.set("offline_checked", Json::integer(expected_offline.size()));
    result.set("offline_mismatched", Json::integer(offline_mismatched));
    result.set("failed_replies", Json::integer(failed_replies));
    Json list = Json::array();
    for (auto &message : failures)
        list.push(Json::string(std::move(message)));
    result.set("failures", std::move(list));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

} // namespace perfbench
