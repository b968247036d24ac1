/**
 * @file
 * The offline chain, one pass per process: every .scn is recorded,
 * published, reloaded, forward- and backward-analysed and reported
 * through the same public calls as `webslice-scenario run --format=v2`
 * followed by `webslice-profile`:
 *
 *   scenario::runScenario -> trace::TraceWriter (v2, atomic publish)
 *   -> trace::loadArtifactSidecars -> graph::buildCfgsFromFile
 *   -> graph::buildControlDeps -> slicer::computeSliceFromFile
 *   -> trace::MappedTrace + analysis::renderReport
 *
 * Only the sequential backward walk is driven (no epoch-parallel or
 * legacy-container options), so the pass keeps measuring the same
 * path as those alternatives are retired.
 *
 * With --verify 1 the pass keeps each RunResult and, after the timed
 * chain, checks (untimed) that the .trc decodes field by field to the
 * recorded records and that the file-streamed slice digest equals the
 * sequential in-memory slicer::computeSlice over those records.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/report.hh"
#include "commands.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "scenario/generator.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "service/json.hh"
#include "slicer/slicer.hh"
#include "spans.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "trace/artifacts.hh"
#include "trace/trace_file.hh"

using namespace webslice;
using service::Json;

namespace perfbench {

namespace {

uint64_t
counterValue(const char *name)
{
    return MetricRegistry::global().counter(name).value();
}

/** Write the .sym/.crit/.meta sidecars exactly as webslice-scenario. */
void
writeSidecars(const scenario::Scenario &sc,
              const workloads::RunResult &run, const std::string &prefix)
{
    run.machine->symtab().save(prefix + ".sym");
    run.machine->pixelCriteria().save(prefix + ".crit");
    std::ofstream meta(prefix + ".meta");
    fatal_if(!meta, "cannot write ", prefix, ".meta");
    meta << "benchmark " << run.spec.name << '\n';
    meta << "loadCompleteIndex " << run.loadCompleteIndex << '\n';
    meta << "loadOnly " << (scenario::isLoadOnly(sc) ? 1 : 0) << '\n';
    const auto thread_names = run.threadNames();
    for (size_t t = 0; t < thread_names.size(); ++t)
        meta << "thread " << t << ' ' << thread_names[t] << '\n';
    fatal_if(!meta, "write to ", prefix, ".meta failed");
}

bool
sameRecord(const trace::Record &a, const trace::Record &b)
{
    return a.addr == b.addr && a.pc == b.pc && a.aux == b.aux &&
           a.tid == b.tid && a.kind == b.kind && a.flags == b.flags &&
           a.rr0 == b.rr0 && a.rr1 == b.rr1 && a.rr2 == b.rr2 &&
           a.rw == b.rw;
}

/** What one recording's chain produced, kept for the untimed checks. */
struct RecordingOutcome
{
    std::string name;
    std::string prefix;
    uint64_t records = 0;
    uint64_t window = 0;
    double wallSeconds = 0.0; ///< runScenario to report: one query
    uint64_t blocksDecoded = 0;
    uint64_t bytesDecoded = 0;
    uint64_t peakLiveMemBytes = 0;
    uint64_t recordsFed = 0;
    uint64_t sliceDigest = 0;
    uint64_t reportDigest = 0;
    std::optional<workloads::RunResult> run; ///< kept only with --verify
};

/**
 * Untimed oracle for one recording; returns failure messages (empty
 * when the trace and the slice both match).
 */
std::vector<std::string>
verifyRecording(const RecordingOutcome &out, slicer::CriteriaMode mode,
                bool corrupt_oracle)
{
    std::vector<std::string> failures;
    const auto &records = out.run->records();

    const auto decoded = trace::loadTrace(out.prefix + ".trc");
    if (decoded.size() != records.size()) {
        failures.push_back(out.name + ": .trc holds " +
                           std::to_string(decoded.size()) +
                           " records, recorder emitted " +
                           std::to_string(records.size()));
    } else {
        for (size_t i = 0; i < records.size(); ++i) {
            if (!sameRecord(decoded[i], records[i])) {
                failures.push_back(out.name + ": .trc record " +
                                   std::to_string(i) +
                                   " differs from the recorder's");
                break;
            }
        }
    }

    const auto cfgs =
        graph::buildCfgs(records, out.run->machine->symtab(), 1);
    const auto deps = graph::buildControlDeps(cfgs, 1);
    slicer::SlicerOptions options;
    options.mode = mode;
    options.endIndex = out.window;
    const auto oracle = slicer::computeSlice(
        records, cfgs, deps, out.run->machine->pixelCriteria(), options);
    const uint64_t expected = sliceDigest(oracle) ^ (corrupt_oracle ? 1 : 0);
    if (expected != out.sliceDigest) {
        char text[160];
        std::snprintf(text, sizeof text,
                      ": slice digest %016llx != in-memory oracle %016llx",
                      static_cast<unsigned long long>(out.sliceDigest),
                      static_cast<unsigned long long>(expected));
        failures.push_back(out.name + text);
    }
    return failures;
}

std::string
hex(uint64_t value)
{
    char text[20];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

} // namespace

int
runPass(const Args &args)
{
    const std::string out_dir = args.get("out-dir");
    const auto mode = parseMode(args.get("criteria"));
    const bool verify = args.number("verify", 0) != 0;
    const bool keep = args.number("keep", 0) != 0;
    const uint64_t pass_id = args.number("id", 0);
    fatal_if(args.positional.empty(), "pass needs at least one .scn file");

    std::vector<scenario::Scenario> scenarios;
    for (const auto &path : args.positional)
        scenarios.push_back(scenario::parseScenarioFile(path));
    std::filesystem::create_directories(out_dir);
    const int jobs = forwardJobs();

    // Each pass is its own process, so the decode cache must be cold.
    const uint64_t cache_hits_at_start =
        counterValue("trace.block_cache_hits");

    SpanLog log(args.number("spans", 0) != 0);
    std::vector<RecordingOutcome> outcomes(scenarios.size());
    const double t_ready = nowSeconds();
    if (args.number("setup-only", 0) != 0) {
        Json ready = Json::object();
        ready.set("t_ready", Json::number(t_ready));
        std::printf("%s\n", ready.dump().c_str());
        return 0;
    }
    {
        ScopedSpan pass_span(log, "pass", pass_id);
        for (size_t i = 0; i < scenarios.size(); ++i) {
            const scenario::Scenario &sc = scenarios[i];
            RecordingOutcome &out = outcomes[i];
            out.name =
                std::filesystem::path(args.positional[i]).stem().string();
            out.prefix = out_dir + "/" + std::to_string(i) + "-" + out.name;
            const std::string trc = out.prefix + ".trc";
            const uint64_t blocks0 = counterValue("trace.blocks_decoded");
            const uint64_t bytes0 = counterValue("trace.bytes_decoded");
            const double started = nowSeconds();
            ScopedSpan recording_span(log, "recording", pass_id);

            {
                std::optional<workloads::RunResult> run;
                {
                    ScopedSpan span(log, "scenario.run", pass_id);
                    run.emplace(scenario::runScenario(sc));
                }
                out.records = run->records().size();
                out.window = out.records;
                if (scenario::isLoadOnly(sc))
                    out.window =
                        std::min<uint64_t>(out.window, run->loadCompleteIndex);
                {
                    ScopedSpan span(log, "trace.write", pass_id);
                    trace::TraceWriter writer(trc, /*block_index=*/true,
                                              trace::TraceFormat::V2,
                                              /*atomic=*/true);
                    for (const auto &rec : run->records())
                        writer.append(rec);
                    writer.close();
                    writeSidecars(sc, *run, out.prefix);
                }
                if (verify)
                    out.run = std::move(run);
            }

            trace::ArtifactSidecars sidecars;
            {
                ScopedSpan span(log, "trace.sidecars", pass_id);
                sidecars = trace::loadArtifactSidecars(out.prefix);
            }
            graph::CfgSet cfgs;
            {
                ScopedSpan span(log, "graph.cfg", pass_id);
                cfgs = graph::buildCfgsFromFile(trc, sidecars.symtab, jobs);
            }
            graph::ControlDepMap deps;
            {
                ScopedSpan span(log, "graph.cdg", pass_id);
                deps = graph::buildControlDeps(cfgs, jobs);
            }
            slicer::SlicerOptions options;
            options.mode = mode;
            options.jobs = jobs;
            const trace::RunMeta &meta = sidecars.meta;
            if (meta.loadOnly && meta.loadCompleteIndex != SIZE_MAX)
                options.endIndex = meta.loadCompleteIndex;
            slicer::SliceResult slice;
            {
                ScopedSpan span(log, "slicer.backward", pass_id);
                slice = slicer::computeSliceFromFile(
                    trc, cfgs, deps, sidecars.criteria, options);
            }
            std::string report;
            {
                ScopedSpan span(log, "analysis.report", pass_id);
                const trace::MappedTrace mapped(trc);
                analysis::ReportOptions report_options;
                report_options.endIndex = options.endIndex;
                report_options.topFunctions = 12;
                report_options.threadNames = meta.threadNames;
                std::ostringstream os;
                analysis::renderReport(os, mapped.records(), slice, cfgs,
                                       sidecars.symtab, report_options);
                report = os.str();
            }
            out.wallSeconds = nowSeconds() - started;
            out.blocksDecoded = counterValue("trace.blocks_decoded") - blocks0;
            out.bytesDecoded = counterValue("trace.bytes_decoded") - bytes0;
            out.peakLiveMemBytes = slice.peakLiveMemBytes;
            out.recordsFed = slice.recordsFed;
            out.sliceDigest = sliceDigest(slice);
            out.reportDigest = fnv1a64(report.data(), report.size());
        }
    }
    const double t_end = nowSeconds();
    const uint64_t peak_rss = peakRssBytes();

    const auto json_list = [](std::vector<std::string> messages) {
        Json list = Json::array();
        for (auto &message : messages)
            list.push(Json::string(std::move(message)));
        return list;
    };
    // A failure of the pass as a whole fails each of its recordings.
    std::vector<std::string> pass_failures;
    if (cache_hits_at_start != 0)
        pass_failures.push_back("trace.block_cache_hits was " +
                                std::to_string(cache_hits_at_start) +
                                " at pass start");
    const bool corrupt = args.number("corrupt-oracle", 0) != 0;
    Json recordings = Json::array();
    uint64_t total_records = 0, total_bytes = 0;
    for (auto &out : outcomes) {
        std::vector<std::string> failures;
        if (out.run) {
            failures = verifyRecording(out, mode, corrupt);
            out.run.reset();
        }
        const std::string trc = out.prefix + ".trc";
        const FileDigest digest = digestFile(trc);
        fatal_if(!digest.ok, "cannot digest ", trc);
        const uint64_t blocks = trace::loadTraceBlockIndex(trc).blockCount();
        total_records += out.records;
        total_bytes += digest.bytes;

        Json rec = Json::object();
        rec.set("name", Json::string(out.name));
        rec.set("records", Json::integer(out.records));
        rec.set("window", Json::integer(out.window));
        rec.set("wall_s", Json::number(out.wallSeconds));
        rec.set("trace_bytes", Json::integer(digest.bytes));
        rec.set("trace_fnv1a", Json::string(hex(digest.fnv1a)));
        rec.set("slice_fnv1a", Json::string(hex(out.sliceDigest)));
        rec.set("report_fnv1a", Json::string(hex(out.reportDigest)));
        rec.set("blocks", Json::integer(blocks));
        rec.set("blocks_decoded", Json::integer(out.blocksDecoded));
        rec.set("bytes_decoded", Json::integer(out.bytesDecoded));
        rec.set("records_fed", Json::integer(out.recordsFed));
        rec.set("peak_live_mem_bytes", Json::integer(out.peakLiveMemBytes));
        rec.set("failures", json_list(std::move(failures)));
        recordings.push(std::move(rec));
        if (!keep)
            for (const char *ext : {".trc", ".sym", ".crit", ".meta"})
                std::filesystem::remove(out.prefix + ext);
    }

    Json result = Json::object();
    result.set("t_ready", Json::number(t_ready));
    result.set("wall_s", Json::number(t_end - t_ready));
    result.set("records", Json::integer(total_records));
    result.set("trace_bytes", Json::integer(total_bytes));
    result.set("peak_rss_bytes", Json::integer(peak_rss));
    result.set("recordings", std::move(recordings));
    if (log.enabled()) {
        Json self = Json::object();
        for (const auto &[name, seconds] : log.selfSecondsByName())
            self.set(name, Json::number(seconds));
        result.set("self_s", std::move(self));
        const std::string chrome = args.get("chrome-trace", "");
        if (!chrome.empty())
            log.writeChromeTrace(chrome);
    }
    result.set("failures", json_list(std::move(pass_failures)));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

int
runGenerate(const Args &args)
{
    const uint64_t seed = args.number("seed", 1);
    const std::string out_dir = args.get("out-dir");
    std::filesystem::create_directories(out_dir);

    // Two replicas of the L9 orthogonal array: in each, every level of
    // every knob appears three times and each pair of levels of two
    // knobs once. Per replica the seed relabels each knob's levels and
    // pairs the rows with a shuffle of workers 0..8; it also draws every
    // scenario's own seed. Two seeds thus hold the same balance of
    // small, large and worker-heavy recordings, and differ in which
    // ones; the second replica halves what the scenario seeds add.
    static constexpr uint8_t kL9[9][4] = {
        {0, 0, 0, 0}, {0, 1, 1, 1}, {0, 2, 2, 2}, {1, 0, 1, 2}, {1, 1, 2, 0},
        {1, 2, 0, 1}, {2, 0, 2, 1}, {2, 1, 0, 2}, {2, 2, 1, 0}};
    Rng rng(seed ^ 0x5eedfa3117ull);
    const auto shuffled = [&](size_t n) {
        std::vector<size_t> values(n);
        for (size_t i = 0; i < n; ++i)
            values[i] = i;
        for (size_t i = n; i > 1; --i)
            std::swap(values[i - 1], values[rng.below(i)]);
        return values;
    };
    const scenario::Level levels[] = {scenario::Level::Lo,
                                      scenario::Level::Mid,
                                      scenario::Level::Hi};

    Json list = Json::array();
    for (size_t replica = 0; replica < 2; ++replica) {
        std::vector<size_t> relabel[4];
        for (auto &perm : relabel)
            perm = shuffled(3);
        const auto workers = shuffled(9);
        for (size_t row = 0; row < 9; ++row) {
            const auto level = [&](int knob) {
                return levels[relabel[knob][kL9[row][knob]]];
            };
            scenario::Knobs knobs;
            knobs.domDepth = level(0);
            knobs.cssVolume = level(1);
            knobs.jsHotness = level(2);
            knobs.images = level(3);
            knobs.workers = static_cast<int>(workers[row]);
            const uint64_t scenario_seed = rng.next() & 0xffffffffull;
            const auto sc = scenario::generateScenario(scenario_seed, knobs);
            char name[32];
            std::snprintf(name, sizeof name, "synth-%02zu.scn",
                          replica * 9 + row);
            const std::string path = out_dir + "/" + name;
            std::ofstream out(path);
            out << scenario::serializeScenario(sc);
            fatal_if(!out, "cannot write ", path);

            Json entry = Json::object();
            entry.set("file", Json::string(path));
            entry.set("seed", Json::integer(scenario_seed));
            entry.set("knobs", Json::string(scenario::knobsLabel(knobs)));
            entry.set("workers", Json::integer(knobs.workers));
            list.push(std::move(entry));
        }
    }
    Json result = Json::object();
    result.set("scenarios", std::move(list));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

} // namespace perfbench
