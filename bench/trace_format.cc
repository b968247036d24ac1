/**
 * @file
 * Trace-format bench: the v1 (flat) vs v2 (columnar compressed)
 * storage/decode trade, measured end to end on a recorded benchmark.
 *
 *   trace_format [--site bing|amazon|amazon-mobile|maps] [--reps N]
 *                [--out BENCH_trace.json] [--quick]
 *
 * For one recorded session the bench reports, per format:
 *  - on-disk bytes and the v1:v2 compression ratio (CI asserts >= 4x);
 *  - write (encode) wall time;
 *  - cold full-file decode wall time (loadTrace);
 *  - cold and warm single-record seek latency (loadTraceRange through
 *    the block-decode cache);
 *  - backward-slice wall time from the file (computeSliceFromFile),
 *    with the slice asserted bit-identical across formats.
 *
 * Results land in BENCH_trace.json (webslice-metrics-v1 schema) for
 * CI's trend tracking.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "trace/columnar.hh"
#include "trace/trace_file.hh"

using namespace webslice;

namespace {

struct FormatSample
{
    std::string path;
    uint64_t bytes = 0;
    double writeSeconds = 0.0;
    double coldLoadSeconds = 0.0;
    double coldSeekSeconds = 0.0;
    double warmSeekSeconds = 0.0;
    double sliceSeconds = 0.0;
};

/** Best-of-reps timing for one thunk. */
template <typename Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        const double t0 = bench::nowSeconds();
        fn();
        const double elapsed = bench::nowSeconds() - t0;
        if (i == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

std::string
fieldsJson(const FormatSample &s)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"bytes\": %llu, "
                  "\"write_seconds\": %.6f, "
                  "\"cold_load_seconds\": %.6f, "
                  "\"cold_seek_seconds\": %.6f, "
                  "\"warm_seek_seconds\": %.6f, "
                  "\"slice_seconds\": %.6f}",
                  static_cast<unsigned long long>(s.bytes),
                  s.writeSeconds, s.coldLoadSeconds, s.coldSeekSeconds,
                  s.warmSeekSeconds, s.sliceSeconds);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string site = "amazon-mobile";
    std::string out_path = "BENCH_trace.json";
    int reps = 3;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--site") && a + 1 < argc) {
            site = argv[++a];
        } else if (!std::strcmp(argv[a], "--reps") && a + 1 < argc) {
            reps = std::atoi(argv[++a]);
        } else if (!std::strcmp(argv[a], "--out") && a + 1 < argc) {
            out_path = argv[++a];
        } else if (!std::strcmp(argv[a], "--quick")) {
            site = "amazon-mobile";
            reps = 2;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--site name] [--reps N] "
                         "[--out path] [--quick]\n",
                         argv[0]);
            return 1;
        }
    }
    if (reps < 1)
        reps = 1;

    workloads::SiteSpec spec;
    if (site == "bing") {
        spec = workloads::bingSpec();
    } else if (site == "amazon") {
        spec = workloads::amazonDesktopSpec();
    } else if (site == "amazon-mobile") {
        spec = workloads::amazonMobileSpec();
    } else if (site == "maps") {
        spec = workloads::googleMapsSpec();
    } else {
        std::fprintf(stderr, "unknown site '%s'\n", site.c_str());
        return 1;
    }

    bench::printHeader("trace_format: flat (v1) vs columnar (v2) "
                       "storage and decode");

    std::printf("running %s ...\n", spec.name.c_str());
    const bench::ProfiledRun profiled = bench::profileSite(spec);
    const auto &records = profiled.records();
    const uint64_t count = records.size();
    std::printf("%s records recorded\n", withCommas(count).c_str());

    const std::string dir = "/tmp/";
    FormatSample v1{dir + "bench_trace_v1.trc"};
    FormatSample v2{dir + "bench_trace_v2.trc"};

    // ---- write -----------------------------------------------------------
    v1.writeSeconds = bestOf(reps, [&] {
        trace::saveTrace(v1.path, records, trace::TraceFormat::V1);
    });
    v2.writeSeconds = bestOf(reps, [&] {
        trace::saveTrace(v2.path, records, trace::TraceFormat::V2);
    });
    const auto digest_v1 = digestFile(v1.path);
    const auto digest_v2 = digestFile(v2.path);
    v1.bytes = digest_v1.bytes;
    v2.bytes = digest_v2.bytes;

    // ---- cold full decode ------------------------------------------------
    for (FormatSample *s : {&v1, &v2}) {
        s->coldLoadSeconds = bestOf(reps, [&] {
            trace::TraceDecodeCache::global().clear();
            const auto loaded = trace::loadTrace(s->path);
            fatal_if(loaded.size() != count, "short load from ",
                     s->path);
        });
    }

    // ---- seek latency ----------------------------------------------------
    // One record from the middle of the file: v1 seeks natively, v2
    // decodes (cold) or reuses (warm) the containing block.
    const uint64_t mid = count / 2;
    for (FormatSample *s : {&v1, &v2}) {
        s->coldSeekSeconds = bestOf(reps, [&] {
            trace::TraceDecodeCache::global().clear();
            (void)trace::loadTraceRange(s->path, mid, 1);
        });
        trace::TraceDecodeCache::global().clear();
        (void)trace::loadTraceRange(s->path, mid, 1); // prime
        s->warmSeekSeconds = bestOf(reps, [&] {
            (void)trace::loadTraceRange(s->path, mid, 1);
        });
    }

    // ---- slice from file -------------------------------------------------
    const slicer::SlicerOptions options =
        bench::windowedOptions(profiled.run);
    std::vector<slicer::SliceResult> slices;
    for (FormatSample *s : {&v1, &v2}) {
        slicer::SliceResult result;
        s->sliceSeconds = bestOf(reps, [&] {
            trace::TraceDecodeCache::global().clear();
            result = slicer::computeSliceFromFile(
                s->path, profiled.cfgs, profiled.deps,
                profiled.run.machine->pixelCriteria(), options);
        });
        slices.push_back(std::move(result));
    }
    const bool identical = slices[0].inSlice == slices[1].inSlice;
    fatal_if(!identical,
             "v1 and v2 slices diverged — the formats are not "
             "equivalent");

    const double ratio =
        v2.bytes ? static_cast<double>(v1.bytes) /
                       static_cast<double>(v2.bytes)
                 : 0.0;

    TextTable table;
    table.setHeader({"Metric", "v1 (flat)", "v2 (columnar)"});
    table.addRow({"on-disk bytes", withCommas(v1.bytes),
                  withCommas(v2.bytes)});
    table.addRow({"write s", format("%.3f", v1.writeSeconds),
                  format("%.3f", v2.writeSeconds)});
    table.addRow({"cold full decode s",
                  format("%.3f", v1.coldLoadSeconds),
                  format("%.3f", v2.coldLoadSeconds)});
    table.addRow({"cold seek ms",
                  format("%.3f", v1.coldSeekSeconds * 1e3),
                  format("%.3f", v2.coldSeekSeconds * 1e3)});
    table.addRow({"warm seek ms",
                  format("%.3f", v1.warmSeekSeconds * 1e3),
                  format("%.3f", v2.warmSeekSeconds * 1e3)});
    table.addRow({"slice from file s",
                  format("%.3f", v1.sliceSeconds),
                  format("%.3f", v2.sliceSeconds)});
    table.render(std::cout);
    std::printf("\ncompression ratio %.2fx; slices bit-identical\n",
                ratio);

    const std::vector<std::pair<std::string, std::string>> extras = {
        {"site", "\"" + jsonEscape(site) + "\""},
        {"records", format("%llu",
                           static_cast<unsigned long long>(count))},
        {"reps", format("%d", reps)},
        {"v1", fieldsJson(v1)},
        {"v2", fieldsJson(v2)},
        {"compression_ratio", format("%.3f", ratio)},
        {"slices_identical", identical ? "true" : "false"},
    };
    writeMetricsReport(out_path, MetricRegistry::global(),
                       "trace_format", extras);
    std::printf("wrote %s\n", out_path.c_str());

    std::remove(v1.path.c_str());
    std::remove(v2.path.c_str());
    return 0;
}
