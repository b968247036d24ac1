/**
 * @file
 * Profiler pipeline throughput: recorder, forward pass, backward pass.
 *
 *   pipeline_scaling [--site bing|bing-load|amazon|amazon-mobile|maps]
 *                    [--reps N] [--out FILE] [--quick]
 *
 * Measures the recorder (runScenario on the site, once per rep; the
 * median rep is `record_records_per_s`) and the profiler's two passes
 * over one benchmark trace, both on one thread: the forward pass (CFGs,
 * postdominators, control dependences) and the sequential backward
 * walk. Every rep's slice is verified bit-identical to rep 0's before
 * any number is reported.
 * Results go to stdout as a table and to BENCH_profiler.json (machine
 * readable) so the perf trajectory can be tracked across commits; CI
 * uploads the JSON as an artifact.
 *
 * Measurement protocol: each rep runs the forward pass and then the
 * backward pass back to back, and `forward_over_backward` is the median
 * of the per-rep ratios of forward to backward records/sec. On shared or
 * frequency-scaled machines the CPU drifts between reps; a ratio taken
 * within one rep is immune to that drift, where separate best-of phases
 * are not. Throughput columns show each pass's best rep.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "scenario/run.hh"
#include "workloads/sites.hh"

using namespace webslice;

namespace {

struct Sample
{
    double forwardSeconds = 0.0;
    double backwardSeconds = 0.0;
    uint64_t peakLiveSetBytes = 0;
};

/** One timed run of the full pipeline; its slice goes to `slice`. */
Sample
runOnce(const workloads::RunResult &run, slicer::SliceResult &slice)
{
    Sample s;
    const double t0 = bench::nowSeconds();
    const auto cfgs = graph::buildCfgs(run.records(),
                                       run.machine->symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    const double t1 = bench::nowSeconds();

    slice = slicer::computeSlice(run.records(), cfgs, deps,
                                 run.machine->pixelCriteria(),
                                 bench::windowedOptions(run));
    const double t2 = bench::nowSeconds();

    s.forwardSeconds = t1 - t0;
    s.backwardSeconds = t2 - t1;
    s.peakLiveSetBytes = slice.peakLiveMemBytes;
    return s;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
recordsPerSec(uint64_t records, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string site = "bing";
    std::string out_path = "BENCH_profiler.json";
    int reps = 3;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--site") && a + 1 < argc) {
            site = argv[++a];
        } else if (!std::strcmp(argv[a], "--reps") && a + 1 < argc) {
            reps = std::atoi(argv[++a]);
        } else if (!std::strcmp(argv[a], "--out") && a + 1 < argc) {
            out_path = argv[++a];
        } else if (!std::strcmp(argv[a], "--quick")) {
            // CI configuration: smallest site. Reps stay at 3 so the
            // published per-rep ratio keeps its drift immunity in CI.
            site = "amazon-mobile";
        } else {
            std::fprintf(stderr,
                         "usage: %s [--site NAME] [--reps N] "
                         "[--out FILE] [--quick]\n",
                         argv[0]);
            return 1;
        }
    }
    if (reps < 1)
        reps = 1;

    workloads::SiteSpec spec;
    if (site == "bing") {
        spec = workloads::bingSpec();
    } else if (site == "bing-load") {
        spec = workloads::withoutBrowseSession(workloads::bingSpec());
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

    bench::printHeader("Profiler pipeline throughput: forward pass vs "
                       "sequential backward pass");

    std::printf("recording %s %d times ...\n", spec.name.c_str(), reps);
    // The last recording is the one the passes analyze; each rep drops
    // the previous one first, so only one trace is held at a time.
    std::optional<workloads::RunResult> recorded;
    std::vector<double> record_seconds;
    {
        ScopedPhase phase("workload");
        for (int rep = 0; rep < reps; ++rep) {
            recorded.reset();
            const double t0 = bench::nowSeconds();
            recorded.emplace(scenario::runSite(spec));
            record_seconds.push_back(bench::nowSeconds() - t0);
        }
    }
    const workloads::RunResult &run = *recorded;
    const uint64_t records = run.records().size();
    const double record_rate =
        recordsPerSec(records, median(record_seconds));
    std::printf("trace: %s records, analysis window %s\n\n",
                withCommas(records).c_str(),
                withCommas(bench::analysisEnd(run)).c_str());

    std::vector<Sample> samples;
    slicer::SliceResult reference;
    {
        ScopedPhase phase("measure");
        for (int rep = 0; rep < reps; ++rep) {
            slicer::SliceResult slice;
            samples.push_back(runOnce(run, slice));
            if (rep == 0) {
                reference = std::move(slice);
            } else if (slice.inSlice != reference.inSlice) {
                std::fprintf(stderr,
                             "FATAL: rep %d's slice differs from rep 0's\n",
                             rep);
                return 1;
            }
        }
    }

    Sample best = samples.front();
    std::vector<double> ratios;
    for (const Sample &s : samples) {
        best.forwardSeconds = std::min(best.forwardSeconds,
                                       s.forwardSeconds);
        best.backwardSeconds = std::min(best.backwardSeconds,
                                        s.backwardSeconds);
        // Forward over backward records/sec is backward over forward time.
        ratios.push_back(s.backwardSeconds / s.forwardSeconds);
    }
    const double forward_over_backward = median(ratios);
    const double forward_rate = recordsPerSec(records, best.forwardSeconds);
    const double backward_rate =
        recordsPerSec(records, best.backwardSeconds);

    std::printf("%-16s %12s %12s\n", "pass", "Mrec/s", "seconds");
    std::printf("%-16s %12.2f %12.4f  (median rep)\n", "record",
                record_rate / 1e6, median(record_seconds));
    std::printf("%-16s %12.2f %12.4f\n", "forward", forward_rate / 1e6,
                best.forwardSeconds);
    std::printf("%-16s %12.2f %12.4f\n", "backward", backward_rate / 1e6,
                best.backwardSeconds);
    std::printf("\nforward/backward records/sec (median of %d reps): "
                "%.2fx\n",
                reps, forward_over_backward);
    std::printf("all reps verified bit-identical to rep 0's slice.\n");

    // ---- machine-readable output -------------------------------------------
    // Same webslice-metrics-v1 schema as `webslice-profile --metrics-json`:
    // phases/counters/gauges from the registry, then the benchmark's own
    // fields as extras.
    const std::vector<std::pair<std::string, std::string>> extras = {
        {"site", format("\"%s\"", jsonEscape(site).c_str())},
        {"records", format("%llu",
                           static_cast<unsigned long long>(records))},
        {"reps", format("%d", reps)},
        {"record_records_per_s", format("%.0f", record_rate)},
        {"forward_records_per_sec", format("%.0f", forward_rate)},
        {"backward_records_per_sec", format("%.0f", backward_rate)},
        {"forward_seconds", format("%.6f", best.forwardSeconds)},
        {"backward_seconds", format("%.6f", best.backwardSeconds)},
        {"peak_live_set_bytes",
         format("%llu", static_cast<unsigned long long>(
                            best.peakLiveSetBytes))},
        {"forward_over_backward", format("%.3f", forward_over_backward)},
    };
    writeMetricsReport(out_path, MetricRegistry::global(),
                       "pipeline_scaling", extras);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
