/**
 * @file
 * Profiler pipeline scaling sweep.
 *
 *   pipeline_scaling [--site bing|bing-load|amazon|amazon-mobile|maps]
 *                    [--max-jobs N] [--reps N] [--out FILE] [--quick]
 *
 * Measures the profiler's two passes over one benchmark trace at
 * increasing forward-pass thread counts: the per-function forward pass
 * runs on N threads, the backward pass is the sequential walk. The
 * baseline is the 1-job run of the same code, so every ratio is against
 * the best simple path.
 *
 * Every configuration's slice is verified bit-identical to a separate
 * 1-job reference run before any number is reported. Results go to stdout as a table and to
 * BENCH_profiler.json (machine readable) so the perf trajectory can be
 * tracked across commits; CI uploads the JSON as an artifact.
 *
 * Measurement protocol: with --reps N every configuration is measured N
 * times *interleaved* (each job count in turn, repeated), and the
 * reported speedup is the median of the per-rep ratios to that rep's
 * 1-job run. On shared or frequency-scaled machines the CPU
 * drifts between phases; measuring baseline and optimized back to back
 * within each rep makes the ratio robust to that drift, where separate
 * best-of phases are not. Throughput columns show each configuration's
 * best rep.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
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
    int jobs = 1;
    double forwardSeconds = 0.0;
    double backwardSeconds = 0.0;
    uint64_t peakLiveSetBytes = 0;

    double totalSeconds() const { return forwardSeconds + backwardSeconds; }
};

/** One timed run of the full pipeline in one configuration. */
Sample
runOnce(const workloads::RunResult &run, int jobs,
        const slicer::SliceResult &expect)
{
    Sample s;
    s.jobs = jobs;

    const double t0 = bench::nowSeconds();
    const auto cfgs = graph::buildCfgs(run.records(),
                                       run.machine->symtab(), jobs);
    const auto deps = graph::buildControlDeps(cfgs, jobs);
    const double t1 = bench::nowSeconds();

    const slicer::SlicerOptions options = bench::windowedOptions(run);
    const auto slice = slicer::computeSlice(
        run.records(), cfgs, deps, run.machine->pixelCriteria(), options);
    const double t2 = bench::nowSeconds();

    if (slice.inSlice != expect.inSlice) {
        std::fprintf(stderr,
                     "FATAL: slice mismatch at jobs=%d "
                     "(parallel forward pass is not bit-identical)\n",
                     jobs);
        std::exit(1);
    }

    s.forwardSeconds = t1 - t0;
    s.backwardSeconds = t2 - t1;
    s.peakLiveSetBytes = slice.peakLiveMemBytes;
    return s;
}

/** Element-wise best (minimum time) across one configuration's reps. */
Sample
bestOf(const std::vector<Sample> &reps)
{
    Sample best = reps.front();
    for (const Sample &s : reps) {
        best.forwardSeconds = std::min(best.forwardSeconds,
                                       s.forwardSeconds);
        best.backwardSeconds = std::min(best.backwardSeconds,
                                        s.backwardSeconds);
    }
    return best;
}

/** Median of the per-rep baseline/config time ratios for one phase. */
template <typename Seconds>
double
medianSpeedup(const std::vector<Sample> &base,
              const std::vector<Sample> &conf, Seconds seconds)
{
    std::vector<double> ratios;
    ratios.reserve(base.size());
    for (size_t r = 0; r < base.size(); ++r)
        ratios.push_back(seconds(base[r]) / seconds(conf[r]));
    std::sort(ratios.begin(), ratios.end());
    const size_t n = ratios.size();
    return n % 2 ? ratios[n / 2]
                 : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
}

double
totalSpeedup(const std::vector<Sample> &base,
             const std::vector<Sample> &conf)
{
    return medianSpeedup(base, conf,
                         [](const Sample &s) { return s.totalSeconds(); });
}

double
forwardSpeedup(const std::vector<Sample> &base,
               const std::vector<Sample> &conf)
{
    return medianSpeedup(
        base, conf, [](const Sample &s) { return s.forwardSeconds; });
}

double
recordsPerSec(uint64_t records, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
}

/** One configuration's timing fields (no surrounding braces). */
std::string
sampleFieldsJson(const Sample &s, uint64_t records)
{
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "\"forward_records_per_sec\": %.0f, "
                  "\"backward_records_per_sec\": %.0f, "
                  "\"forward_seconds\": %.6f, "
                  "\"backward_seconds\": %.6f, "
                  "\"peak_live_set_bytes\": %llu",
                  recordsPerSec(records, s.forwardSeconds),
                  recordsPerSec(records, s.backwardSeconds),
                  s.forwardSeconds, s.backwardSeconds,
                  static_cast<unsigned long long>(s.peakLiveSetBytes));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string site = "bing";
    std::string out_path = "BENCH_profiler.json";
    int max_jobs = 8;
    int reps = 3;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--site") && a + 1 < argc) {
            site = argv[++a];
        } else if (!std::strcmp(argv[a], "--max-jobs") && a + 1 < argc) {
            max_jobs = std::atoi(argv[++a]);
        } else if (!std::strcmp(argv[a], "--reps") && a + 1 < argc) {
            reps = std::atoi(argv[++a]);
        } else if (!std::strcmp(argv[a], "--out") && a + 1 < argc) {
            out_path = argv[++a];
        } else if (!std::strcmp(argv[a], "--quick")) {
            // CI configuration: smallest site, short sweep. Reps stay at
            // 3 so the published per-rep ratios keep their drift immunity
            // even in CI.
            site = "amazon-mobile";
            max_jobs = 4;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--site NAME] [--max-jobs N] "
                         "[--reps N] [--out FILE] [--quick]\n",
                         argv[0]);
            return 1;
        }
    }
    if (max_jobs < 1)
        max_jobs = 1;
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

    bench::printHeader("Profiler pipeline scaling: threaded forward pass "
                       "+ sequential backward pass");

    std::printf("running %s ...\n", spec.name.c_str());
    workloads::RunResult run = [&] {
        ScopedPhase phase("workload");
        return scenario::runSite(spec);
    }();
    const uint64_t records = run.records().size();
    std::printf("trace: %s records, analysis window %s\n\n",
                withCommas(records).c_str(),
                withCommas(bench::analysisEnd(run)).c_str());

    // The serial pipeline's slice is the reference every configuration
    // must reproduce exactly.
    const auto reference = [&] {
        ScopedPhase phase("reference");
        const auto base_cfgs = graph::buildCfgs(run.records(),
                                                run.machine->symtab(), 1);
        const auto base_deps = graph::buildControlDeps(base_cfgs, 1);
        return slicer::computeSlice(run.records(), base_cfgs, base_deps,
                                    run.machine->pixelCriteria(),
                                    bench::windowedOptions(run));
    }();

    std::vector<int> job_counts;
    for (int jobs = 1; jobs <= max_jobs; jobs *= 2)
        job_counts.push_back(jobs);
    if (job_counts.back() != max_jobs)
        job_counts.push_back(max_jobs);

    // Interleaved measurement: each rep times every job count back to
    // back, so per-rep ratios to the rep's 1-job run are immune to
    // machine-speed drift between phases. job_counts[0] is 1: the
    // baseline.
    std::vector<std::vector<Sample>> conf_reps(job_counts.size());
    {
        ScopedPhase phase("measure");
        for (int rep = 0; rep < reps; ++rep) {
            for (size_t c = 0; c < job_counts.size(); ++c)
                conf_reps[c].push_back(
                    runOnce(run, job_counts[c], reference));
        }
    }
    const std::vector<Sample> &base_reps = conf_reps.front();
    const Sample base = bestOf(base_reps);

    std::printf("%-28s %12s %12s %9s %9s\n", "configuration",
                "fwd Mrec/s", "bwd Mrec/s", "fwd", "total");
    std::vector<Sample> sweep;
    std::vector<double> speedups;
    std::vector<double> fwd_speedups;
    double speedup_at_4 = 0.0;
    double fwd_speedup_at_4 = 0.0;
    for (size_t c = 0; c < job_counts.size(); ++c) {
        const Sample s = bestOf(conf_reps[c]);
        const double speedup = totalSpeedup(base_reps, conf_reps[c]);
        const double fwd = forwardSpeedup(base_reps, conf_reps[c]);
        sweep.push_back(s);
        speedups.push_back(speedup);
        fwd_speedups.push_back(fwd);
        if (job_counts[c] == 4) {
            speedup_at_4 = speedup;
            fwd_speedup_at_4 = fwd;
        }
        std::printf("%-28s %12.2f %12.2f %8.2fx %8.2fx\n",
                    format("forward pass, %d job%s", job_counts[c],
                           job_counts[c] == 1 ? "" : "s")
                        .c_str(),
                    recordsPerSec(records, s.forwardSeconds) / 1e6,
                    recordsPerSec(records, s.backwardSeconds) / 1e6, fwd,
                    speedup);
    }
    std::printf("\nall configurations verified bit-identical to the "
                "reference slice.\n");

    // ---- machine-readable output -------------------------------------------
    // Same webslice-metrics-v1 schema as `webslice-profile --metrics-json`:
    // phases/counters/gauges from the registry, then the benchmark's own
    // sections as extras.
    std::ostringstream sweep_json;
    sweep_json << "[\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        sweep_json << "    {\"jobs\": " << sweep[i].jobs << ", "
                   << sampleFieldsJson(sweep[i], records)
                   << format(", \"forward_speedup_vs_baseline\": %.3f",
                             fwd_speedups[i])
                   << format(", \"end_to_end_speedup_vs_baseline\": %.3f}",
                             speedups[i])
                   << (i + 1 < sweep.size() ? ",\n" : "\n");
    }
    sweep_json << "  ]";

    const std::vector<std::pair<std::string, std::string>> extras = {
        {"site", "\"" + jsonEscape(site) + "\""},
        {"records", format("%llu",
                           static_cast<unsigned long long>(records))},
        {"reps", format("%d", reps)},
        {"baseline", "{" + sampleFieldsJson(base, records) + "}"},
        {"sweep", sweep_json.str()},
        {"end_to_end_speedup_at_4_jobs", format("%.3f", speedup_at_4)},
        {"forward_speedup_at_4_jobs", format("%.3f", fwd_speedup_at_4)},
    };
    writeMetricsReport(out_path, MetricRegistry::global(),
                       "pipeline_scaling", extras);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
