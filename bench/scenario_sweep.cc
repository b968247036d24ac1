/**
 * @file
 * Sweep the synthetic-scenario generator and slice every recording.
 *
 * The paper's Table II covers four hand-modeled sites; this bench asks
 * the same question — how much of the computation does the pixel slice
 * keep? — across a *family* of generated sites, so the slice statistics
 * can be read as a function of site character (script hotness, DOM
 * depth, stylesheet volume, worker offload) instead of four points.
 *
 * For every (knob setting, seed) member: record the scenario, run both
 * profiler passes, and reslice data-only (control dependences off, the
 * ablation knob) to split the slice into its data-carried core and the
 * extra instructions control dependences pull in. Emits
 * BENCH_scenario.json (schema webslice-scenario-v1) with one entry per
 * member plus per-family means; CI uploads it as an artifact.
 *
 *   scenario_sweep [--seeds A..B] [--quick] [--out FILE]
 *
 * Default: seeds 1..4 across 4 knob settings (16 recordings); --quick
 * cuts to 2 settings x 2 seeds for CI smoke coverage.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "scenario/generator.hh"
#include "scenario/run.hh"
#include "slicer/slicer.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"

using namespace webslice;

namespace {

struct FamilySetting
{
    const char *label; ///< Human-readable knob summary.
    scenario::Knobs knobs;
};

std::vector<FamilySetting>
familySettings(bool quick)
{
    using scenario::Level;
    scenario::Knobs js_lo;
    js_lo.jsHotness = Level::Lo;
    scenario::Knobs js_hi;
    js_hi.jsHotness = Level::Hi;
    scenario::Knobs heavy_page;
    heavy_page.domDepth = Level::Hi;
    heavy_page.cssVolume = Level::Hi;
    scenario::Knobs offload;
    offload.workers = 2;

    std::vector<FamilySetting> settings = {
        {"js_hotness=lo", js_lo},
        {"js_hotness=hi", js_hi},
    };
    if (!quick) {
        settings.push_back({"dom_depth=hi css_volume=hi", heavy_page});
        settings.push_back({"workers=2", offload});
    }
    return settings;
}

struct MemberResult
{
    uint64_t seed = 0;
    std::string name;
    uint64_t records = 0;
    uint64_t traceBytes = 0; ///< 32 bytes per record, the v1 payload.
    double slicePercent = 0.0;
    double dataOnlyPercent = 0.0;
    double recordSeconds = 0.0;
    double sliceSeconds = 0.0;
};

MemberResult
profileMember(uint64_t seed, const scenario::Knobs &knobs)
{
    const auto sc = scenario::generateScenario(seed, knobs);

    const double t0 = bench::nowSeconds();
    const auto run = scenario::runScenario(sc);
    const double t1 = bench::nowSeconds();

    slicer::SlicerOptions options;
    const auto cfgs = graph::buildCfgs(run.records(),
                                       run.machine->symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    const auto slice = slicer::computeSlice(
        run.records(), cfgs, deps, run.machine->pixelCriteria(),
        bench::windowedOptions(run, options));
    const double t2 = bench::nowSeconds();

    // Ablation reslice: data dependences only. The gap to the full
    // slice is what control dependences (branch conditions and the code
    // computing them) contribute.
    slicer::SlicerOptions data_only = bench::windowedOptions(run, options);
    data_only.includeControlDeps = false;
    const auto data_slice = slicer::computeSlice(
        run.records(), cfgs, deps, run.machine->pixelCriteria(),
        data_only);

    MemberResult member;
    member.seed = seed;
    member.name = sc.name;
    member.records = run.records().size();
    member.traceBytes = run.records().size() * sizeof(trace::Record);
    member.slicePercent = slice.slicePercent();
    member.dataOnlyPercent = data_slice.slicePercent();
    member.recordSeconds = t1 - t0;
    member.sliceSeconds = t2 - t1;
    return member;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed_lo = 1, seed_hi = 4;
    bool quick = false;
    std::string out_path = "BENCH_scenario.json";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--quick") == 0) {
            quick = true;
            seed_hi = 2;
        } else if (std::strcmp(argv[a], "--seeds") == 0 &&
                   a + 1 < argc) {
            const std::string range = argv[++a];
            const size_t dots = range.find("..");
            fatal_if(dots == std::string::npos,
                     "--seeds needs A..B, got '", range, "'");
            seed_lo = std::strtoull(range.c_str(), nullptr, 0);
            seed_hi = std::strtoull(range.c_str() + dots + 2, nullptr, 0);
        } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
            out_path = argv[++a];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--seeds A..B] [--quick] "
                         "[--out FILE]\n",
                         argv[0]);
            return 1;
        }
    }

    bench::printHeader("Scenario-family slice sweep");

    std::string families_json = "[";
    bool first_family = true;
    for (const auto &setting : familySettings(quick)) {
        std::printf("\n-- family %s, seeds %llu..%llu --\n",
                    setting.label,
                    static_cast<unsigned long long>(seed_lo),
                    static_cast<unsigned long long>(seed_hi));
        std::printf("%6s %12s %12s %9s %9s %8s %8s\n", "seed",
                    "records", "trace B", "slice%", "data%", "rec s",
                    "slice s");

        std::vector<MemberResult> members;
        for (uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
            members.push_back(profileMember(seed, setting.knobs));
            const auto &m = members.back();
            std::printf("%6llu %12llu %12llu %8.1f%% %8.1f%% %8.2f "
                        "%8.2f\n",
                        static_cast<unsigned long long>(m.seed),
                        static_cast<unsigned long long>(m.records),
                        static_cast<unsigned long long>(m.traceBytes),
                        m.slicePercent, m.dataOnlyPercent,
                        m.recordSeconds, m.sliceSeconds);
        }

        double mean_slice = 0, mean_data = 0, mean_rec = 0,
               mean_slice_s = 0;
        uint64_t total_records = 0, total_bytes = 0;
        std::string members_json = "[";
        for (size_t i = 0; i < members.size(); ++i) {
            const auto &m = members[i];
            mean_slice += m.slicePercent;
            mean_data += m.dataOnlyPercent;
            mean_rec += m.recordSeconds;
            mean_slice_s += m.sliceSeconds;
            total_records += m.records;
            total_bytes += m.traceBytes;
            members_json += format(
                "%s\n      {\"seed\": %llu, \"name\": \"%s\", "
                "\"records\": %llu, \"trace_bytes\": %llu, "
                "\"slice_percent\": %.2f, "
                "\"data_only_percent\": %.2f, "
                "\"record_seconds\": %.3f, \"slice_seconds\": %.3f}",
                i ? "," : "",
                static_cast<unsigned long long>(m.seed),
                jsonEscape(m.name).c_str(),
                static_cast<unsigned long long>(m.records),
                static_cast<unsigned long long>(m.traceBytes),
                m.slicePercent, m.dataOnlyPercent, m.recordSeconds,
                m.sliceSeconds);
        }
        members_json += "\n    ]";
        const double n = static_cast<double>(members.size());
        std::printf("  mean slice %.1f%% (data-only %.1f%%, control "
                    "adds %.1f pts) over %s records\n",
                    mean_slice / n, mean_data / n,
                    (mean_slice - mean_data) / n,
                    withCommas(total_records).c_str());

        families_json += format(
            "%s\n  {\"family\": \"%s\", \"mean_slice_percent\": %.2f, "
            "\"mean_data_only_percent\": %.2f, "
            "\"mean_control_points\": %.2f, \"total_records\": %llu, "
            "\"total_trace_bytes\": %llu, \"mean_record_seconds\": "
            "%.3f, \"mean_slice_seconds\": %.3f, \"members\": %s}",
            first_family ? "" : ",", jsonEscape(setting.label).c_str(),
            mean_slice / n, mean_data / n, (mean_slice - mean_data) / n,
            static_cast<unsigned long long>(total_records),
            static_cast<unsigned long long>(total_bytes), mean_rec / n,
            mean_slice_s / n, members_json.c_str());
        first_family = false;
    }
    families_json += "\n]";

    writeMetricsReport(out_path, MetricRegistry::global(),
                       "scenario_sweep",
                       {{"families", families_json}},
                       "webslice-scenario-v1");
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
