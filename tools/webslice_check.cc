/**
 * @file
 * webslice-check: the verification layer's front end.
 *
 *   webslice-check <prefix> [--syscalls] [--no-window] [--end N]
 *                  [--probes N] [--fail-on-race]
 *                  [--cdg FILE] [--dump-cdg FILE] [--metrics-json FILE]
 *
 * Reads the artifacts recorded by webslice-record (<prefix>.trc/.sym/
 * .crit/.meta, plus <prefix>.val when present) and runs three independent
 * passes over them:
 *
 *  1. the graph linter — CFG well-formedness, an independent re-derivation
 *     of the forward pass diffed edge-by-edge, a naive postdominator
 *     reference diffed against the production algorithm, and a
 *     control-dependence cross-check;
 *  2. the slice soundness checker — a forward provenance replay proving
 *     that re-executing only in-slice instructions reproduces every
 *     criterion bit-identically, plus drop-one minimality probes;
 *  3. the trace race detector — vector-clock happens-before over the
 *     per-thread streams, reporting conflicting accesses not ordered by
 *     any futex or channel synchronization;
 *  4. the containment invariant — a full static dependence analysis over
 *     the same CFGs (staticdep/) whose backward slice must contain every
 *     dynamic-slice instruction; a violation names the offending pc and
 *     the dynamic edge chain the static analysis failed to cover.
 *
 * Verification findings exit 2 with pointed diagnostics; races are
 * reported as evidence (the simulated browser's spinning mutexes make
 * them expected) and only affect the exit code under --fail-on-race.
 * --metrics-json writes the machine-readable webslice-check-v1 report.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "check/containment.hh"
#include "check/graph_lint.hh"
#include "check/race.hh"
#include "check/soundness.hh"
#include "staticdep/slice.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "trace/artifacts.hh"
#include "trace/run_meta.hh"
#include "trace/trace_file.hh"
#include "trace/value_log.hh"

using namespace webslice;

namespace {

constexpr char kUsage[] =
    "usage: %s <prefix> [--syscalls] [--no-window] [--end N]\n"
    "       [--probes N] [--fail-on-race] [--cdg FILE] [--dump-cdg FILE]\n"
    "       [--metrics-json FILE]\n"
    "\n"
    "  --syscalls            verify the syscall-criteria slice instead of\n"
    "                        the pixel-buffer slice\n"
    "  --no-window           ignore the metadata load-complete window\n"
    "  --end N               analyze records [0, N) regardless of metadata\n"
    "  --probes N            drop-one minimality probes (default 2)\n"
    "  --fail-on-race        exit nonzero when data races are detected\n"
    "  --cdg FILE            audit this control-dependence map instead of\n"
    "                        recomputing one\n"
    "  --dump-cdg FILE       save the computed control-dependence map\n"
    "  --metrics-json FILE   write the webslice-check-v1 report\n";

/**
 * Parse a non-negative decimal integer flag value; anything else — empty,
 * negative, non-numeric, trailing garbage, or out of range — is a usage
 * error that exits 1.
 */
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

std::string
findingsJson(const check::Findings &findings)
{
    std::ostringstream out;
    out << "{\"total\": " << findings.total << ", \"messages\": [";
    for (size_t i = 0; i < findings.messages.size(); ++i) {
        if (i)
            out << ", ";
        out << "\"" << jsonEscape(findings.messages[i]) << "\"";
    }
    out << "]}";
    return out.str();
}

std::string
graphLintJson(const check::GraphLintResult &lint)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"ok\": " << (lint.ok() ? "true" : "false") << ",\n"
        << "    \"cfgs_checked\": " << lint.cfgsChecked << ",\n"
        << "    \"nodes_checked\": " << lint.nodesChecked << ",\n"
        << "    \"edges_checked\": " << lint.edgesChecked << ",\n"
        << "    \"transitions_replayed\": " << lint.transitionsReplayed
        << ",\n"
        << "    \"postdom_nodes_diffed\": " << lint.postdomNodesDiffed
        << ",\n"
        << "    \"postdom_skipped_cfgs\": " << lint.postdomSkippedCfgs
        << ",\n"
        << "    \"dep_pairs_checked\": " << lint.depPairsChecked << ",\n"
        << "    \"findings\": " << findingsJson(lint.findings) << "\n  }";
    return out.str();
}

std::string
soundnessJson(const check::SoundnessResult &sound, bool had_values)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"ok\": " << (sound.ok() ? "true" : "false") << ",\n"
        << "    \"records_replayed\": " << sound.recordsReplayed << ",\n"
        << "    \"in_slice_replayed\": " << sound.inSliceReplayed << ",\n"
        << "    \"criteria_bytes_checked\": " << sound.criteriaBytesChecked
        << ",\n"
        << "    \"criteria_bytes_pristine\": "
        << sound.criteriaBytesPristine << ",\n"
        << "    \"value_log_present\": " << (had_values ? "true" : "false")
        << ",\n"
        << "    \"value_bytes_compared\": " << sound.valueBytesCompared
        << ",\n"
        << "    \"probes_run\": " << sound.probesRun << ",\n"
        << "    \"probes_confirmed\": " << sound.probesConfirmed << ",\n"
        << "    \"findings\": " << findingsJson(sound.findings) << "\n  }";
    return out.str();
}

std::string
racesJson(const check::RaceResult &races)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"accesses_checked\": " << races.accessesChecked << ",\n"
        << "    \"granules_tracked\": " << races.granulesTracked << ",\n"
        << "    \"acquires\": " << races.acquires << ",\n"
        << "    \"releases\": " << races.releases << ",\n"
        << "    \"write_write_races\": " << races.writeWriteRaces << ",\n"
        << "    \"read_write_races\": " << races.readWriteRaces << ",\n"
        << "    \"racy_pc_pairs\": " << races.racyPcPairs << ",\n"
        << "    \"samples\": [";
    for (size_t i = 0; i < races.samples.size(); ++i) {
        if (i)
            out << ", ";
        out << "\"" << jsonEscape(races.samples[i]) << "\"";
    }
    out << "],\n"
        << "    \"findings\": " << findingsJson(races.findings) << "\n  }";
    return out.str();
}

std::string
containmentJson(const check::ContainmentResult &containment,
                const staticdep::StaticSliceResult &static_slice)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"ok\": " << (containment.ok() ? "true" : "false") << ",\n"
        << "    \"instructions_checked\": "
        << containment.instructionsChecked << ",\n"
        << "    \"in_slice_checked\": " << containment.inSliceChecked
        << ",\n"
        << "    \"violations\": " << containment.violations << ",\n"
        << "    \"static_sites\": " << static_slice.siteUniverse << ",\n"
        << "    \"static_included\": " << static_slice.includedSites
        << ",\n"
        << "    \"static_data_edges\": " << static_slice.dataEdges << ",\n"
        << "    \"static_control_edges\": " << static_slice.controlEdges
        << ",\n"
        << "    \"static_call_edges\": " << static_slice.callEdges << ",\n"
        << "    \"findings\": " << findingsJson(containment.findings)
        << "\n  }";
    return out.str();
}

void
printFindings(const check::Findings &findings)
{
    for (const std::string &message : findings.messages)
        std::printf("    %s\n", message.c_str());
    if (findings.total > findings.messages.size()) {
        std::printf("    ... and %llu more\n",
                    static_cast<unsigned long long>(
                        findings.total - findings.messages.size()));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }
    const std::string prefix = argv[1];
    if (!prefix.empty() && prefix[0] == '-') {
        std::fprintf(stderr, "%s: first argument must be the artifact "
                             "prefix, got flag '%s'\n",
                     argv[0], prefix.c_str());
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }

    slicer::SlicerOptions slice_options;
    bool use_window = true;
    bool fail_on_race = false;
    size_t end_override = SIZE_MAX;
    size_t probes = 2;
    std::string cdg_in, cdg_out, metrics_json;
    for (int a = 2; a < argc; ++a) {
        const auto need_value = [&](const char *flag) -> const char * {
            fatal_if(a + 1 >= argc, flag, " requires a value");
            return argv[++a];
        };
        if (!std::strcmp(argv[a], "--syscalls")) {
            slice_options.mode = slicer::CriteriaMode::Syscalls;
        } else if (!std::strcmp(argv[a], "--no-window")) {
            use_window = false;
        } else if (!std::strcmp(argv[a], "--end")) {
            end_override = static_cast<size_t>(
                parseCount("--end", need_value("--end"), SIZE_MAX));
        } else if (!std::strcmp(argv[a], "--probes")) {
            probes = static_cast<size_t>(parseCount(
                "--probes", need_value("--probes"), 1u << 20));
        } else if (!std::strcmp(argv[a], "--fail-on-race")) {
            fail_on_race = true;
        } else if (!std::strcmp(argv[a], "--cdg")) {
            cdg_in = need_value("--cdg");
        } else if (!std::strcmp(argv[a], "--dump-cdg")) {
            cdg_out = need_value("--dump-cdg");
        } else if (!std::strcmp(argv[a], "--metrics-json")) {
            metrics_json = need_value("--metrics-json");
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                         argv[a]);
            std::fprintf(stderr, kUsage, argv[0]);
            return 1;
        }
    }

    // ---- load artifacts ----------------------------------------------------
    trace::ArtifactSidecars sidecars;
    trace::ValueLog values;
    bool have_values = false;
    std::unique_ptr<trace::MappedTrace> mapped;
    {
        ScopedPhase phase("load");
        sidecars = trace::loadArtifactSidecars(prefix);
        mapped = std::make_unique<trace::MappedTrace>(prefix + ".trc");
        const std::string value_path = prefix + ".val";
        if (std::ifstream(value_path).good()) {
            // The records overload handles both sidecar formats; v2
            // reconstructs marker snapshots by checkpointed replay.
            values.load(value_path, mapped->records());
            have_values = true;
        }
    }
    trace::SymbolTable &symtab = sidecars.symtab;
    trace::CriteriaSet &criteria = sidecars.criteria;
    trace::RunMeta &meta = sidecars.meta;
    const auto records = mapped->records();

    size_t window = records.size();
    if (use_window && meta.loadOnly && meta.loadCompleteIndex != SIZE_MAX)
        window = std::min(window, meta.loadCompleteIndex);
    if (end_override != SIZE_MAX)
        window = std::min(window, end_override);
    slice_options.endIndex = window;

    std::printf("%s: %s, %zu records, window %zu\n", prefix.c_str(),
                meta.benchmark.empty() ? "(no metadata)"
                                       : meta.benchmark.c_str(),
                records.size(), window);

    // ---- pass 1: graph linter ----------------------------------------------
    graph::CfgSet cfgs;
    graph::ControlDepMap deps;
    check::GraphLintResult lint;
    {
        ScopedPhase phase("graph-lint");
        cfgs = graph::buildCfgs(records, symtab);
        if (cdg_in.empty())
            deps = graph::buildControlDeps(cfgs);
        else
            deps.load(cdg_in);
        if (!cdg_out.empty())
            deps.save(cdg_out);
        lint = check::lintGraphs(records, symtab, cfgs, &deps);
    }
    std::printf("graph lint: %s — %llu cfgs, %llu edges, %llu "
                "transitions replayed, %llu postdom nodes diffed, %llu "
                "dependence pairs\n",
                lint.ok() ? "clean"
                          : format("%llu findings",
                                   static_cast<unsigned long long>(
                                       lint.findings.total))
                                .c_str(),
                static_cast<unsigned long long>(lint.cfgsChecked),
                static_cast<unsigned long long>(lint.edgesChecked),
                static_cast<unsigned long long>(lint.transitionsReplayed),
                static_cast<unsigned long long>(lint.postdomNodesDiffed),
                static_cast<unsigned long long>(lint.depPairsChecked));
    printFindings(lint.findings);

    // ---- pass 2: slice + soundness replay ----------------------------------
    slicer::SliceResult slice;
    {
        ScopedPhase phase("slice");
        slice = slicer::computeSlice(records, cfgs, deps, criteria,
                                     slice_options);
    }
    check::SoundnessResult sound;
    {
        ScopedPhase phase("soundness");
        check::SoundnessOptions sound_options;
        sound_options.mode = slice_options.mode;
        sound_options.minimalityProbes = probes;
        sound = check::checkSliceSoundness(
            records, slice, criteria, have_values ? &values : nullptr,
            sound_options);
    }
    std::printf("soundness (%s): %s — %llu in-slice of %llu replayed, "
                "%llu criterion bytes (%llu pristine), %llu value bytes "
                "compared, %llu/%llu probes confirmed\n",
                slice_options.mode == slicer::CriteriaMode::PixelBuffer
                    ? "pixel buffers"
                    : "system calls",
                sound.ok() ? "clean"
                           : format("%llu findings",
                                    static_cast<unsigned long long>(
                                        sound.findings.total))
                                 .c_str(),
                static_cast<unsigned long long>(sound.inSliceReplayed),
                static_cast<unsigned long long>(sound.recordsReplayed),
                static_cast<unsigned long long>(sound.criteriaBytesChecked),
                static_cast<unsigned long long>(
                    sound.criteriaBytesPristine),
                static_cast<unsigned long long>(sound.valueBytesCompared),
                static_cast<unsigned long long>(sound.probesConfirmed),
                static_cast<unsigned long long>(sound.probesRun));
    printFindings(sound.findings);

    // ---- pass 3: race detector ---------------------------------------------
    check::RaceResult races;
    {
        ScopedPhase phase("races");
        check::RaceOptions race_options;
        race_options.windowEnd = window;
        races = check::detectRaces(records, race_options);
    }
    std::printf("races: %llu write/write, %llu read/write across %llu pc "
                "pairs (%llu accesses, %llu granules, %llu acquires)%s\n",
                static_cast<unsigned long long>(races.writeWriteRaces),
                static_cast<unsigned long long>(races.readWriteRaces),
                static_cast<unsigned long long>(races.racyPcPairs),
                static_cast<unsigned long long>(races.accessesChecked),
                static_cast<unsigned long long>(races.granulesTracked),
                static_cast<unsigned long long>(races.acquires),
                races.anyRaces()
                    ? " — unordered conflicts are evidence for the "
                      "serialized-replay assumption"
                    : "");
    for (const std::string &sample : races.samples)
        std::printf("    %s\n", sample.c_str());
    printFindings(races.findings);

    // ---- pass 4: static slice containment ----------------------------------
    staticdep::StaticSliceResult static_slice;
    check::ContainmentResult containment;
    {
        ScopedPhase phase("containment");
        staticdep::ModelOptions model_options;
        model_options.endIndex = window;
        const staticdep::StaticAnalysis static_analysis =
            staticdep::buildStaticAnalysis(records, cfgs, deps,
                                           model_options);
        staticdep::StaticSliceOptions static_options;
        static_options.mode = slice_options.mode;
        static_options.includeControlDeps =
            slice_options.includeControlDeps;
        static_options.includeRegisterDeps =
            slice_options.includeRegisterDeps;
        static_slice = staticdep::computeStaticSlice(static_analysis,
                                                     criteria,
                                                     static_options);
        staticdep::publishStaticSliceMetrics(static_slice);
        containment = check::checkContainment(records, cfgs, symtab, slice,
                                              static_slice);
    }
    std::printf("containment: %s — %llu in-slice of %llu instructions "
                "inside a static slice of %llu/%llu sites (%.1f%%)\n",
                containment.ok()
                    ? "dynamic ⊆ static"
                    : format("%llu violations",
                             static_cast<unsigned long long>(
                                 containment.violations))
                          .c_str(),
                static_cast<unsigned long long>(
                    containment.inSliceChecked),
                static_cast<unsigned long long>(
                    containment.instructionsChecked),
                static_cast<unsigned long long>(
                    static_slice.includedSites),
                static_cast<unsigned long long>(static_slice.siteUniverse),
                static_slice.slicePercent());
    printFindings(containment.findings);

    if (!metrics_json.empty()) {
        const std::vector<std::pair<std::string, std::string>> extras = {
            {"graph_lint", graphLintJson(lint)},
            {"soundness", soundnessJson(sound, have_values)},
            {"races", racesJson(races)},
            {"containment", containmentJson(containment, static_slice)},
            {"artifacts",
             trace::artifactDigestsJson(prefix, /*include_values=*/true)},
        };
        writeMetricsReport(metrics_json, MetricRegistry::global(),
                           "webslice-check", extras,
                           "webslice-check-v1");
    }

    const uint64_t violations = lint.findings.total +
                                sound.findings.total +
                                races.findings.total +
                                containment.findings.total;
    if (violations > 0) {
        std::fprintf(stderr, "webslice-check: %llu violations\n",
                     static_cast<unsigned long long>(violations));
        return 2;
    }
    if (fail_on_race && races.anyRaces()) {
        std::fprintf(stderr, "webslice-check: data races detected and "
                             "--fail-on-race given\n");
        return 2;
    }
    std::printf("webslice-check: all invariants hold\n");
    return 0;
}
