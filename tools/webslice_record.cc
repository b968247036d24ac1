/**
 * @file
 * webslice-record: run a benchmark session and write its artifacts —
 * the trace, symbol table, criteria sidecar, and a metadata file — the
 * same hand-off the paper's Pin tool performs for the offline profiler.
 *
 *   webslice-record <benchmark> <output-prefix> [--values] [--format=F]
 *   webslice-record --list
 *
 *   benchmark: one of the built-in workloads (--list enumerates them,
 *   one id per line).
 *
 * Writes <prefix>.trc (records), <prefix>.sym (symbols), <prefix>.crit
 * (pixel criteria), <prefix>.meta (thread names + load-complete index).
 * With --values, also <prefix>.val — the value log (one written value
 * per record plus criterion snapshots) that lets webslice-check compare
 * slice replays bit-for-bit. --format selects the trace encoding: v1
 * (default) is the flat record array, v2 the columnar compressed format
 * (the value log follows suit). The trace is always published
 * atomically: written to <prefix>.trc.tmp and renamed into place after
 * an fsync, so a crash mid-record never leaves a loadable truncation.
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/strings.hh"
#include "trace/trace_file.hh"
#include "scenario/run.hh"
#include "workloads/sites.hh"

using namespace webslice;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <benchmark> <output-prefix> [--values] "
                 "[--format=v1|v2]\n"
                 "       %s --list\n"
                 "  benchmark: a built-in workload id (--list "
                 "enumerates them)\n"
                 "  --values: record the value log (<prefix>.val) for "
                 "webslice-check\n"
                 "  --format: trace encoding; v1 = flat records "
                 "(default), v2 = columnar compressed\n",
                 argv0, argv0);
}

int
listBuiltins()
{
    for (const auto &site : workloads::builtinSites())
        std::printf("%s\n", site.id);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list") == 0)
        return listBuiltins();
    if (argc < 3) {
        usage(argv[0]);
        return 1;
    }
    bool capture_values = false;
    trace::TraceFormat format = trace::TraceFormat::V1;
    for (int a = 3; a < argc; ++a) {
        if (std::strcmp(argv[a], "--values") == 0) {
            capture_values = true;
        } else if (std::strcmp(argv[a], "--format=v1") == 0) {
            format = trace::TraceFormat::V1;
        } else if (std::strcmp(argv[a], "--format=v2") == 0) {
            format = trace::TraceFormat::V2;
        } else {
            usage(argv[0]);
            return 1;
        }
    }

    const workloads::BuiltinSite *builtin =
        workloads::findBuiltinSite(argv[1]);
    if (!builtin) {
        std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n",
                     argv[1]);
        usage(argv[0]);
        return 1;
    }
    workloads::SiteSpec spec = builtin->factory();

    spec.captureValues = capture_values;
    std::fprintf(stderr, "recording '%s'...\n", spec.name.c_str());
    const auto run = scenario::runSite(spec);

    const std::string prefix = argv[2];
    {
        // Write through TraceWriter with the block index enabled so
        // readers can size and seek ranges by block without scanning
        // the file. Atomic publication (temp file + fsync + rename) keeps a crashed
        // recording from leaving a half-written <prefix>.trc behind.
        trace::TraceWriter writer(prefix + ".trc", /*block_index=*/true,
                                  format, /*atomic=*/true);
        for (const auto &rec : run.records())
            writer.append(rec);
        writer.close();
    }
    run.machine->symtab().save(prefix + ".sym");
    run.machine->pixelCriteria().save(prefix + ".crit");
    if (capture_values) {
        const auto value_format = format == trace::TraceFormat::V2
                                      ? trace::ValueLogFormat::V2
                                      : trace::ValueLogFormat::V1;
        run.machine->valueLog()->save(prefix + ".val", value_format,
                                      run.records(),
                                      run.machine->pixelCriteria());
    }

    std::ofstream meta(prefix + ".meta");
    if (!meta) {
        std::fprintf(stderr, "cannot write %s.meta\n", prefix.c_str());
        return 1;
    }
    meta << "benchmark " << spec.name << '\n';
    meta << "loadCompleteIndex " << run.loadCompleteIndex << '\n';
    meta << "loadOnly "
         << (spec.actions.empty() && spec.lazyJsBytes == 0 ? 1 : 0)
         << '\n';
    const auto thread_names = run.threadNames();
    for (size_t t = 0; t < thread_names.size(); ++t)
        meta << "thread " << t << ' ' << thread_names[t] << '\n';

    std::fprintf(stderr,
                 "wrote %s.{trc,sym,crit,meta%s}: %s records, %zu "
                 "markers, load complete at index %s\n",
                 prefix.c_str(), capture_values ? ",val" : "",
                 withCommas(run.records().size()).c_str(),
                 run.machine->pixelCriteria().markerCount(),
                 withCommas(run.loadCompleteIndex).c_str());
    return 0;
}
