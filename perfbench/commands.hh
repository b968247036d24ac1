/**
 * @file
 * Subcommands of webslice-perfbench, the compiled half of the benchmark
 * (run.py is the other half: it builds, spawns, times and aggregates).
 * Each subcommand prints one JSON object on its last stdout line.
 */

#ifndef WEBSLICE_PERFBENCH_COMMANDS_HH
#define WEBSLICE_PERFBENCH_COMMANDS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "slicer/slicer.hh"

namespace perfbench {

/** `--flag value` pairs (repeatable) plus bare positional arguments. */
struct Args
{
    std::multimap<std::string, std::string> flags;
    std::vector<std::string> positional;

    /** Parse argv[first..]; every `--x` takes exactly one value. */
    static Args parse(int argc, char **argv, int first);

    /** The single value of `flag`; fatal when absent and no fallback. */
    std::string get(const std::string &flag) const;
    std::string get(const std::string &flag,
                    const std::string &fallback) const;
    uint64_t number(const std::string &flag, uint64_t fallback) const;
    std::vector<std::string> all(const std::string &flag) const;
};

/** "pixel" | "syscalls" -> criteria mode; fatal otherwise. */
webslice::slicer::CriteriaMode parseMode(const std::string &text);
const char *modeName(webslice::slicer::CriteriaMode mode);

/** FNV-1a-64 of a slice's per-record verdict bytes. */
uint64_t sliceDigest(const webslice::slicer::SliceResult &slice);

/** Worker threads for the forward pass: every hardware thread. */
int forwardJobs();

/** One offline pass: .scn files -> artifacts -> slice -> report. */
int runPass(const Args &args);

/** Write the seeded synth-family scenario set (18 scenarios). */
int runGenerate(const Args &args);

/** The service-mix closed loop against a running webslice-served. */
int runMix(const Args &args);

/** Untimed oracle check of the replies the mix recorded. */
int runCheckMix(const Args &args);

} // namespace perfbench

#endif // WEBSLICE_PERFBENCH_COMMANDS_HH
