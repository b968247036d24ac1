/**
 * @file
 * webslice-perfbench: drives webslice's public module functions for the
 * benchmark described in BENCHMARK.json.
 *
 *   webslice-perfbench pass --out-dir D --criteria pixel|syscalls
 *                      [--spans 0|1] [--chrome-trace F] [--verify 0|1]
 *                      [--corrupt-oracle 0|1] [--keep 0|1] [--id N]
 *                      [--setup-only 0|1]
 *                      FILE.scn...
 *   webslice-perfbench generate --seed N --out-dir D
 *   webslice-perfbench mix --socket S --seed N --seconds T --clients C
 *                      --recording PREFIX,RECORDS,WINDOW...
 *                      --replies F
 *   webslice-perfbench check-mix --replies F [--expect KEY=DIGEST]...
 *                      [--corrupt-oracle 0|1]
 *
 * perfbench/run.py is the entry point; these subcommands are its child
 * processes, so every pass starts with cold process-wide caches.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "commands.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace perfbench {

Args
Args::parse(int argc, char **argv, int first)
{
    Args args;
    for (int a = first; a < argc; ++a) {
        if (std::strncmp(argv[a], "--", 2) == 0) {
            fatal_if(a + 1 >= argc, argv[a], " requires a value");
            args.flags.emplace(argv[a] + 2, argv[a + 1]);
            ++a;
        } else {
            args.positional.emplace_back(argv[a]);
        }
    }
    return args;
}

std::string
Args::get(const std::string &flag) const
{
    const auto it = flags.find(flag);
    fatal_if(it == flags.end(), "missing --", flag);
    return it->second;
}

std::string
Args::get(const std::string &flag, const std::string &fallback) const
{
    const auto it = flags.find(flag);
    return it == flags.end() ? fallback : it->second;
}

uint64_t
Args::number(const std::string &flag, uint64_t fallback) const
{
    const auto it = flags.find(flag);
    if (it == flags.end())
        return fallback;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(it->second.c_str(), &end, 0);
    fatal_if(end == it->second.c_str() || *end != '\0',
             "non-numeric --", flag, ": '", it->second, "'");
    return value;
}

std::vector<std::string>
Args::all(const std::string &flag) const
{
    std::vector<std::string> values;
    const auto [lo, hi] = flags.equal_range(flag);
    for (auto it = lo; it != hi; ++it)
        values.push_back(it->second);
    return values;
}

webslice::slicer::CriteriaMode
parseMode(const std::string &text)
{
    if (text == "pixel")
        return webslice::slicer::CriteriaMode::PixelBuffer;
    fatal_if(text != "syscalls", "criteria must be pixel or syscalls, got '",
             text, "'");
    return webslice::slicer::CriteriaMode::Syscalls;
}

const char *
modeName(webslice::slicer::CriteriaMode mode)
{
    return mode == webslice::slicer::CriteriaMode::PixelBuffer ? "pixel"
                                                               : "syscalls";
}

uint64_t
sliceDigest(const webslice::slicer::SliceResult &slice)
{
    return webslice::fnv1a64(slice.inSlice.data(), slice.inSlice.size());
}

int
forwardJobs()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s pass|generate|mix|check-mix [flags]\n",
                     argv[0]);
        return 1;
    }
    const std::string cmd = argv[1];
    const Args args = Args::parse(argc, argv, 2);
    if (cmd == "pass")
        return runPass(args);
    if (cmd == "generate")
        return runGenerate(args);
    if (cmd == "mix")
        return runMix(args);
    if (cmd == "check-mix")
        return runCheckMix(args);
    std::fprintf(stderr, "%s: unknown subcommand '%s'\n", argv[0],
                 cmd.c_str());
    return 1;
}
