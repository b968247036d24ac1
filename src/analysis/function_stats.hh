/**
 * @file
 * Per-function slice attribution: for every traced function, how many of
 * its dynamic instructions joined the slice. This is the function-level
 * "distribution of instructions of the slice" output the paper's profiler
 * design (Section III) lists, and the main debugging lens on dependence
 * chains. The backward pass counts per function id as it walks
 * (SliceResult::byFunc); this names, merges and ranks them.
 */

#ifndef WEBSLICE_ANALYSIS_FUNCTION_STATS_HH
#define WEBSLICE_ANALYSIS_FUNCTION_STATS_HH

#include <string>
#include <vector>

#include "graph/cfg.hh"
#include "slicer/slicer.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace analysis {

/** Instruction totals for one function. */
struct FunctionSliceStats
{
    /** The lowest id among the functions merged under `name`. */
    trace::FuncId func = trace::kNoFunc;
    std::string name;
    uint64_t totalInstructions = 0;
    uint64_t sliceInstructions = 0;

    double
    slicePercent() const
    {
        if (totalInstructions == 0)
            return 0.0;
        return 100.0 * static_cast<double>(sliceInstructions) /
               static_cast<double>(totalInstructions);
    }
};

/**
 * Per-function totals of one backward pass over the window it analyzed,
 * sorted by total instructions descending, ties by name. Functions with
 * the same qualified name (e.g. per-tag mutex instances) are merged.
 * O(functions).
 */
std::vector<FunctionSliceStats>
computeFunctionStats(const slicer::SliceResult &slice,
                     const graph::CfgSet &cfgs,
                     const trace::SymbolTable &symtab);

} // namespace analysis
} // namespace webslice

#endif // WEBSLICE_ANALYSIS_FUNCTION_STATS_HH
