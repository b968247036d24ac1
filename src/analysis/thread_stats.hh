/**
 * @file
 * Per-thread slice statistics — the data behind the paper's Table II
 * (pixels-slice percentage and total instructions for All / Main /
 * Compositor / Rasterizer threads). The backward pass counts them as it
 * walks (SliceResult::byThread); this names and totals them.
 */

#ifndef WEBSLICE_ANALYSIS_THREAD_STATS_HH
#define WEBSLICE_ANALYSIS_THREAD_STATS_HH

#include <span>
#include <string>
#include <vector>

#include "slicer/slicer.hh"

namespace webslice {
namespace analysis {

/** Instruction totals for one thread. */
struct ThreadSliceStats
{
    trace::ThreadId tid = 0;
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

/** Aggregate over all threads plus the per-thread breakdown. */
struct SliceBreakdown
{
    ThreadSliceStats all;
    std::vector<ThreadSliceStats> perThread; ///< Indexed by tid.
};

/**
 * Per-thread instruction and slice counts of one backward pass, over
 * the window it analyzed. O(threads).
 *
 * @param slice        the pass's result (its byThread tallies)
 * @param thread_names optional names indexed by tid (shorter is fine)
 */
SliceBreakdown
computeThreadStats(const slicer::SliceResult &slice,
                   std::span<const std::string> thread_names = {});

} // namespace analysis
} // namespace webslice

#endif // WEBSLICE_ANALYSIS_THREAD_STATS_HH
