#include "analysis/thread_stats.hh"

namespace webslice {
namespace analysis {

SliceBreakdown
computeThreadStats(const slicer::SliceResult &slice,
                   std::span<const std::string> thread_names)
{
    SliceBreakdown out;
    out.all.name = "All";
    out.perThread.resize(slice.byThread.size());
    for (size_t tid = 0; tid < slice.byThread.size(); ++tid) {
        auto &stats = out.perThread[tid];
        stats.tid = static_cast<trace::ThreadId>(tid);
        if (tid < thread_names.size())
            stats.name = thread_names[tid];
        stats.totalInstructions = slice.byThread[tid].total;
        stats.sliceInstructions = slice.byThread[tid].slice;
        out.all.totalInstructions += stats.totalInstructions;
        out.all.sliceInstructions += stats.sliceInstructions;
    }
    return out;
}

} // namespace analysis
} // namespace webslice
