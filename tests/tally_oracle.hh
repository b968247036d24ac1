/**
 * @file
 * Record-by-record recount of the backward pass's attribution tallies
 * (SliceResult::byFunc / byThread). The tests hold the walk's tallies to
 * this independent reference, and use it to give hand-written verdicts
 * the tallies a real pass would have produced.
 */

#ifndef WEBSLICE_TESTS_TALLY_ORACLE_HH
#define WEBSLICE_TESTS_TALLY_ORACLE_HH

#include <algorithm>
#include <span>
#include <vector>

#include "graph/cfg.hh"
#include "slicer/slicer.hh"
#include "trace/record.hh"

namespace webslice {
namespace oracle {

/** Tallies recounted from records, verdicts and per-record functions. */
struct Recount
{
    std::vector<slicer::SliceTally> byFunc;
    std::vector<slicer::SliceTally> byThread;
    uint64_t instructions = 0;
    uint64_t sliced = 0;
};

/**
 * Recount over records [0, end): every non-pseudo record adds to its
 * thread's and its function's total, and to their slice count when its
 * verdict is set. Function slots follow SliceResult::byFunc: one per
 * forward-pass id, then one for kNoFunc. An empty `cfgs.funcOf` puts
 * every record in the kNoFunc slot.
 */
inline Recount
recountTallies(std::span<const trace::Record> records,
               std::span<const uint8_t> in_slice, const graph::CfgSet &cfgs,
               size_t end = SIZE_MAX)
{
    const size_t func_ids =
        cfgs.firstSynthetic == trace::kNoFunc
            ? 0
            : cfgs.firstSynthetic + cfgs.syntheticNames.size();
    Recount out;
    out.byFunc.resize(func_ids + 1);
    end = std::min(end, records.size());
    for (size_t i = 0; i < end; ++i) {
        const trace::Record &rec = records[i];
        if (rec.isPseudo())
            continue;
        const uint64_t sliced = in_slice[i] ? 1 : 0;
        if (rec.tid >= out.byThread.size())
            out.byThread.resize(rec.tid + 1);
        out.byThread[rec.tid].total += 1;
        out.byThread[rec.tid].slice += sliced;
        const trace::FuncId func =
            cfgs.funcOf.empty() ? trace::kNoFunc : cfgs.funcOf[i];
        auto &by_func = out.byFunc[func == trace::kNoFunc ? func_ids : func];
        by_func.total += 1;
        by_func.slice += sliced;
        out.instructions += 1;
        out.sliced += sliced;
    }
    return out;
}

/**
 * A SliceResult for hand-written verdicts over records [0, end), with
 * the totals and tallies a backward pass over that window would report.
 */
inline slicer::SliceResult
sliceFromVerdicts(std::span<const trace::Record> records,
                  std::span<const uint8_t> verdicts,
                  const graph::CfgSet &cfgs = {}, size_t end = SIZE_MAX)
{
    Recount recount = recountTallies(records, verdicts, cfgs, end);
    slicer::SliceResult slice;
    slice.inSlice.assign(verdicts.begin(), verdicts.end());
    slice.analyzedWindowEnd = std::min(end, records.size());
    slice.instructionsAnalyzed = recount.instructions;
    slice.sliceInstructions = recount.sliced;
    slice.byFunc = std::move(recount.byFunc);
    slice.byThread = std::move(recount.byThread);
    return slice;
}

} // namespace oracle
} // namespace webslice

#endif // WEBSLICE_TESTS_TALLY_ORACLE_HH
