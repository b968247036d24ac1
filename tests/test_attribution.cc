/**
 * @file
 * The backward pass's attribution tallies (SliceResult::byFunc and
 * byThread) against a record-by-record recount of its own verdicts:
 * both criteria modes, both ablation knobs, windows that cut through
 * calls, a multi-threaded generated scenario, and the kNoFunc slot.
 */

#include <gtest/gtest.h>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "scenario/generator.hh"
#include "scenario/run.hh"
#include "slicer/slicer.hh"
#include "tally_oracle.hh"

namespace webslice {
namespace {

using slicer::CriteriaMode;
using slicer::SliceResult;
using slicer::SlicerOptions;
using trace::RecordKind;

/** One generated, multi-threaded recording and its forward pass. */
struct GeneratedRun
{
    workloads::RunResult run;
    graph::CfgSet cfgs;
    graph::ControlDepMap deps;

    GeneratedRun()
    {
        scenario::Knobs knobs;
        knobs.domDepth = scenario::Level::Lo;
        knobs.cssVolume = scenario::Level::Lo;
        knobs.jsHotness = scenario::Level::Lo;
        knobs.images = scenario::Level::Lo;
        knobs.workers = 2;
        run = scenario::runScenario(scenario::generateScenario(11, knobs));
        cfgs = graph::buildCfgs(run.records(), run.machine->symtab());
        deps = graph::buildControlDeps(cfgs);
    }

    SliceResult
    slice(const SlicerOptions &options) const
    {
        return slicer::computeSlice(run.records(), cfgs, deps,
                                    run.machine->pixelCriteria(), options);
    }
};

const GeneratedRun &
generated()
{
    static const GeneratedRun instance;
    return instance;
}

/** The walk's tallies equal the recount of its own verdicts. */
void
expectTalliesMatchRecount(std::span<const trace::Record> records,
                          const graph::CfgSet &cfgs,
                          const SliceResult &slice)
{
    const auto recount = oracle::recountTallies(
        records, slice.inSlice, cfgs, slice.analyzedWindowEnd);
    EXPECT_EQ(recount.instructions, slice.instructionsAnalyzed);
    EXPECT_EQ(recount.sliced, slice.sliceInstructions);
    EXPECT_EQ(recount.byThread, slice.byThread);
    ASSERT_EQ(recount.byFunc.size(), slice.byFunc.size());
    for (size_t f = 0; f < slice.byFunc.size(); ++f) {
        EXPECT_EQ(recount.byFunc[f], slice.byFunc[f])
            << "function slot " << f;
    }
}

TEST(AttributionTallies, GeneratedScenarioIsMultiThreaded)
{
    const auto &g = generated();
    const auto slice = g.slice({});
    size_t busy_threads = 0;
    for (const auto &t : slice.byThread)
        busy_threads += t.total != 0;
    EXPECT_GE(busy_threads, 4u); // main, compositor, raster, workers
    EXPECT_GT(slice.sliceInstructions, 0u);
}

TEST(AttributionTallies, MatchRecountInEveryModeAndAblation)
{
    const auto &g = generated();
    for (const auto mode :
         {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
        for (const bool control : {true, false}) {
            for (const bool registers : {true, false}) {
                SCOPED_TRACE(::testing::Message()
                             << "mode " << static_cast<int>(mode)
                             << " control " << control << " registers "
                             << registers);
                SlicerOptions options;
                options.mode = mode;
                options.includeControlDeps = control;
                options.includeRegisterDeps = registers;
                expectTalliesMatchRecount(g.run.records(), g.cfgs,
                                          g.slice(options));
            }
        }
    }
}

TEST(AttributionTallies, MatchRecountWhenTheWindowCutsThroughCalls)
{
    // Windows ending just before a Ret leave its call open at the window
    // edge; windows ending just after one put the Call's late fix-up of
    // that Ret at the very last analyzed record.
    const auto &g = generated();
    const auto &records = g.run.records();
    std::vector<size_t> rets;
    for (size_t i = 0; i < records.size(); ++i)
        if (records[i].kind == RecordKind::Ret)
            rets.push_back(i);
    ASSERT_GT(rets.size(), 40u);

    size_t edge_fixups = 0;
    for (size_t k = 1; k <= 20; ++k) {
        const size_t ret = rets[k * (rets.size() - 1) / 20];
        for (const size_t end : {ret, ret + 1}) {
            for (const auto mode :
                 {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
                SCOPED_TRACE(::testing::Message()
                             << "end " << end << " mode "
                             << static_cast<int>(mode));
                SlicerOptions options;
                options.mode = mode;
                options.endIndex = end;
                const auto slice = g.slice(options);
                ASSERT_EQ(slice.analyzedWindowEnd, end);
                expectTalliesMatchRecount(records, g.cfgs, slice);
                edge_fixups += end == ret + 1 && slice.inSlice[ret];
            }
        }
    }
    // The sweep must actually exercise a Ret fix-up at the window edge.
    EXPECT_GT(edge_fixups, 0u);
}

TEST(AttributionTallies, NoFuncInstructionsLandInTheLastSlot)
{
    // The forward pass attributes only leading pseudo records to
    // kNoFunc; detach some real instructions so the slot is exercised.
    const auto &g = generated();
    graph::CfgSet cfgs = g.cfgs;
    const auto &records = g.run.records();
    uint64_t detached = 0;
    for (size_t i = 0; i < records.size(); i += 97) {
        if (records[i].isPseudo())
            continue;
        cfgs.funcOf[i] = trace::kNoFunc;
        ++detached;
    }
    SlicerOptions options;
    options.mode = CriteriaMode::Syscalls;
    const auto slice = slicer::computeSlice(
        records, cfgs, g.deps, g.run.machine->pixelCriteria(), options);
    expectTalliesMatchRecount(records, cfgs, slice);
    ASSERT_EQ(slice.funcAt(slice.byFunc.size() - 1), trace::kNoFunc);
    EXPECT_EQ(slice.byFunc.back().total, detached);

    // The slot stays uncategorized and reports under its own name.
    const auto dist = analysis::categorizeUnnecessary(
        slice, cfgs, g.run.machine->symtab(),
        analysis::Categorizer::chromiumDefault());
    EXPECT_GE(dist.uncategorized,
              slice.byFunc.back().total - slice.byFunc.back().slice);
    const auto functions = analysis::computeFunctionStats(
        slice, cfgs, g.run.machine->symtab());
    bool found = false;
    for (const auto &row : functions) {
        if (row.func != trace::kNoFunc)
            continue;
        found = true;
        EXPECT_EQ(row.name, cfgs.functionName(trace::kNoFunc,
                                              g.run.machine->symtab()));
        EXPECT_EQ(row.totalInstructions, detached);
    }
    EXPECT_TRUE(found);
}

TEST(AttributionTallies, ReportsAggregateTheTallies)
{
    const auto &g = generated();
    const auto slice = g.slice({});
    const auto names = g.run.threadNames();

    const auto threads = analysis::computeThreadStats(slice, names);
    EXPECT_EQ(threads.all.totalInstructions, slice.instructionsAnalyzed);
    EXPECT_EQ(threads.all.sliceInstructions, slice.sliceInstructions);
    ASSERT_EQ(threads.perThread.size(), slice.byThread.size());
    for (size_t t = 0; t < threads.perThread.size(); ++t) {
        EXPECT_EQ(threads.perThread[t].name, names[t]);
        EXPECT_EQ(threads.perThread[t].totalInstructions,
                  slice.byThread[t].total);
    }

    uint64_t total = 0, sliced = 0;
    for (const auto &row : analysis::computeFunctionStats(
             slice, g.cfgs, g.run.machine->symtab())) {
        total += row.totalInstructions;
        sliced += row.sliceInstructions;
    }
    EXPECT_EQ(total, slice.instructionsAnalyzed);
    EXPECT_EQ(sliced, slice.sliceInstructions);

    const auto dist = analysis::categorizeUnnecessary(
        slice, g.cfgs, g.run.machine->symtab(),
        analysis::Categorizer::chromiumDefault());
    EXPECT_EQ(dist.totalUnnecessary,
              slice.instructionsAnalyzed - slice.sliceInstructions);
}

TEST(AttributionTallies, ForeignFunctionIdsFailLoudly)
{
    const auto &g = generated();
    graph::CfgSet cfgs = g.cfgs;
    const trace::FuncId past_end =
        cfgs.firstSynthetic +
        static_cast<trace::FuncId>(cfgs.syntheticNames.size());
    const auto &records = g.run.records();
    size_t victim = records.size() / 2;
    while (records[victim].isPseudo())
        ++victim;
    cfgs.funcOf[victim] = past_end;
    EXPECT_DEATH(slicer::computeSlice(records, cfgs, g.deps,
                                      g.run.machine->pixelCriteria()),
                 "outside the forward pass's");
}

} // namespace
} // namespace webslice
