/**
 * @file
 * Tests for the newer analysis pieces: per-function slice attribution
 * (merging, ordering), windowed categorization, and the progress series
 * against hand-computed references.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/progress.hh"
#include "analysis/report.hh"
#include "graph/cfg.hh"
#include "sim/machine.hh"
#include "tally_oracle.hh"

namespace webslice {
namespace analysis {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using oracle::sliceFromVerdicts;
using sim::Value;

struct TwoFunctionTrace
{
    Machine machine;
    graph::CfgSet cfgs;
    std::vector<uint8_t> verdicts;
    /** The verdicts as a backward pass over the whole trace reports
     *  them (totals and tallies). */
    slicer::SliceResult slice;

    TwoFunctionTrace()
    {
        const auto tid = machine.addThread("main");
        const auto hot = machine.registerFunction("v8::hot");
        const auto cold = machine.registerFunction("debug::cold");
        Ctx ctx(machine, tid);
        {
            TracedScope scope(ctx, hot);
            for (int i = 0; i < 6; ++i) {
                Value v = ctx.imm(i);
                (void)v;
            }
        }
        {
            TracedScope scope(ctx, cold);
            Value v = ctx.imm(9);
            (void)v;
        }
        {
            // Second instance of the same name merges into one row.
            TracedScope scope(ctx, hot);
            Value v = ctx.imm(1);
            (void)v;
        }
        cfgs = graph::buildCfgs(machine.records(), machine.symtab());
        verdicts.assign(machine.records().size(), 0);
        // Mark the first three imm records of `hot` as in-slice.
        int marked = 0;
        for (size_t i = 0; i < machine.records().size() && marked < 3;
             ++i) {
            if (cfgs.funcOf[i] == hot &&
                machine.records()[i].kind ==
                    trace::RecordKind::LoadImm) {
                verdicts[i] = 1;
                ++marked;
            }
        }
        slice = sliceFromVerdicts(machine.records(), verdicts, cfgs);
    }
};

TEST(FunctionStats, MergesByNameAndSortsByVolume)
{
    TwoFunctionTrace trace;
    const auto stats = computeFunctionStats(trace.slice, trace.cfgs,
                                            trace.machine.symtab());

    ASSERT_GE(stats.size(), 2u);
    EXPECT_EQ(stats[0].name, "v8::hot"); // most instructions first
    // hot: 2 calls + 2 rets + 7 imms = 7 imms + 2 rets attributed to it.
    EXPECT_GT(stats[0].totalInstructions,
              stats[1].totalInstructions);
    EXPECT_EQ(stats[0].sliceInstructions, 3u);
    for (size_t i = 1; i < stats.size(); ++i) {
        EXPECT_LE(stats[i].totalInstructions,
                  stats[i - 1].totalInstructions);
    }
}

TEST(FunctionStats, PercentAgainstOwnTotal)
{
    TwoFunctionTrace trace;
    const auto stats = computeFunctionStats(trace.slice, trace.cfgs,
                                            trace.machine.symtab());
    for (const auto &row : stats) {
        EXPECT_GE(row.slicePercent(), 0.0);
        EXPECT_LE(row.slicePercent(), 100.0);
    }
}

TEST(FunctionStats, TiedTotalsRankByName)
{
    // Three functions with identical volume, registered out of name
    // order: the ranking must not depend on hash-map iteration order.
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto c = machine.registerFunction("c::tied");
    const auto a = machine.registerFunction("a::tied");
    const auto b = machine.registerFunction("b::tied");
    Ctx ctx(machine, tid);
    for (const auto func : {c, a, b}) {
        TracedScope scope(ctx, func);
        Value v = ctx.imm(1);
        (void)v;
    }
    const auto cfgs = graph::buildCfgs(machine.records(), machine.symtab());
    std::vector<uint8_t> verdicts(machine.records().size(), 0);
    const auto stats = computeFunctionStats(
        sliceFromVerdicts(machine.records(), verdicts, cfgs), cfgs,
        machine.symtab());

    std::vector<std::string> tied;
    for (const auto &row : stats)
        if (row.name.ends_with("::tied"))
            tied.push_back(row.name);
    EXPECT_EQ(tied,
              (std::vector<std::string>{"a::tied", "b::tied", "c::tied"}));
}

TEST(Categorize, WindowLimitsTheExamination)
{
    TwoFunctionTrace trace;
    const auto categorizer = Categorizer::chromiumDefault();

    const auto full = categorizeUnnecessary(
        trace.slice, trace.cfgs, trace.machine.symtab(), categorizer);
    const auto windowed = categorizeUnnecessary(
        sliceFromVerdicts(trace.machine.records(), trace.verdicts,
                          trace.cfgs, /*end=*/3),
        trace.cfgs, trace.machine.symtab(), categorizer);

    EXPECT_LT(windowed.totalUnnecessary, full.totalUnnecessary);
}

TEST(Progress, MatchesHandComputedCumulative)
{
    std::vector<trace::Record> records(6);
    std::vector<uint8_t> verdicts = {1, 0, 0, 1, 1, 0};
    const auto series = computeBackwardProgress(records, verdicts, 6);

    // Backwards: analyzed=1 -> 0/1; 2 -> 1/2; 3 -> 2/3; 4 -> 2/4;
    // 5 -> 2/5; 6 -> 3/6.
    ASSERT_EQ(series.size(), 6u);
    EXPECT_DOUBLE_EQ(series[0].slicePercent, 0.0);
    EXPECT_DOUBLE_EQ(series[1].slicePercent, 50.0);
    EXPECT_NEAR(series[2].slicePercent, 66.67, 0.01);
    EXPECT_DOUBLE_EQ(series[3].slicePercent, 50.0);
    EXPECT_DOUBLE_EQ(series[4].slicePercent, 40.0);
    EXPECT_DOUBLE_EQ(series[5].slicePercent, 50.0);
}

TEST(Progress, StrideCoversWholeTrace)
{
    std::vector<trace::Record> records(1000);
    std::vector<uint8_t> verdicts(1000, 0);
    for (size_t i = 0; i < 1000; i += 3)
        verdicts[i] = 1;
    const auto series = computeBackwardProgress(records, verdicts, 10);
    ASSERT_FALSE(series.empty());
    EXPECT_EQ(series.back().analyzed, 1000u);
    EXPECT_NEAR(series.back().slicePercent, 33.4, 0.1);
}

TEST(Report, RendersAllSections)
{
    TwoFunctionTrace trace;
    slicer::SliceResult slice = trace.slice;
    slice.sliceInstructions = 3;
    slice.instructionsAnalyzed = trace.machine.instructionCount();

    const std::string names[] = {"CrRendererMain"};
    ReportOptions options;
    options.threadNames = names;
    options.topFunctions = 5;

    std::ostringstream os;
    renderReport(os, trace.machine.records(), slice, trace.cfgs,
                 trace.machine.symtab(), options);
    const std::string text = os.str();
    EXPECT_NE(text.find("pixel slice:"), std::string::npos);
    EXPECT_NE(text.find("CrRendererMain"), std::string::npos);
    EXPECT_NE(text.find("categorizable"), std::string::npos);
    EXPECT_NE(text.find("v8::hot"), std::string::npos);
}

TEST(Report, TopFunctionsSectionCanBeDisabled)
{
    TwoFunctionTrace trace;
    slicer::SliceResult slice = trace.slice;
    slice.instructionsAnalyzed = trace.machine.instructionCount();

    ReportOptions options;
    options.topFunctions = 0;
    std::ostringstream os;
    renderReport(os, trace.machine.records(), slice, trace.cfgs,
                 trace.machine.symtab(), options);
    EXPECT_EQ(os.str().find("hottest functions"), std::string::npos);
}

} // namespace
} // namespace analysis
} // namespace webslice
