/**
 * @file
 * Unit tests for the analysis layer: per-thread slice statistics, the
 * backward-progress series, and namespace categorization.
 */

#include <gtest/gtest.h>

#include "analysis/categorize.hh"
#include "analysis/progress.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "slicer/slicer.hh"
#include "tally_oracle.hh"

namespace webslice {
namespace analysis {
namespace {

using oracle::sliceFromVerdicts;
using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;
using trace::Record;
using trace::RecordKind;

// ---- thread stats ----------------------------------------------------------

TEST(ThreadStats, CountsPerThread)
{
    std::vector<Record> records(6);
    std::vector<uint8_t> verdicts = {1, 0, 1, 1, 0, 0};
    for (size_t i = 0; i < records.size(); ++i)
        records[i].tid = static_cast<trace::ThreadId>(i % 2);

    const std::string names[] = {"main", "compositor"};
    const auto stats =
        computeThreadStats(sliceFromVerdicts(records, verdicts), names);
    EXPECT_EQ(stats.all.totalInstructions, 6u);
    EXPECT_EQ(stats.all.sliceInstructions, 3u);
    EXPECT_DOUBLE_EQ(stats.all.slicePercent(), 50.0);
    ASSERT_EQ(stats.perThread.size(), 2u);
    EXPECT_EQ(stats.perThread[0].name, "main");
    EXPECT_EQ(stats.perThread[0].totalInstructions, 3u);
    EXPECT_EQ(stats.perThread[0].sliceInstructions, 2u);
    EXPECT_EQ(stats.perThread[1].totalInstructions, 3u);
    EXPECT_EQ(stats.perThread[1].sliceInstructions, 1u);
}

TEST(ThreadStats, SkipsPseudoRecords)
{
    std::vector<Record> records(3);
    records[1].kind = RecordKind::SyscallRead;
    std::vector<uint8_t> verdicts = {1, 0, 0};
    const auto stats =
        computeThreadStats(sliceFromVerdicts(records, verdicts));
    EXPECT_EQ(stats.all.totalInstructions, 2u);
}

TEST(ThreadStats, RespectsEndIndex)
{
    std::vector<Record> records(10);
    std::vector<uint8_t> verdicts(10, 1);
    const auto stats =
        computeThreadStats(sliceFromVerdicts(records, verdicts, {}, 4));
    EXPECT_EQ(stats.all.totalInstructions, 4u);
}

TEST(ThreadStats, EmptyPercentIsZero)
{
    ThreadSliceStats stats;
    EXPECT_DOUBLE_EQ(stats.slicePercent(), 0.0);
}

// ---- progress --------------------------------------------------------------

TEST(Progress, CumulativeFromTheEnd)
{
    // 4 instructions; the last two are in the slice.
    std::vector<Record> records(4);
    std::vector<uint8_t> verdicts = {0, 0, 1, 1};
    const auto series = computeBackwardProgress(records, verdicts, 4);
    ASSERT_GE(series.size(), 4u);
    // First sample (1 analyzed from the end): 100%.
    EXPECT_DOUBLE_EQ(series.front().slicePercent, 100.0);
    // Final sample covers everything: 50%.
    EXPECT_DOUBLE_EQ(series.back().slicePercent, 50.0);
    EXPECT_EQ(series.back().analyzed, 4u);
}

TEST(Progress, ThreadFilter)
{
    std::vector<Record> records(4);
    records[0].tid = 0;
    records[1].tid = 1;
    records[2].tid = 0;
    records[3].tid = 1;
    std::vector<uint8_t> verdicts = {1, 0, 0, 0};
    const auto series =
        computeBackwardProgress(records, verdicts, 2, trace::ThreadId{0});
    ASSERT_FALSE(series.empty());
    EXPECT_EQ(series.back().analyzed, 2u);
    EXPECT_DOUBLE_EQ(series.back().slicePercent, 50.0);
}

TEST(Progress, EmptyTraceYieldsEmptySeries)
{
    const auto series = computeBackwardProgress({}, {}, 10);
    EXPECT_TRUE(series.empty());
}

// ---- categorizer -----------------------------------------------------------

TEST(Categorizer, ChromiumDefaultMapping)
{
    const auto c = Categorizer::chromiumDefault();
    EXPECT_EQ(c.categoryOf("v8::Parser::parseProgram"), "JavaScript");
    EXPECT_EQ(c.categoryOf("debug::TraceEvent::record"), "Debugging");
    EXPECT_EQ(c.categoryOf("ipc::Channel::send"), "IPC");
    EXPECT_EQ(c.categoryOf("base::threading::Mutex::lock"),
              "Multi-threading");
    EXPECT_EQ(c.categoryOf("cc::TileManager::schedule"), "Compositing");
    EXPECT_EQ(c.categoryOf("gfx::DisplayList::append"), "Graphics");
    EXPECT_EQ(c.categoryOf("css::Resolver::match"), "CSS");
    EXPECT_EQ(c.categoryOf("style::Cascade::apply"), "CSS");
    EXPECT_EQ(c.categoryOf("scheduler::EventQueue::pop"), "Other");
    EXPECT_EQ(c.categoryOf("net::Loader::fetch"), "Other");
}

TEST(Categorizer, UnmappedNamesYieldEmpty)
{
    const auto c = Categorizer::chromiumDefault();
    EXPECT_EQ(c.categoryOf("plainHelper"), "");
    EXPECT_EQ(c.categoryOf("lib::memcpy"), "");
    EXPECT_EQ(c.categoryOf("html::Parser::token"), "");
}

TEST(Categorizer, DeeperRuleWins)
{
    Categorizer c;
    c.addRule("base", "Other");
    c.addRule("base::threading", "Multi-threading");
    EXPECT_EQ(c.categoryOf("base::threading::Lock::acquire"),
              "Multi-threading");
    EXPECT_EQ(c.categoryOf("base::Timer::now"), "Other");
}

TEST(Categorizer, ReportOrderMatchesPaperLegend)
{
    const auto &order = Categorizer::reportOrder();
    ASSERT_EQ(order.size(), 8u);
    EXPECT_EQ(order.front(), "JavaScript");
    EXPECT_EQ(order.back(), "Other");
}

// ---- categorization over a real trace ---------------------------------------

TEST(Categorize, NonSliceInstructionsLandInNamespaceBuckets)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto js = machine.registerFunction("v8::Script::compile");
    const auto dbg = machine.registerFunction("debug::TraceEvent::log");
    const auto painter = machine.registerFunction("gfx::Painter::fill");
    const uint64_t pixels = machine.alloc(4, "tile");
    const uint64_t junk = machine.alloc(16, "junk");

    machine.post(tid, [&](Ctx &ctx) {
        {
            TracedScope scope(ctx, js); // wasted JS work
            Value a = ctx.imm(1);
            Value b = ctx.addi(a, 2);
            ctx.store(junk, 4, b);
        }
        {
            TracedScope scope(ctx, dbg); // wasted debug work
            Value m = ctx.imm(7);
            ctx.store(junk + 8, 4, m);
        }
        {
            TracedScope scope(ctx, painter); // useful work
            Value color = ctx.imm(0xFFF);
            ctx.store(pixels, 4, color);
        }
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto cfgs = graph::buildCfgs(machine.records(), machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    const auto result = slicer::computeSlice(
        machine.records(), cfgs, deps, machine.pixelCriteria());

    const auto dist = categorizeUnnecessary(
        result, cfgs, machine.symtab(), Categorizer::chromiumDefault());

    // JS: imm + addi + store + Ret = 4; debug: imm + store + Ret = 3.
    // The two dead Call records belong to the *caller* (toplevel glue),
    // so they are uncategorized — the same effect the paper sees with
    // functions that carry no namespace. The painter is fully in the
    // slice.
    EXPECT_EQ(dist.counts.at("JavaScript"), 4u);
    EXPECT_EQ(dist.counts.at("Debugging"), 3u);
    EXPECT_EQ(dist.counts.count("Graphics"), 0u);
    EXPECT_EQ(dist.totalUnnecessary, 9u);
    EXPECT_EQ(dist.uncategorized, 2u);
    EXPECT_NEAR(dist.coveragePercent(), 77.8, 0.1);
    EXPECT_GT(dist.sharePercent("JavaScript"),
              dist.sharePercent("Debugging"));
}

TEST(Categorize, TopLevelGlueIsUncategorized)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    machine.post(tid, [&](Ctx &ctx) {
        Value v = ctx.imm(1); // toplevel, no enclosing traced function
        (void)v;
    });
    machine.run();

    const auto cfgs = graph::buildCfgs(machine.records(), machine.symtab());
    std::vector<uint8_t> verdicts(machine.records().size(), 0);
    const auto dist = categorizeUnnecessary(
        sliceFromVerdicts(machine.records(), verdicts, cfgs), cfgs,
        machine.symtab(), Categorizer::chromiumDefault());
    EXPECT_EQ(dist.totalUnnecessary, 1u);
    EXPECT_EQ(dist.uncategorized, 1u);
    EXPECT_DOUBLE_EQ(dist.coveragePercent(), 0.0);
}

} // namespace
} // namespace analysis
} // namespace webslice
