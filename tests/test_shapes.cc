/**
 * @file
 * Regression locks on the paper's qualitative findings, on scaled-down
 * versions of the real benchmark specs (fast enough for ctest). These are
 * the claims the reproduction stands on; if a substrate change breaks an
 * ordering, this suite — not a bench rerun — should catch it.
 */

#include <gtest/gtest.h>

#include "analysis/categorize.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "scenario/run.hh"
#include "workloads/sites.hh"

namespace webslice {
namespace {

/** Shrink a paper spec's content so the test runs in well under a
 *  second while keeping its structural knobs. */
workloads::SiteSpec
shrink(workloads::SiteSpec spec)
{
    spec.js.targetBytes = std::min<uint64_t>(spec.js.targetBytes, 20000);
    spec.css.targetBytes =
        std::min<uint64_t>(spec.css.targetBytes, 7000);
    spec.page.sections = std::min(spec.page.sections, 3);
    spec.page.itemsPerSection = std::min(spec.page.itemsPerSection, 3);
    spec.imageBytes = 512;
    return spec;
}

struct ShapeRun
{
    workloads::RunResult run;
    analysis::SliceBreakdown stats;
    slicer::SliceResult slice;

    explicit ShapeRun(const workloads::SiteSpec &spec)
        : run(scenario::runSite(spec))
    {
        const auto cfgs = graph::buildCfgs(run.records(),
                                           run.machine->symtab());
        const auto deps = graph::buildControlDeps(cfgs);
        slicer::SlicerOptions options;
        if (spec.actions.empty())
            options.endIndex = run.loadCompleteIndex;
        slice = slicer::computeSlice(run.records(), cfgs, deps,
                                     run.machine->pixelCriteria(),
                                     options);
        stats = analysis::computeThreadStats(slice, run.threadNames());
    }

    double main() const { return stats.perThread[0].slicePercent(); }
    double compositor() const
    {
        return stats.perThread[1].slicePercent();
    }

    double
    rasterAverage() const
    {
        double sum = 0;
        int count = 0;
        for (size_t t = 2; t < stats.perThread.size(); ++t) {
            if (stats.perThread[t].name.rfind("CompositorTile", 0) != 0)
                continue;
            sum += stats.perThread[t].slicePercent();
            ++count;
        }
        return count ? sum / count : 0.0;
    }
};

TEST(PaperShapes, SubstantialFractionOfWorkIsUnnecessary)
{
    // The paper's headline: a large share of executed instructions never
    // reaches the pixels.
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    EXPECT_GT(amazon.slice.slicePercent(), 25.0);
    EXPECT_LT(amazon.slice.slicePercent(), 75.0);
}

TEST(PaperShapes, MainThreadOutslicesTheCompositor)
{
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    EXPECT_GT(amazon.main(), amazon.compositor());
}

TEST(PaperShapes, MobileRasterizersAreFarBelowDesktop)
{
    ShapeRun desktop(shrink(workloads::amazonDesktopSpec()));
    ShapeRun mobile(shrink(workloads::amazonMobileSpec()));
    EXPECT_LT(mobile.rasterAverage(), desktop.rasterAverage());
    EXPECT_LT(mobile.rasterAverage(), 30.0);
}

TEST(PaperShapes, JavaScriptDominatesLoadTimeWaste)
{
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    // Load-time waste: the slice (and so its tallies) stops at load
    // complete.
    ASSERT_EQ(amazon.slice.analyzedWindowEnd, amazon.run.loadCompleteIndex);
    const auto cfgs = graph::buildCfgs(amazon.run.records(),
                                       amazon.run.machine->symtab());
    const auto dist = analysis::categorizeUnnecessary(
        amazon.slice, cfgs, amazon.run.machine->symtab(),
        analysis::Categorizer::chromiumDefault());

    const double js = dist.sharePercent("JavaScript");
    for (const auto &category : analysis::Categorizer::reportOrder()) {
        if (category == "JavaScript")
            continue;
        EXPECT_GE(js, dist.sharePercent(category)) << category;
    }
}

TEST(PaperShapes, UnusedBytesStayInThePaperBand)
{
    // Table I: 40-60% of JS+CSS bytes unused after load.
    for (const auto &spec : workloads::paperBenchmarks()) {
        auto small = shrink(spec);
        small.actions.clear();
        small.lazyJsBytes = 0;
        small.sessionMs = 400;
        const auto run = scenario::runSite(small);
        const double unused =
            100.0 * static_cast<double>(run.unusedBytes()) /
            static_cast<double>(run.totalBytes());
        EXPECT_GT(unused, 35.0) << spec.name;
        EXPECT_LT(unused, 65.0) << spec.name;
    }
}

TEST(PaperShapes, BrowsingLowersTheUnusedShare)
{
    auto load_spec = shrink(workloads::withoutBrowseSession(
        workloads::bingSpec()));
    auto browse_spec = shrink(workloads::bingSpec());
    const auto load_run = scenario::runSite(load_spec);
    const auto browse_run = scenario::runSite(browse_spec);
    const double load_unused =
        static_cast<double>(load_run.unusedBytes()) /
        static_cast<double>(load_run.totalBytes());
    const double browse_unused =
        static_cast<double>(browse_run.unusedBytes()) /
        static_cast<double>(browse_run.totalBytes());
    EXPECT_LT(browse_unused, load_unused);
}

TEST(PaperShapes, SyscallAndPixelCriteriaAgree)
{
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    const auto cfgs = graph::buildCfgs(amazon.run.records(),
                                       amazon.run.machine->symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    slicer::SlicerOptions options;
    options.mode = slicer::CriteriaMode::Syscalls;
    options.endIndex = amazon.run.loadCompleteIndex;
    const auto sys = slicer::computeSlice(
        amazon.run.records(), cfgs, deps,
        amazon.run.machine->pixelCriteria(), options);
    EXPECT_NEAR(sys.slicePercent(), amazon.slice.slicePercent(), 6.0);
}

} // namespace
} // namespace webslice
