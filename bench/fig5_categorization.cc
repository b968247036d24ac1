/**
 * @file
 * Figure 5 — "Categorization of potentially unnecessary computations and
 * their distribution through analysis of instructions that do not belong
 * to the pixel-based slice."
 *
 * For each benchmark: slice with pixel criteria, take the non-slice
 * instructions, look up each one's enclosing function, and bucket by the
 * function's namespace (the paper's methodology). Expected shape:
 * JavaScript is the largest category; Debugging and IPC follow; Bing's
 * JavaScript share (load+browse) is smaller than the load-only sites';
 * only part of the non-slice instructions can be categorized (the paper
 * covers 74/59/53/61 percent).
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace webslice;

int
main()
{
    bench::printHeader(
        "fig5_categorization: Figure 5 reproduction (categories of "
        "non-slice instructions)");

    const auto categorizer = analysis::Categorizer::chromiumDefault();
    const auto &order = analysis::Categorizer::reportOrder();
    const double paper_coverage[] = {74, 59, 53, 61};

    TextTable table;
    std::vector<std::string> header = {"Benchmark"};
    for (const auto &category : order)
        header.push_back(category);
    header.push_back("coverage");
    header.push_back("paper cov.");
    table.setHeader(header);

    const auto specs = workloads::paperBenchmarks();
    double js_share_bing = 0, js_share_load_min = 100;
    for (size_t b = 0; b < specs.size(); ++b) {
        const auto profiled = bench::profileSite(specs[b]);
        const auto dist = analysis::categorizeUnnecessary(
            profiled.slice, profiled.cfgs, profiled.run.machine->symtab(),
            categorizer);

        std::vector<std::string> row = {specs[b].name};
        for (const auto &category : order)
            row.push_back(format("%.1f%%", dist.sharePercent(category)));
        row.push_back(format("%.0f%%", dist.coveragePercent()));
        row.push_back(format("%.0f%%", paper_coverage[b]));
        table.addRow(row);

        const double js = dist.sharePercent("JavaScript");
        if (b == 3) {
            js_share_bing = js;
        } else {
            js_share_load_min = std::min(js_share_load_min, js);
        }
    }

    table.render(std::cout);

    std::printf("\nShape checks (paper's findings):\n");
    std::printf("  - JavaScript is the largest category in every "
                "benchmark\n");
    std::printf("  - Bing's JavaScript share (%.1f%%) is below the "
                "load-only sites' (>= %.1f%%):\n"
                "    loading is the JS-intensive phase, so deferring JS "
                "processing is the\n    headline opportunity\n",
                js_share_bing, js_share_load_min);
    std::printf("  - a noticeable Multi-threading share and a growing "
                "Other (event scheduling)\n    share under browsing "
                "motivate the paper's scheduling critique\n");
    return 0;
}
