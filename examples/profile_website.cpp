/**
 * @file
 * Domain example: profile a full website session end to end.
 *
 * Builds a custom site (not one of the paper's benchmarks), loads it in
 * the browser substrate, lets a short browse session run, then slices the
 * trace with the pixel criteria and prints the per-thread statistics,
 * per-namespace categorization of the waste, and JS/CSS coverage — the
 * complete analysis the paper performs, on content you control.
 *
 *   $ ./examples/profile_website
 */

#include <cstdio>

#include "analysis/categorize.hh"
#include "analysis/thread_stats.hh"
#include "browser/tab.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "slicer/slicer.hh"
#include "support/strings.hh"

using namespace webslice;

int
main()
{
    // ---- a small hand-written site -----------------------------------------
    browser::SiteContent site;
    site.url = "https://shop.example/";
    const std::string hero = std::to_string(browser::hashString("hero"));
    const std::string buy = std::to_string(browser::hashString("buy"));
    site.html =
        "<link href=shop.css><script src=shop.js>"
        "<header id=hdr class=top>storefront</header>"
        "<div id=hero class=banner>todays featured deal</div>"
        "<div id=menu class=flyout hidden>account orders settings</div>"
        "<section class=grid id=products>"
        "<div class=item id=p1><p>walnut desk organizer</p>"
        "<button id=buy class=cta>buy now</button></div>"
        "<div class=item id=p2><p>linen throw pillow</p></div>"
        "</section>"
        "<footer class=legal>terms privacy imprint careers</footer>";
    site.resources["shop.css"] = {
        browser::ResourceType::Css,
        "body{bg:13290186}\n"
        ".top{position:1;z:4;height:48;bg:3372503}\n"
        ".banner{height:140;bg:16766720}\n"
        ".flyout{position:2;z:8;width:240;height:320;bg:16777215}\n"
        ".grid{padding:8}\n"
        ".item{height:180;bg:15790320;margin:8}\n"
        ".cta{width:96;height:32;bg:14423100}\n"
        ".legal{height:90;bg:11184810}\n"
        /* unused rules: a theme that never matches */
        ".dark-item{bg:2236962;color:14540253}\n"
        ".dark-banner{bg:1118481}\n"
        "#checkout-modal{width:480;height:360}\n"};
    site.resources["shop.js"] = {
        browser::ResourceType::Js,
        // Used at load: style the banner from computed data.
        "function themeBanner(a){var t = a * 7 + 11;"
        " dom.set(" + hero + ", 2, t * 997); return t;}"
        // Used only when the user clicks.
        "function onBuy(){g_sales = g_sales + 1;"
        " dom.set(" + hero + ", 1, g_sales * 5003);}"
        // Dead weight: an A/B-test arm that never activates.
        "function variantB(a){var x = a; var i = 0;"
        " while(i < 40){i = i + 1; x = x + i * 3;} return x;}"
        "function variantC(a){return variantB(a) ^ 255;}"
        "g_sales = 0;"
        "themeBanner(4);"
        "dom.listen(" + buy + ", 0, onBuy);"};

    // ---- run a short session ------------------------------------------------
    sim::Machine machine;
    browser::BrowserConfig config;
    config.viewportWidth = 1024;
    config.viewportHeight = 600;
    browser::Tab tab(machine, config);
    tab.setSessionMs(2000);
    tab.navigate(site);
    tab.scheduleClick(900, "buy"); // the user buys the organizer
    machine.run();

    std::printf("loaded in %llu virtual ms; %s instructions traced\n\n",
                static_cast<unsigned long long>(tab.loadCompleteMs()),
                withCommas(machine.instructionCount()).c_str());

    // ---- the profiler ---------------------------------------------------------
    const auto cfgs = graph::buildCfgs(machine.records(),
                                       machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    const auto slice = slicer::computeSlice(
        machine.records(), cfgs, deps, machine.pixelCriteria());

    const auto stats =
        analysis::computeThreadStats(slice, tab.threads().names);
    std::printf("pixel slice: %.1f%% of all instructions\n",
                stats.all.slicePercent());
    for (const auto &thread : stats.perThread) {
        if (thread.totalInstructions == 0)
            continue;
        std::printf("  %-24s %10s instr  %5.1f%% in slice\n",
                    thread.name.c_str(),
                    withCommas(thread.totalInstructions).c_str(),
                    thread.slicePercent());
    }

    const auto dist = analysis::categorizeUnnecessary(
        slice, cfgs, machine.symtab(),
        analysis::Categorizer::chromiumDefault());
    std::printf("\nwhere the unnecessary %.0f%% lives "
                "(%.0f%% categorizable):\n",
                100.0 - stats.all.slicePercent(),
                dist.coveragePercent());
    for (const auto &category :
         analysis::Categorizer::reportOrder()) {
        const double share = dist.sharePercent(category);
        if (share > 0.05)
            std::printf("  %-16s %5.1f%%\n", category.c_str(), share);
    }

    std::printf("\ncoverage: JS %s/%s bytes used, CSS %s/%s bytes "
                "used\n",
                withCommas(tab.js().usedBytes()).c_str(),
                withCommas(tab.js().totalBytes()).c_str(),
                withCommas(tab.cssUsedBytes()).c_str(),
                withCommas(tab.cssTotalBytes()).c_str());
    std::printf("(variantB/variantC and the dark theme never ran — "
                "their processing is the waste\n the paper measures.)\n");
    return 0;
}
