/**
 * @file
 * The paper's four benchmarks as site specifications, plus the runner
 * that executes one benchmark end to end on a fresh simulated machine.
 *
 * Benchmarks (Section IV-B):
 *   - Amazon, desktop view — load only; 3 rasterizer threads.
 *   - Amazon, emulated mobile view (360x640) — load only; much simpler
 *     first view, hence a much shorter trace.
 *   - Google Maps — load only; the largest JS+CSS payload.
 *   - Bing — load + ~30 s browse: open/close the top-right menu, click
 *     the news-pane roll button, type a term in the search bar.
 *
 * Figure 2 uses a fifth session: amazon.com loaded, scrolled down and
 * up, two photo-roll clicks, then a menu open.
 *
 * Byte volumes are the paper's Table I values scaled by contentScale
 * (default 1/8) so that traces stay benchmark-sized; all reported
 * percentages are scale-invariant.
 */

#ifndef WEBSLICE_WORKLOADS_SITES_HH
#define WEBSLICE_WORKLOADS_SITES_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "browser/js.hh"
#include "browser/tab.hh"
#include "browser/user_action.hh"
#include "sim/machine.hh"
#include "workloads/content.hh"

namespace webslice {
namespace workloads {

/**
 * The one scripted-action representation, shared with the scenario DSL
 * and browser::Tab::scheduleAction (historically workloads had its own
 * three-verb copy of this enum).
 */
using UserAction = browser::UserAction;

/** Everything needed to run one benchmark. */
struct SiteSpec
{
    std::string name;
    std::string url;
    uint64_t seed = 1;

    browser::BrowserConfig browser;
    PageSpec page;
    CssSpec css;
    JsSpec js;

    /** Session length (drives vsync ticks and idle tail). */
    uint64_t sessionMs = 2500;

    /** Scripted interactions (empty for load-only benchmarks). */
    std::vector<UserAction> actions;

    /** Extra script fetched mid-session (Bing/Maps grow while browsed). */
    uint64_t lazyJsBytes = 0;
    uint64_t lazyJsAtMs = 0;
    double lazyJsLoadFraction = 0.95; ///< Share of the lazy bytes used.

    /** Bytes of each image payload. */
    size_t imageBytes = 3072;

    /**
     * Record a value log alongside the trace (one written value per
     * record plus criterion snapshots) so the verification layer can
     * compare slice replays bit-for-bit. Off by default: the log costs
     * 8 bytes per record.
     */
    bool captureValues = false;
};

/** Content-volume scale relative to the paper's Table I byte counts. */
constexpr double kContentScale = 0.125;

SiteSpec amazonDesktopSpec();
SiteSpec amazonMobileSpec();
SiteSpec googleMapsSpec();
SiteSpec bingSpec();

/** The Figure 2 session (amazon.com with scrolls, photo clicks, menu). */
SiteSpec amazonFigure2Spec();

/**
 * Derive the Table I "Load and Browse" variant of a load-only spec: a
 * ~30s-equivalent session of typical interactions (menu open/close,
 * photo-roll clicks, scrolls), plus the extra script Maps/Bing download
 * while being browsed.
 */
SiteSpec withBrowseSession(SiteSpec spec);

/** Strip the browse session (Table I "Only Load" variant of Bing). */
SiteSpec withoutBrowseSession(SiteSpec spec);

/** All four Table II benchmarks in paper order. */
std::vector<SiteSpec> paperBenchmarks();

/** One enumerable built-in workload (webslice-record --list, describe). */
struct BuiltinSite
{
    const char *id;      ///< CLI name, e.g. "amazon-desktop".
    const char *summary; ///< One-line description for listings.
    SiteSpec (*factory)();
};

/** Registry of the named built-in workloads, in CLI/paper order. */
const std::vector<BuiltinSite> &builtinSites();

/** Look up a built-in by CLI id; nullptr when unknown. */
const BuiltinSite *findBuiltinSite(const std::string &id);

/** Result of one end-to-end benchmark run. */
struct RunResult
{
    SiteSpec spec;
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<browser::Tab> tab;

    /** Secondary tabs of a multi-tab scenario (scenario engine only). */
    std::vector<std::unique_ptr<browser::Tab>> extraTabs;

    size_t loadCompleteIndex = 0;
    uint64_t jsTotalBytes = 0;
    uint64_t jsUsedBytes = 0;
    uint64_t cssTotalBytes = 0;
    uint64_t cssUsedBytes = 0;

    std::span<const trace::Record> records() const
    {
        return machine->records();
    }

    /**
     * Every simulated thread by id — derived from the machine rather
     * than the tab's browser thread set so dedicated workers (and any
     * other threads a scenario adds) are included.
     */
    std::vector<std::string>
    threadNames() const
    {
        std::vector<std::string> names;
        names.reserve(machine->threadCount());
        for (size_t t = 0; t < machine->threadCount(); ++t)
            names.push_back(
                machine->threadName(static_cast<trace::ThreadId>(t)));
        return names;
    }

    uint64_t
    unusedBytes() const
    {
        return (jsTotalBytes - jsUsedBytes) +
               (cssTotalBytes - cssUsedBytes);
    }

    uint64_t totalBytes() const { return jsTotalBytes + cssTotalBytes; }
};

/** Build the SiteContent payloads for a spec (deterministic). */
browser::SiteContent buildSiteContent(const SiteSpec &spec);

// The end-to-end runner lives in scenario/run.hh (scenario::runSite):
// specs are compiled into a Scenario and executed by the one scenario
// engine, so hard-coded benchmarks and .scn files share every code path.

} // namespace workloads
} // namespace webslice

#endif // WEBSLICE_WORKLOADS_SITES_HH
