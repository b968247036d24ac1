/**
 * @file
 * Namespace-based categorization of potentially unnecessary computations —
 * the data behind the paper's Figure 5.
 *
 * Like the paper, we look up each non-slice instruction's enclosing
 * function and use the function's C++ namespace as the category key. Not
 * every function has a namespace (leaf library helpers, synthetic toplevel
 * glue), so a fraction of non-slice instructions stays uncategorized — the
 * paper reports 53–74% coverage across its benchmarks.
 */

#ifndef WEBSLICE_ANALYSIS_CATEGORIZE_HH
#define WEBSLICE_ANALYSIS_CATEGORIZE_HH

#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/cfg.hh"
#include "slicer/slicer.hh"
#include "staticdep/slice.hh"
#include "trace/record.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace analysis {

/**
 * Maps function namespaces to the paper's categories. The default table
 * mirrors Chromium's layout: v8 -> JavaScript, cc -> Compositing, and so
 * on.
 */
class Categorizer
{
  public:
    /** Construct with the paper's default namespace table. */
    static Categorizer chromiumDefault();

    /** Register namespace_path (e.g. "base::threading") -> category. */
    void addRule(std::string namespace_path, std::string category);

    /**
     * Category for a qualified function name, or "" when the name carries
     * no mapped namespace. Deeper (more specific) rules win.
     */
    std::string categoryOf(std::string_view qualified_name) const;

    /** The fixed order categories are reported in (the paper's legend). */
    static const std::vector<std::string> &reportOrder();

  private:
    /** namespace path -> category, deepest path matched first. */
    std::map<std::string, std::string, std::greater<>> rules_;
};

/** Distribution of non-slice instructions over categories. */
struct CategoryDistribution
{
    /** Category -> non-slice instruction count. */
    std::map<std::string, uint64_t> counts;

    /** Non-slice instructions whose function had no mapped namespace. */
    uint64_t uncategorized = 0;

    /** All non-slice instructions examined. */
    uint64_t totalUnnecessary = 0;

    /** Fraction of non-slice instructions that fell into a category. */
    double
    coveragePercent() const
    {
        if (totalUnnecessary == 0)
            return 0.0;
        return 100.0 *
               static_cast<double>(totalUnnecessary - uncategorized) /
               static_cast<double>(totalUnnecessary);
    }

    /** Share of category c among categorized instructions, percent. */
    double sharePercent(const std::string &category) const;
};

/**
 * Categorize every executed instruction of the analyzed window that is
 * NOT in the slice, from the pass's per-function tallies. O(functions).
 *
 * @param slice     the backward pass's result (its byFunc tallies)
 * @param cfgs      forward-pass output (function names)
 * @param symtab    function names
 * @param categorizer namespace table
 */
CategoryDistribution
categorizeUnnecessary(const slicer::SliceResult &slice,
                      const graph::CfgSet &cfgs,
                      const trace::SymbolTable &symtab,
                      const Categorizer &categorizer);

/**
 * The Figure-5-style static-vs-dynamic contrast: every executed
 * instruction lands in one of three bins —
 *
 *  - necessary (in the dynamic slice), sub-split by how the static PDG
 *    reached its site: through data edges only, or needing at least one
 *    control edge;
 *  - dynamically-only unnecessary (in the static slice but not the
 *    dynamic one — dependences that could have mattered but did not on
 *    this run), sub-split the same way;
 *  - statically removable (outside even the static over-approximation —
 *    work no sound whole-input analysis could tie to the criteria),
 *    sub-split by instruction character: control transfers vs data
 *    computation.
 *
 * Necessary instructions whose site is missing from the static slice are
 * containment violations (see check/containment.hh) and are counted
 * separately rather than binned.
 */
struct ContrastBreakdown
{
    uint64_t analyzed = 0;

    uint64_t necessary = 0;
    uint64_t necessaryDataOnly = 0;
    uint64_t necessaryViaControl = 0;

    uint64_t dynamicOnly = 0;
    uint64_t dynamicOnlyDataOnly = 0;
    uint64_t dynamicOnlyViaControl = 0;

    uint64_t staticallyRemovable = 0;
    uint64_t removableDataKind = 0;
    uint64_t removableControlKind = 0;

    uint64_t containmentViolations = 0;

    /** Per-category split of the unnecessary bins (the key "" collects
     *  instructions whose function had no mapped namespace). */
    struct CategorySplit
    {
        uint64_t removable = 0;
        uint64_t dynamicOnly = 0;
    };
    std::map<std::string, CategorySplit> categories;

    double
    percentOfAnalyzed(uint64_t n) const
    {
        if (analyzed == 0)
            return 0.0;
        return 100.0 * static_cast<double>(n) /
               static_cast<double>(analyzed);
    }
};

/**
 * Bin every executed instruction in the window against both slices.
 * `static_slice` must have been computed with the same criteria mode and
 * ablation knobs as the dynamic one for the bins to be meaningful.
 */
ContrastBreakdown
contrastSlices(std::span<const trace::Record> records,
               std::span<const uint8_t> in_slice,
               const staticdep::StaticSliceResult &static_slice,
               const graph::CfgSet &cfgs, const trace::SymbolTable &symtab,
               const Categorizer &categorizer, size_t end_index = SIZE_MAX);

} // namespace analysis
} // namespace webslice

#endif // WEBSLICE_ANALYSIS_CATEGORIZE_HH
