#include "analysis/categorize.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"
#include "support/strings.hh"

namespace webslice {
namespace analysis {

Categorizer
Categorizer::chromiumDefault()
{
    Categorizer c;
    c.addRule("v8", "JavaScript");
    c.addRule("debug", "Debugging");
    c.addRule("ipc", "IPC");
    c.addRule("base::threading", "Multi-threading");
    c.addRule("cc", "Compositing");
    c.addRule("gfx", "Graphics");
    c.addRule("css", "CSS");
    c.addRule("style", "CSS");
    c.addRule("scheduler", "Other");
    c.addRule("net", "Other");
    return c;
}

void
Categorizer::addRule(std::string namespace_path, std::string category)
{
    rules_[std::move(namespace_path)] = std::move(category);
}

std::string
Categorizer::categoryOf(std::string_view qualified_name) const
{
    // Try progressively shallower namespace paths: "a::b::c::f" checks
    // "a::b::c", then "a::b", then "a".
    const size_t last_sep = qualified_name.rfind("::");
    if (last_sep == std::string_view::npos)
        return {};
    std::string_view path = qualified_name.substr(0, last_sep);
    while (!path.empty()) {
        auto it = rules_.find(std::string(path));
        if (it != rules_.end())
            return it->second;
        const size_t sep = path.rfind("::");
        if (sep == std::string_view::npos)
            break;
        path = path.substr(0, sep);
    }
    return {};
}

const std::vector<std::string> &
Categorizer::reportOrder()
{
    static const std::vector<std::string> order = {
        "JavaScript",     "Debugging", "IPC", "Multi-threading",
        "Compositing",    "Graphics",  "CSS", "Other",
    };
    return order;
}

double
CategoryDistribution::sharePercent(const std::string &category) const
{
    const uint64_t categorized = totalUnnecessary - uncategorized;
    if (categorized == 0)
        return 0.0;
    auto it = counts.find(category);
    const uint64_t n = it == counts.end() ? 0 : it->second;
    return 100.0 * static_cast<double>(n) /
           static_cast<double>(categorized);
}

CategoryDistribution
categorizeUnnecessary(const slicer::SliceResult &slice,
                      const graph::CfgSet &cfgs,
                      const trace::SymbolTable &symtab,
                      const Categorizer &categorizer)
{
    CategoryDistribution out;
    for (size_t slot = 0; slot < slice.byFunc.size(); ++slot) {
        const slicer::SliceTally &tally = slice.byFunc[slot];
        const uint64_t unnecessary = tally.total - tally.slice;
        if (unnecessary == 0)
            continue;
        out.totalUnnecessary += unnecessary;
        const trace::FuncId func = slice.funcAt(slot);
        const std::string category =
            func == trace::kNoFunc
                ? std::string()
                : categorizer.categoryOf(cfgs.functionName(func, symtab));
        if (category.empty())
            out.uncategorized += unnecessary;
        else
            out.counts[category] += unnecessary;
    }
    return out;
}

ContrastBreakdown
contrastSlices(std::span<const trace::Record> records,
               std::span<const uint8_t> in_slice,
               const staticdep::StaticSliceResult &static_slice,
               const graph::CfgSet &cfgs, const trace::SymbolTable &symtab,
               const Categorizer &categorizer, size_t end_index)
{
    panic_if(records.size() != in_slice.size(),
             "records and slice verdicts must be parallel arrays");

    ContrastBreakdown out;
    std::unordered_map<trace::FuncId, std::string> category_of;
    auto categoryFor = [&](trace::FuncId func) -> const std::string & {
        auto [it, fresh] = category_of.try_emplace(func);
        if (fresh)
            it->second =
                categorizer.categoryOf(cfgs.functionName(func, symtab));
        return it->second;
    };

    const size_t end = std::min(end_index, records.size());
    for (size_t i = 0; i < end; ++i) {
        const trace::Record &rec = records[i];
        if (rec.isPseudo())
            continue;
        ++out.analyzed;
        const trace::FuncId func = cfgs.funcOf[i];
        const uint8_t reason = static_slice.reasonOf(func, rec.pc);

        if (in_slice[i]) {
            ++out.necessary;
            if (reason == 0)
                ++out.containmentViolations;
            else if (reason & staticdep::kReachControl)
                ++out.necessaryViaControl;
            else
                ++out.necessaryDataOnly;
            continue;
        }

        if (reason != 0) {
            // In the static slice but not the dynamic one: a dependence
            // path exists in the program, but this run never exercised
            // it — only a dynamic analysis can call this unnecessary.
            ++out.dynamicOnly;
            if (reason & staticdep::kReachControl)
                ++out.dynamicOnlyViaControl;
            else
                ++out.dynamicOnlyDataOnly;
            ++out.categories[categoryFor(func)].dynamicOnly;
        } else {
            // Outside even the static over-approximation: removable
            // without running the page.
            ++out.staticallyRemovable;
            if (rec.isControl())
                ++out.removableControlKind;
            else
                ++out.removableDataKind;
            ++out.categories[categoryFor(func)].removable;
        }
    }
    return out;
}

} // namespace analysis
} // namespace webslice
