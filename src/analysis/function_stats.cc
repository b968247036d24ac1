#include "analysis/function_stats.hh"

#include <algorithm>
#include <unordered_map>

namespace webslice {
namespace analysis {

std::vector<FunctionSliceStats>
computeFunctionStats(const slicer::SliceResult &slice,
                     const graph::CfgSet &cfgs,
                     const trace::SymbolTable &symtab)
{
    std::unordered_map<std::string, FunctionSliceStats> by_name;
    for (size_t slot = 0; slot < slice.byFunc.size(); ++slot) {
        const slicer::SliceTally &tally = slice.byFunc[slot];
        if (tally.total == 0)
            continue;
        const trace::FuncId func = slice.funcAt(slot);
        std::string name = cfgs.functionName(func, symtab);
        auto &stats = by_name[name];
        if (stats.totalInstructions == 0) {
            stats.func = func;
            stats.name = std::move(name);
        }
        stats.totalInstructions += tally.total;
        stats.sliceInstructions += tally.slice;
    }

    std::vector<FunctionSliceStats> out;
    out.reserve(by_name.size());
    for (auto &kv : by_name)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(),
              [](const FunctionSliceStats &a, const FunctionSliceStats &b) {
                  if (a.totalInstructions != b.totalInstructions)
                      return a.totalInstructions > b.totalInstructions;
                  return a.name < b.name;
              });
    return out;
}

} // namespace analysis
} // namespace webslice
