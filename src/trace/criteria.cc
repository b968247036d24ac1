#include "trace/criteria.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace webslice {
namespace trace {

void
CriteriaSet::add(uint32_t marker, uint64_t addr, uint64_t size)
{
    if (size == 0) {
        warn("criteria marker ", marker, ": dropping empty range at ",
             addr);
        return;
    }

    // Coalesce overlapping and duplicate ranges so per-byte consumers
    // (the slicer's seeded-bytes counter, the soundness checker's
    // criterion byte-compare) see each criterion byte exactly once.
    // Overlap within one marker means the recorder described the same
    // buffer twice — legal, but worth a loud note.
    auto &ranges = byMarker_[marker];
    MemRange merged{addr, size};
    for (auto it = ranges.begin(); it != ranges.end();) {
        const bool overlaps = merged.addr < it->addr + it->size &&
                              it->addr < merged.addr + merged.size;
        if (!overlaps) {
            ++it;
            continue;
        }
        warn("criteria marker ", marker, ": range [", merged.addr, ", +",
             merged.size, ") overlaps existing [", it->addr, ", +",
             it->size, "); merging");
        MetricRegistry::global().counter("criteria.ranges_merged").add(1);
        const uint64_t lo = std::min(merged.addr, it->addr);
        const uint64_t hi = std::max(merged.addr + merged.size,
                                     it->addr + it->size);
        merged = MemRange{lo, hi - lo};
        it = ranges.erase(it);
    }
    ranges.push_back(merged);
}

const std::vector<MemRange> &
CriteriaSet::forMarker(uint32_t marker) const
{
    auto it = byMarker_.find(marker);
    return it == byMarker_.end() ? empty_ : it->second;
}

uint64_t
CriteriaSet::totalBytes() const
{
    uint64_t total = 0;
    for (const auto &kv : byMarker_) {
        for (const auto &range : kv.second)
            total += range.size;
    }
    return total;
}

std::vector<MemRange>
CriteriaSet::allRanges() const
{
    std::vector<uint32_t> markers;
    markers.reserve(byMarker_.size());
    for (const auto &kv : byMarker_)
        markers.push_back(kv.first);
    std::sort(markers.begin(), markers.end());
    std::vector<MemRange> out;
    for (const uint32_t marker : markers) {
        const auto &ranges = byMarker_.at(marker);
        out.insert(out.end(), ranges.begin(), ranges.end());
    }
    return out;
}

void
CriteriaSet::save(const std::string &path) const
{
    std::ofstream out(path);
    fatal_if(!out, "cannot write criteria file ", path);
    out << "webcrit 1\n";
    for (const auto &kv : byMarker_) {
        for (const auto &range : kv.second)
            out << kv.first << ' ' << range.addr << ' ' << range.size
                << '\n';
    }
    fatal_if(!out, "short write saving criteria file ", path);
}

void
CriteriaSet::load(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read criteria file ", path);

    // Line-based parsing so every diagnostic carries the offending line
    // number: a malformed line mid-file must fail loudly, never read as
    // EOF — slicing with a partial criteria set produces a plausible but
    // wrong slice.
    std::string line;
    size_t lineno = 0;
    fatal_if(!std::getline(in, line),
             "empty criteria file ", path);
    ++lineno;
    {
        std::istringstream fields(line);
        std::string magic;
        int version = 0;
        fields >> magic >> version;
        fatal_if(magic != "webcrit" || version != 1,
                 "bad criteria header in ", path, " line 1: '", line, "'");
    }

    byMarker_.clear();
    uint64_t ranges = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::istringstream fields(line);
        uint32_t marker = 0;
        uint64_t addr = 0, size = 0;
        fields >> marker >> addr >> size;
        fatal_if(fields.fail(), "malformed criteria entry in ", path,
                 " line ", lineno, ": '", line, "'");
        std::string extra;
        fatal_if(static_cast<bool>(fields >> extra),
                 "trailing garbage in ", path, " line ", lineno, ": '",
                 line, "'");
        add(marker, addr, size);
        ++ranges;
    }
    fatal_if(!in.eof(), "read error in criteria file ", path,
             " after line ", lineno);
    MetricRegistry::global().counter("criteria.ranges_loaded").add(ranges);
}

} // namespace trace
} // namespace webslice
