/**
 * @file
 * Small statistics toolkit: named counters, bucketed time series, and a
 * scalar summary (min/max/mean) — enough to back the analysis layer and the
 * benchmark reports without pulling in a full stats framework.
 */

#ifndef WEBSLICE_SUPPORT_STATS_HH
#define WEBSLICE_SUPPORT_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace webslice {

/** Map of named monotonically growing counters. */
class CounterSet
{
  public:
    void add(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (const auto &kv : counters_)
            sum += kv.second;
        return sum;
    }

    const std::map<std::string, uint64_t> &entries() const
    {
        return counters_;
    }

    void clear() { counters_.clear(); }

  private:
    std::map<std::string, uint64_t> counters_;
};

/**
 * A value series sampled against a monotonically increasing position
 * (virtual time or trace progress), bucketed into fixed-width bins.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(uint64_t bucket_width = 1)
        : bucketWidth_(bucket_width ? bucket_width : 1)
    {}

    /** Accumulate a value into the bucket that covers the position. */
    void
    add(uint64_t position, double value)
    {
        addToBucket(bucketFor(position), value);
    }

    /** Index of the bucket covering the position; grows the series to
     *  include it. */
    size_t
    bucketFor(uint64_t position)
    {
        const size_t idx = position / bucketWidth_;
        if (idx >= sums_.size()) {
            sums_.resize(idx + 1, 0.0);
            counts_.resize(idx + 1, 0);
        }
        return idx;
    }

    /** Accumulate a value into a bucket bucketFor() returned. */
    void
    addToBucket(size_t idx, double value)
    {
        sums_[idx] += value;
        counts_[idx] += 1;
    }

    size_t bucketCount() const { return sums_.size(); }

    uint64_t bucketWidth() const { return bucketWidth_; }

    /** Sum of the values accumulated into bucket idx. */
    double
    sum(size_t idx) const
    {
        return idx < sums_.size() ? sums_[idx] : 0.0;
    }

    /** Number of samples in bucket idx. */
    uint64_t
    count(size_t idx) const
    {
        return idx < counts_.size() ? counts_[idx] : 0;
    }

    /** Mean of bucket idx, or 0 when empty. */
    double
    mean(size_t idx) const
    {
        const uint64_t n = count(idx);
        return n ? sum(idx) / static_cast<double>(n) : 0.0;
    }

  private:
    uint64_t bucketWidth_;
    std::vector<double> sums_;
    std::vector<uint64_t> counts_;
};

/** Running scalar summary. */
class Summary
{
  public:
    void
    add(double v)
    {
        if (n_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        sum_ += v;
        ++n_;
    }

    uint64_t count() const { return n_; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
    double sum() const { return sum_; }

  private:
    uint64_t n_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

} // namespace webslice

#endif // WEBSLICE_SUPPORT_STATS_HH
