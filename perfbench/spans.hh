/**
 * @file
 * In-memory span log for the benchmark's layer boundaries.
 *
 * Spans are recorded by the offline pass around each public call it
 * makes into a webslice module. They stay in memory until the process
 * ends, when they are written as Chrome trace-event JSON and folded
 * into per-layer self times. A disabled log records nothing, so an
 * untraced pass pays no per-call bookkeeping.
 */

#ifndef WEBSLICE_PERFBENCH_SPANS_HH
#define WEBSLICE_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Monotonic seconds on CLOCK_MONOTONIC (steady_clock), the clock the
 * Python driver's time.monotonic() reads too, so child-reported
 * instants and parent-side spawn times are comparable.
 */
double nowSeconds();

struct Span
{
    std::string name;
    double start = 0.0; ///< nowSeconds() at entry
    double end = 0.0;   ///< nowSeconds() at exit
    int parent = -1;    ///< index of the enclosing span, -1 for a root
    uint64_t id = 0;    ///< pass this span belongs to
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; -1 when disabled. */
    int open(const std::string &name, uint64_t id);

    /** Close a span returned by open() (no-op for -1). */
    void close(int index);

    /**
     * Self time summed per span name; a span's self time is its
     * duration minus its children's.
     */
    std::map<std::string, double> selfSecondsByName() const;

    /**
     * Write the spans as Chrome trace-event JSON ("X" complete events,
     * microseconds relative to the earliest span), one thread row per
     * span id.
     */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span around one call; inert when the log is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, uint64_t id)
        : log_(log), index_(log.open(name, id))
    {
    }
    ~ScopedSpan() { log_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int index_;
};

} // namespace perfbench

#endif // WEBSLICE_PERFBENCH_SPANS_HH
