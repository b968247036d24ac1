#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "service/json.hh"
#include "support/logging.hh"

using webslice::service::Json;

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanLog::open(const std::string &name, uint64_t id)
{
    if (!enabled_)
        return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowSeconds(), 0.0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
SpanLog::close(int index)
{
    if (index < 0)
        return;
    spans_[index].end = nowSeconds();
    // Spans close innermost first; anything still above `index` was
    // left open by an exception unwinding through it.
    while (!stack_.empty() && stack_.back() >= index)
        stack_.pop_back();
}

std::map<std::string, double>
SpanLog::selfSecondsByName() const
{
    std::map<std::string, double> by_name;
    for (const Span &span : spans_) {
        by_name[span.name] += span.end - span.start;
        if (span.parent >= 0)
            by_name[spans_[span.parent].name] -= span.end - span.start;
    }
    return by_name;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    double origin = 0.0;
    if (!spans_.empty())
        origin = std::min_element(spans_.begin(), spans_.end(),
                                  [](const Span &a, const Span &b) {
                                      return a.start < b.start;
                                  })->start;
    Json events = Json::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        Json args = Json::object();
        args.set("span", Json::integer(static_cast<int64_t>(i)));
        args.set("parent", Json::integer(span.parent));
        args.set("id", Json::integer(static_cast<int64_t>(span.id)));
        Json event = Json::object();
        event.set("name", Json::string(span.name));
        event.set("ph", Json::string("X"));
        event.set("ts", Json::number((span.start - origin) * 1e6));
        event.set("dur", Json::number((span.end - span.start) * 1e6));
        event.set("pid", Json::integer(1));
        event.set("tid", Json::integer(static_cast<int64_t>(span.id)));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json::string("ms"));
    std::ofstream out(path);
    fatal_if(!out, "cannot write ", path);
    out << doc.dump() << '\n';
    fatal_if(!out, "write to ", path, " failed");
}

} // namespace perfbench
