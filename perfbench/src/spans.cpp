#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <utility>

namespace tigr::perfbench {

std::string_view
layerOf(std::string_view name)
{
    const std::size_t dot = name.rfind('.');
    return dot == std::string_view::npos ? name : name.substr(0, dot);
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
Tracer::beginRequest()
{
    request_ = nextRequest_++;
    requestSpan_ = open("bench.request");
}

void
Tracer::endRequest()
{
    close(requestSpan_);
    requestSpan_ = kNoSpan;
    request_ = 0;
}

std::size_t
Tracer::open(const char *name)
{
    if (!recording())
        return kNoSpan;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? kNoSpan : stack_.back();
    span.request = request_;
    span.startNs = nowNs();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t index)
{
    if (index == kNoSpan)
        return;
    spans_[index].endNs = nowNs();
    // Spans nest strictly on the client thread, so the closing span is
    // the innermost open one.
    while (!stack_.empty()) {
        const std::size_t top = stack_.back();
        stack_.pop_back();
        if (top == index)
            break;
    }
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans) {
        if (span.parent != kNoSpan && span.parent < spans.size())
            children[span.parent].emplace_back(span.startNs, span.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].startNs;
        const std::int64_t hi = spans[i].endNs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = lo;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, hi);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = std::max<std::int64_t>(0, hi - lo - covered);
    }
    return self;
}

std::map<std::string, double>
layerSelfMs(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].request == 0)
            continue;
        out[std::string(layerOf(spans[i].name))] +=
            static_cast<double>(self[i]) / 1e6;
    }
    return out;
}

double
traceCoverage(const std::vector<Span> &spans, double wall_ms)
{
    if (wall_ms <= 0.0)
        return 0.0;
    double layers = 0.0;
    for (const auto &[layer, ms] : layerSelfMs(spans)) {
        if (layer != "bench")
            layers += ms;
    }
    return layers / wall_ms;
}

void
writeChromeTrace(std::ostream &out, const std::vector<Span> &spans)
{
    out << std::fixed << std::setprecision(3);
    out << "{\"traceEvents\":[\n"
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
           "\"args\":{\"name\":\"host\"}}";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
            << layerOf(s.name) << "\",\"ph\":\"X\",\"pid\":2,\"tid\":1"
            << ",\"ts\":" << static_cast<double>(s.startNs) / 1e3
            << ",\"dur\":"
            << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
            << ",\"parent\":";
        if (s.parent == kNoSpan)
            out << "null";
        else
            out << s.parent;
        out << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace tigr::perfbench
