/**
 * @file
 * Host-time spans recorded by the benchmark around every public call it
 * makes into a layer of the library or the service.
 *
 * Spans live in memory while the benchmark runs and are written once,
 * at exit, as Chrome trace_event JSON on a "host" process track. A
 * span's layer is its name without the last dotted component
 * ("service.store.mutate" belongs to "service.store"); the benchmark's
 * own request spans belong to the layer "bench". Spans are recorded
 * from one thread only, the benchmark's client thread.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tigr::perfbench {

/** Index meaning "no span" (a root's parent, a disabled scope). */
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/** One recorded call. Times are nanoseconds since the tracer started. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, or kNoSpan. */
    std::size_t parent = kNoSpan;
    /** Request the span belongs to; 0 = outside any request (setup,
     *  probes). Spans of one request share the id. */
    std::uint32_t request = 0;
};

/** The layer a span name belongs to: the name up to its last '.'. */
std::string_view layerOf(std::string_view name);

/** Records spans while enabled and active. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Spans are recorded only while active; the benchmark alternates
     *  traced and untraced units to measure the tracing overhead. */
    void setActive(bool active) { active_ = active; }
    bool recording() const { return enabled_ && active_; }

    /** Start a request: opens its "bench.request" root span and tags
     *  every span until endRequest() with a fresh id. */
    void beginRequest();
    void endRequest();

    /** Open a span; returns its index, or kNoSpan when not recording.
     *  @p name must outlive the tracer (string literals). */
    std::size_t open(const char *name);
    /** Close the span opened as @p index (no-op for kNoSpan). */
    void close(std::size_t index);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    bool active_ = true;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::uint32_t nextRequest_ = 1;
    std::uint32_t request_ = 0;
    std::size_t requestSpan_ = kNoSpan;
};

/** RAII span around one call. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.open(name))
    {
    }
    ~SpanScope() { tracer_.close(index_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    std::size_t index_;
};

/** Self time of every span in nanoseconds: its duration minus the part
 *  of its interval covered by its direct children (overlapping
 *  children are merged, children are clipped to the parent). */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Self milliseconds per layer, over spans inside requests only. */
std::map<std::string, double>
layerSelfMs(const std::vector<Span> &spans);

/** Share of @p wall_ms spent inside layer calls: the self time of all
 *  request spans outside the "bench" layer, divided by @p wall_ms. */
double traceCoverage(const std::vector<Span> &spans, double wall_ms);

/** Write @p spans as Chrome trace_event JSON: one complete ("X") event
 *  per span on the "host" process (pid 2; the library's simulated-
 *  cycle export uses pid 1), with the request id and parent index in
 *  args. */
void writeChromeTrace(std::ostream &out, const std::vector<Span> &spans);

} // namespace tigr::perfbench
