/**
 * @file
 * What the three workloads share: the run configuration, the per-run
 * context (tracer, metrics, error accounting) and the timed loop.
 *
 * Every workload is a closed loop driven by one client thread. Its
 * timed phase runs units (an analysis cycle, a query batch, a mutation
 * round): a fixed number of warm-up units first, then measured units
 * until --seconds of timed work have run, the first measured pass is
 * complete, and enough latency samples exist for the p90 rule. Untimed work inside a unit (output checks, generating the
 * next mutation batches) is excluded from the timed time. In a traced
 * run, whole passes alternate between untraced and traced, so the two
 * throughputs give the tracing overhead over the same request mix.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "engine/graph_engine.hpp"
#include "engine/schedule.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace tigr::perfbench {

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Sizes sizes = Sizes::full();
    /** Scratch directory for this run's inputs and durable state. */
    std::filesystem::path workDir;
};

/** Mutable state of one run. */
struct RunContext
{
    explicit RunContext(RunConfig config)
        : cfg(std::move(config)), tracer(cfg.trace)
    {
    }

    /** Count one attempted operation; a false @p ok counts it failed
     *  and records @p what for the log. */
    void count(bool ok, const std::string &what);

    RunConfig cfg;
    Tracer tracer;
    Report report;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
};

/** Milliseconds on the steady clock since @p start. */
inline double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Which unit of the timed loop is running. */
struct Unit
{
    /** Units run so far, warm-up included (seeds and rotations key on
     *  this, so a unit does the same work in every run). */
    std::size_t index = 0;
    /** False for warm-up units, whose timings are discarded. */
    bool measured = false;
    /** True for the first measured pass, the prefix every run completes
     *  and the deterministic counters are taken over. */
    bool firstPass = false;
};

/** What one timed unit did. */
struct UnitResult
{
    /** Timed milliseconds (untimed checks excluded). */
    double ms = 0.0;
    /** Queries the unit completed. */
    std::size_t queries = 0;
};

/** Totals of a timed phase. */
struct TimedPhase
{
    std::size_t units = 0;
    double tracedMs = 0.0, untracedMs = 0.0;
    std::size_t tracedQueries = 0, untracedQueries = 0;

    double totalMs() const { return tracedMs + untracedMs; }
    std::size_t totalQueries() const
    {
        return tracedQueries + untracedQueries;
    }
};

/**
 * Run @p warmup unmeasured units, then measured units until the stop
 * rule holds (see the file comment). Warm-up absorbs the slow start of
 * a machine that was idle; its outputs are still checked.
 * @param pass Units of one pass over the workload's request mix. Every
 *        run completes the first measured pass; a traced run also
 *        completes a traced second pass.
 * @param samples Latency samples collected so far.
 * @throws std::runtime_error when the samples cannot be collected
 *         within the run's time limit.
 */
TimedPhase runTimed(RunContext &ctx, std::size_t pass, std::size_t warmup,
                    const std::function<std::size_t()> &samples,
                    const std::function<UnitResult(const Unit &)> &unit);

/** Report the timed phase's throughput (untraced runs) or the tracing
 *  coverage and overhead (traced runs). */
void reportPhase(RunContext &ctx, const TimedPhase &phase);

/** Durations in ms of the spans named @p name. */
std::vector<double> spanMs(const Tracer &tracer, std::string_view name);

/** Median of spanMs(), or 0 when no such span was recorded. */
double medianSpanMs(const Tracer &tracer, std::string_view name);

/** Engine counters of the first measured pass. */
struct PassCounters
{
    engine::RunInfo total;
    double simMs = 0.0;
    std::size_t queries = 0;

    void add(const engine::RunInfo &info);
};

/** Report the end-to-end metrics every workload shares except
 *  throughput_qps (untraced runs). */
void reportEndToEnd(RunContext &ctx, const std::vector<double> &setup_s,
                    const std::vector<double> &latencies,
                    const PassCounters &pass);

/** Report engine.iterations, engine.sparse_iterations and the sim.*
 *  counters of the first pass (traced runs). */
void reportPassCounters(RunContext &ctx, const PassCounters &pass);

/** Time WarpSimulator launches over every unit of each of @p schedules,
 *  described the way the engine describes them (describeUnit under the
 *  schedule's cost model) on one host thread like every engine in the
 *  benchmark, and report sim.sweep_ms (the sum over the schedules of
 *  the median of 5 launches) and sim.warps_per_ms. Returns
 *  sim.sweep_ms. */
double reportSweep(RunContext &ctx,
                   const std::vector<const engine::Schedule *> &schedules);

/** Reset the process's peak-RSS mark, so peak_rss_mb excludes input
 *  generation (no-op where /proc/self/clear_refs is unavailable). */
void resetPeakRss();

/** Peak resident set in MiB since the last reset. */
double peakRssMiB();

void runAnalyticsSkewed(RunContext &ctx);
void runServeMixed(RunContext &ctx);
void runMutateDurable(RunContext &ctx);

} // namespace tigr::perfbench
