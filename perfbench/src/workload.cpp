#include "workload.hpp"

#include <sys/resource.h>

#include <fstream>
#include <stdexcept>

#include "engine/push_engine.hpp"
#include "sim/warp_simulator.hpp"
#include "stats.hpp"

namespace tigr::perfbench {

namespace {

/** Wall-clock ceiling of a timed phase: keeps a run inside its time
 *  limit even on a machine far slower than the benchmark was sized
 *  for. */
constexpr double kMaxPhaseSeconds = 120.0;

} // namespace

void
RunContext::count(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

TimedPhase
runTimed(RunContext &ctx, std::size_t pass, std::size_t warmup,
         const std::function<std::size_t()> &samples,
         const std::function<UnitResult(const Unit &)> &unit)
{
    ctx.tracer.setActive(false);
    for (std::size_t i = 0; i < warmup; ++i)
        unit(Unit{i, false, false});

    const std::size_t min_samples = minSamplesFor(0.9);
    const std::size_t min_units = ctx.cfg.trace ? 2 * pass : pass;
    const auto start = std::chrono::steady_clock::now();
    TimedPhase phase;
    while (phase.totalMs() < ctx.cfg.seconds * 1e3 ||
           phase.units < min_units || samples() < min_samples) {
        if (msSince(start) > kMaxPhaseSeconds * 1e3) {
            throw std::runtime_error(
                "timed phase collected " + std::to_string(samples()) +
                " latency samples in " +
                std::to_string(kMaxPhaseSeconds) + " s; " +
                std::to_string(min_samples) + " are needed");
        }
        const bool traced = ctx.cfg.trace && (phase.units / pass) % 2 == 1;
        ctx.tracer.setActive(traced);
        const UnitResult result =
            unit(Unit{warmup + phase.units, true, phase.units < pass});
        ++phase.units;
        (traced ? phase.tracedMs : phase.untracedMs) += result.ms;
        (traced ? phase.tracedQueries : phase.untracedQueries) +=
            result.queries;
    }
    ctx.tracer.setActive(true);
    return phase;
}

void
reportPhase(RunContext &ctx, const TimedPhase &phase)
{
    if (!ctx.cfg.trace) {
        ctx.report.set("throughput_qps",
                       phase.totalQueries() / (phase.totalMs() / 1e3));
        return;
    }
    ctx.report.set("trace.coverage",
                   traceCoverage(ctx.tracer.spans(), phase.tracedMs));
    const double traced = phase.tracedQueries / phase.tracedMs;
    const double untraced = phase.untracedQueries / phase.untracedMs;
    ctx.report.set("trace.overhead_pct",
                   100.0 * (untraced - traced) / untraced);
}

std::vector<double>
spanMs(const Tracer &tracer, std::string_view name)
{
    std::vector<double> out;
    for (const Span &span : tracer.spans()) {
        if (span.name == name)
            out.push_back(static_cast<double>(span.endNs - span.startNs) /
                          1e6);
    }
    return out;
}

double
medianSpanMs(const Tracer &tracer, std::string_view name)
{
    std::vector<double> samples = spanMs(tracer, name);
    return samples.empty() ? 0.0 : median(std::move(samples));
}

void
PassCounters::add(const engine::RunInfo &info)
{
    total.iterations += info.iterations;
    total.sparseIterations += info.sparseIterations;
    total.stats += info.stats;
    simMs += info.simulatedMs();
    ++queries;
}

void
reportEndToEnd(RunContext &ctx, const std::vector<double> &setup_s,
               const std::vector<double> &latencies,
               const PassCounters &pass)
{
    Report &out = ctx.report;
    out.set("setup_s", median(setup_s));
    out.set("latency_ms_p50", percentile(latencies, 0.5));
    out.set("latency_ms_p90", percentile(latencies, 0.9));
    out.set("sim_ms_per_query",
            pass.simMs / static_cast<double>(pass.queries));
    out.set("peak_rss_mb", peakRssMiB());
}

void
reportPassCounters(RunContext &ctx, const PassCounters &pass)
{
    Report &out = ctx.report;
    const sim::KernelStats &stats = pass.total.stats;
    out.set("engine.iterations", pass.total.iterations);
    out.set("engine.sparse_iterations", pass.total.sparseIterations);
    out.set("sim.cycles", static_cast<double>(stats.cycles));
    out.set("sim.warps", static_cast<double>(stats.warps));
    out.set("sim.lane_slots", static_cast<double>(stats.laneSlots));
    out.set("sim.mem_transactions",
            static_cast<double>(stats.memTransactions));
    out.set("sim.warp_efficiency", stats.warpEfficiency());
    out.set("sim.coalescing_factor", stats.coalescingFactor());
}

double
reportSweep(RunContext &ctx,
            const std::vector<const engine::Schedule *> &schedules)
{
    double sweep_ms = 0.0;
    std::uint64_t warps = 0;
    sim::WarpSimulator simulator;
    for (const engine::Schedule *schedule : schedules) {
        const auto units = schedule->allUnits();
        auto describe = [&](std::uint64_t tid) {
            return engine::detail::describeUnit(units[tid],
                                                schedule->cost());
        };
        std::vector<double> samples;
        for (int rep = 0; rep < 5; ++rep) {
            SpanScope span(ctx.tracer, "sim.sweep");
            const auto start = std::chrono::steady_clock::now();
            const sim::KernelStats stats =
                simulator.launch(units.size(), describe);
            samples.push_back(msSince(start));
            if (rep == 0)
                warps += stats.warps;
        }
        sweep_ms += median(std::move(samples));
    }
    ctx.report.set("sim.sweep_ms", sweep_ms);
    ctx.report.set("sim.warps_per_ms", static_cast<double>(warps) / sweep_ms);
    return sweep_ms;
}

void
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

double
peakRssMiB()
{
    // VmHWM honours the clear_refs reset; ru_maxrss is the fallback.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace tigr::perfbench
