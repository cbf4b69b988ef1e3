#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace tigr::perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> table = {
        {"setup_s", "s", "lower"},
        {"latency_ms_p50", "ms", "lower"},
        {"latency_ms_p90", "ms", "lower"},
        {"throughput_qps", "queries/s", "higher"},
        {"sim_ms_per_query", "sim_ms", "lower"},
        {"peak_rss_mb", "MiB", "lower"},
    };
    return table;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> table = {
        // Commit latency and the error rate are end-to-end quantities,
        // but they are 0 or absent on some workloads, and a gated
        // metric must be measurable and nonzero on every workload.
        {"commit_ms_p50", "ms", "lower"},
        {"commit_ms_p90", "ms", "lower"},
        {"error_rate", "ratio", "lower"},
        {"service.snapshot.load_ms", "ms", "lower"},
        {"service.snapshot.mb_per_s", "MiB/s", "higher"},
        {"engine.schedule_build_ms", "ms", "lower"},
        {"graph.reverse_ms", "ms", "lower"},
        {"engine.pull_transform_ms", "ms", "lower"},
        {"engine.schedule_units", "count", "lower"},
        {"engine.bfs_push_ms", "ms", "lower"},
        {"engine.bfs_pull_ms", "ms", "lower"},
        {"engine.sssp_push_ms", "ms", "lower"},
        {"engine.sssp_pull_ms", "ms", "lower"},
        {"engine.sswp_push_ms", "ms", "lower"},
        {"engine.sswp_pull_ms", "ms", "lower"},
        {"engine.cc_push_ms", "ms", "lower"},
        {"engine.cc_pull_ms", "ms", "lower"},
        {"engine.pr_push_ms", "ms", "lower"},
        {"engine.pr_pull_ms", "ms", "lower"},
        {"engine.bc_ms", "ms", "lower"},
        {"engine.iterations", "count", "lower"},
        {"engine.sparse_iterations", "count", "higher"},
        {"sim.cycles", "count", "lower"},
        {"sim.warps", "count", "lower"},
        {"sim.lane_slots", "count", "lower"},
        {"sim.mem_transactions", "count", "lower"},
        {"sim.warp_efficiency", "ratio", "higher"},
        {"sim.coalescing_factor", "ratio", "higher"},
        {"sim.sweep_ms", "ms", "lower"},
        {"sim.warps_per_ms", "warps/ms", "higher"},
        {"sim.pr_share", "ratio", "lower"},
        {"service.scheduler.engine_ms", "ms", "lower"},
        {"service.scheduler.utilization", "ratio", "higher"},
        {"service.scheduler.social_query_ms", "ms", "lower"},
        {"service.scheduler.road_query_ms", "ms", "lower"},
        {"service.scheduler.cold_batch_ms", "ms", "lower"},
        {"service.scheduler.degraded", "count", "lower"},
        {"service.scheduler.arena_served_ratio", "ratio", "higher"},
        {"service.cache.hit_ratio", "ratio", "higher"},
        {"service.cache.evictions", "count", "lower"},
        {"service.cache.bytes", "bytes", "lower"},
        {"service.cache.entries", "count", "lower"},
        {"service.recovery.open_ms", "ms", "lower"},
        {"service.recovery.records_replayed", "count", "lower"},
        {"service.store.mutate_ms", "ms", "lower"},
        {"dynamic.reverse_repair_ms", "ms", "lower"},
        {"dynamic.touched", "count", "lower"},
        {"dynamic.repaired", "count", "lower"},
        {"dynamic.resplits", "count", "lower"},
        {"dynamic.compactions", "count", "lower"},
        {"dynamic.reclaimed_slots", "count", "higher"},
        {"service.journal.sync_ms", "ms", "lower"},
        {"service.journal.bytes_per_mutation", "bytes", "lower"},
        {"service.journal.checkpoint_ms", "ms", "lower"},
        {"service.scheduler.fresh_query_ms", "ms", "lower"},
        {"trace.coverage", "ratio", "higher"},
        {"trace.overhead_pct", "%", "lower"},
    };
    return table;
}

const MetricDef *
findMetric(std::string_view name)
{
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *table) {
            if (def.name == name)
                return &def;
        }
    }
    return nullptr;
}

void
Report::set(std::string_view name, double value)
{
    if (!findMetric(name))
        throw std::invalid_argument("unknown metric '" +
                                    std::string(name) + "'");
    values_[std::string(name)] = value;
}

const double *
Report::get(std::string_view name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

namespace {

/** The value reported for @p def: recorded, or 0 for a per-layer
 *  metric whose layer the workload does not run. */
double
reported(const Report &report, const MetricDef &def, bool traced)
{
    if (const double *value = report.get(def.name))
        return *value;
    if (traced)
        return 0.0;
    throw std::logic_error("end-to-end metric '" +
                           std::string(def.name) + "' was not measured");
}

} // namespace

std::string
Report::resultJson(bool traced, bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &def :
         traced ? perLayerMetrics() : endToEndMetrics()) {
        out << (first ? "" : ", ") << jsonString(def.name)
            << ": {\"value\": " << jsonNumber(reported(*this, def, traced))
            << ", \"unit\": " << jsonString(def.unit) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

void
Report::printTable(std::ostream &out, bool traced) const
{
    for (const MetricDef &def :
         traced ? perLayerMetrics() : endToEndMetrics()) {
        out << "  " << std::left << std::setw(40) << def.name << " "
            << std::setw(22) << jsonNumber(reported(*this, def, traced))
            << " " << def.unit << "\n";
    }
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw std::logic_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace tigr::perfbench
