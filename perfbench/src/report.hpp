/**
 * @file
 * The benchmark's metric tables and its result line.
 *
 * The two tables below are the source of truth for the metric names,
 * units and directions; BENCHMARK.json at the repository root lists the
 * same names (a test keeps the two in step). An untraced run reports
 * every end-to-end metric, a traced run every per-layer metric. A
 * per-layer metric whose layer the workload never calls reads 0.
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tigr::perfbench {

/** One metric of a table. */
struct MetricDef
{
    std::string_view name;
    std::string_view unit;
    /** "lower" or "higher". */
    std::string_view better;
};

/** Metrics a user of the system sees, measured with tracing off. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of single layers, measured by the traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/** The table entry named @p name, or null. */
const MetricDef *findMetric(std::string_view name);

/** Collected metric values of one run. */
class Report
{
  public:
    /** Record @p value for @p name.
     *  @throws std::invalid_argument for a name in neither table. */
    void set(std::string_view name, double value);

    /** The recorded value, or null. */
    const double *get(std::string_view name) const;

    /**
     * The JSON result object of a run: correct/attempted/failed plus
     * the metrics of the end-to-end table (traced = false) or of the
     * per-layer table (traced = true).
     * @throws std::logic_error when an end-to-end metric is missing.
     */
    std::string resultJson(bool traced, bool correct,
                           std::uint64_t attempted,
                           std::uint64_t failed) const;

    /** Human-readable "name value unit" lines for @p traced's table. */
    void printTable(std::ostream &out, bool traced) const;

  private:
    std::map<std::string, double, std::less<>> values_;
};

/** Format a double with all its significant digits.
 *  @throws std::logic_error for NaN or infinity (JSON has neither). */
std::string jsonNumber(double value);

/** Escape @p text as a JSON string literal, quotes included. */
std::string jsonString(std::string_view text);

} // namespace tigr::perfbench
