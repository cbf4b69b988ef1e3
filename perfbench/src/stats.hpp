/**
 * @file
 * Sample statistics for the benchmark's timings.
 *
 * Percentiles use the nearest-rank definition, so every reported value
 * is a sample that was actually measured. A percentile is only
 * reported when at least kMinBeyond samples lie beyond it; the timed
 * loops keep running until that holds (see minSamplesFor).
 */
#pragma once

#include <cstddef>
#include <vector>

namespace tigr::perfbench {

/** Samples that must lie strictly beyond a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/** 1-based nearest rank of quantile @p q (in (0, 1]) among @p n
 *  samples: ceil(q * n), at least 1. */
std::size_t nearestRank(std::size_t n, double q);

/** Samples strictly beyond the nearest-rank @p q quantile of @p n
 *  samples: n - nearestRank(n, q). */
std::size_t samplesBeyond(std::size_t n, double q);

/** Smallest sample count that leaves at least @p beyond samples past
 *  the @p q quantile (100 for q = 0.9 and beyond = 10). */
std::size_t minSamplesFor(double q, std::size_t beyond = kMinBeyond);

/**
 * Nearest-rank @p q quantile of @p samples.
 * @throws std::invalid_argument when @p samples is empty or q is
 *         outside (0, 1].
 */
double percentile(std::vector<double> samples, double q);

/** percentile(samples, 0.5); throws on an empty vector. */
double median(std::vector<double> samples);

} // namespace tigr::perfbench
