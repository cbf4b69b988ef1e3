/**
 * @file
 * Output checks. They run untimed on every request; each request whose
 * output disagrees with its oracle counts once toward `failed`. Exact
 * results (distances, widths, labels) compare with ==.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/io.hpp"

namespace tigr::perfbench {

/** Absolute tolerance of a PageRank value against ref::pageRank (the
 *  engines sum shares in another order than the oracle). */
inline constexpr double kRankTolerance = 1e-9;
/** Relative tolerance of a centrality value against
 *  ref::betweennessCentrality. */
inline constexpr double kCentralityTolerance = 1e-6;

/** True when every |got - want| <= abs_tol + rel_tol * |want|. */
inline bool
nearMatch(const std::vector<double> &got, const std::vector<double> &want,
          double abs_tol, double rel_tol)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        // Written so that a NaN fails the check.
        if (!(std::abs(got[i] - want[i]) <=
              abs_tol + rel_tol * std::abs(want[i])))
            return false;
    }
    return true;
}

/** The digest QueryResult::digest carries: FNV-1a 64 over the raw
 *  value bytes. */
template <typename T>
std::uint64_t
valueDigest(const std::vector<T> &values)
{
    return graph::fnv1a64(values.data(), values.size() * sizeof(T));
}

} // namespace tigr::perfbench
