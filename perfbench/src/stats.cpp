#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tigr::perfbench {

std::size_t
nearestRank(std::size_t n, double q)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n == 0 ? 1 : n);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

std::size_t
minSamplesFor(double q, std::size_t beyond)
{
    std::size_t n = beyond + 1;
    while (samplesBeyond(n, q) < beyond)
        ++n;
    return n;
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of no samples");
    if (!(q > 0.0 && q <= 1.0))
        throw std::invalid_argument("percentile outside (0, 1]");
    const std::size_t rank = nearestRank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

} // namespace tigr::perfbench
