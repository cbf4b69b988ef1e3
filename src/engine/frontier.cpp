#include "engine/frontier.hpp"

#include <algorithm>

namespace tigr::engine {

std::string_view
frontierModeName(FrontierMode mode)
{
    switch (mode) {
      case FrontierMode::Dense: return "dense";
      case FrontierMode::Sparse: return "sparse";
      case FrontierMode::Adaptive: return "adaptive";
    }
    return "unknown";
}

std::optional<FrontierMode>
parseFrontierMode(std::string_view name)
{
    for (FrontierMode mode : kAllFrontierModes)
        if (frontierModeName(mode) == name)
            return mode;
    return std::nullopt;
}

void
Frontier::reset(NodeId n, bool all_active)
{
    n_ = n;
    bits_.assign(n, all_active ? 1 : 0);
    nodes_.clear();
    count_ = all_active ? n : 0;
    listValid_ = !all_active;
    sorted_ = true;
}

void
Frontier::clear()
{
    if (listValid_) {
        for (NodeId v : nodes_)
            bits_[v] = 0;
    } else {
        std::fill(bits_.begin(), bits_.end(), 0);
    }
    nodes_.clear();
    count_ = 0;
    listValid_ = true;
    sorted_ = true;
}

std::span<const NodeId>
Frontier::compacted(par::ThreadPool *pool)
{
    if (!listValid_ || (!sorted_ && compactsByScan(count_, n_))) {
        par::chunkedCompact(
            pool, n_,
            [this](std::uint64_t i) { return bits_[i] != 0; }, nodes_);
        listValid_ = true;
        sorted_ = true;
    } else if (!sorted_) {
        std::sort(nodes_.begin(), nodes_.end());
        sorted_ = true;
    }
    return nodes_;
}

} // namespace tigr::engine
