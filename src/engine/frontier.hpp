/**
 * @file
 * The adaptive frontier: the active-set representation behind the push
 * driver's worklist and the pull driver's destination filter.
 *
 * A Frontier is a dense activity bitmap paired with a deduplicated
 * activation list. Activation goes through the bitmap, so a node
 * activated by many chunks of a merge appears in the list exactly
 * once; clearing walks the list instead of zero-filling the bitmap, so
 * an iteration's frontier bookkeeping costs O(|frontier|), not O(n).
 *
 * compacted() produces the ascending node-id list a sparse iteration
 * launches from. When the activation list is valid (the common case —
 * every activation since the last clear went through activate()) and
 * short next to n, it is sorted in place; when it is long enough that
 * sorting costs more than a bitmap scan (compactsByScan), or invalid
 * (an all-active reset, as CC starts with), the list is rebuilt from
 * the bitmap with the classic parallel count-then-prefix-scan
 * compaction (par::chunkedCompact, reusing the scan in src/par),
 * bit-identical at any thread count. Either way the compacted order
 * equals the ascending order a dense O(n) bitmap scan would visit —
 * which is what makes sparse and dense iterations launch the *same*
 * unit list and therefore compute identical values, iteration counts,
 * and main-launch counters (docs/frontier.md).
 */
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/types.hpp"
#include "par/parallel_for.hpp"

namespace tigr::engine {

/** How the push driver represents each iteration's frontier. */
enum class FrontierMode
{
    /** Always scan the dense bitmap over all n nodes (the classic
     *  engine behavior; the reference point for the others). */
    Dense,
    /** Always launch from the compacted node-id list. */
    Sparse,
    /** Per-iteration Gunrock-style occupancy switch: sparse while
     *  |frontier| <= ratio * n, dense above. */
    Adaptive,
};

/** All frontier modes, in declaration order. */
inline constexpr FrontierMode kAllFrontierModes[] = {
    FrontierMode::Dense,
    FrontierMode::Sparse,
    FrontierMode::Adaptive,
};

/** Default occupancy ratio of the adaptive switch: iterations whose
 *  frontier holds at most 5% of the nodes run sparse. */
inline constexpr double kDefaultFrontierRatio = 0.05;

/** Display name ("dense", "sparse", "adaptive"). */
std::string_view frontierModeName(FrontierMode mode);

/** Parse a display name back to a FrontierMode. */
std::optional<FrontierMode> parseFrontierMode(std::string_view name);

/** Does compacted() rebuild an unsorted activation list of @p count
 *  nodes by scanning the @p n-entry bitmap instead of sorting it? A
 *  sort costs about count * log2(count), a scan n; both produce the
 *  same ascending list, so the rule decides cost only. */
inline bool
compactsByScan(std::uint64_t count, NodeId n)
{
    return count * std::bit_width(count) > n;
}

/**
 * The active-node set of one BSP iteration.
 *
 * Not thread-safe: activate()/clear() are called from the drivers'
 * serial merge phase only. compacted() may parallelize internally over
 * the pool it is handed, with a thread-count-invariant result.
 */
class Frontier
{
  public:
    /** Size the frontier for @p n nodes, all active or all inactive.
     *  An all-active reset marks the activation list invalid, so the
     *  next compacted() call rebuilds it from the bitmap. */
    void reset(NodeId n, bool all_active);

    /** Activate node @p v; deduplicated through the bitmap.
     *  @return true when @p v was newly activated. */
    bool
    activate(NodeId v)
    {
        if (bits_[v])
            return false;
        bits_[v] = 1;
        ++count_;
        if (listValid_) {
            nodes_.push_back(v);
            sorted_ = false;
        }
        return true;
    }

    /** Is node @p v active? */
    bool active(NodeId v) const { return bits_[v] != 0; }

    /** Number of active nodes. */
    std::uint64_t count() const { return count_; }

    /** True when no node is active. */
    bool empty() const { return count_ == 0; }

    /** Number of nodes the frontier was reset() for. */
    NodeId universe() const { return n_; }

    /** Deactivate everything. Costs O(active) when the activation list
     *  is valid — the touched-only clearing that replaces the per-
     *  iteration O(n) zero-fill — and O(n) only after an all-active
     *  reset. */
    void clear();

    /** The active nodes in ascending id order. The span is valid until
     *  the next mutating call. */
    std::span<const NodeId> compacted(par::ThreadPool *pool);

    void
    swap(Frontier &other) noexcept
    {
        std::swap(n_, other.n_);
        bits_.swap(other.bits_);
        nodes_.swap(other.nodes_);
        std::swap(count_, other.count_);
        std::swap(listValid_, other.listValid_);
        std::swap(sorted_, other.sorted_);
    }

  private:
    NodeId n_ = 0;
    /** Dense activity bitmap (the dedup filter and the dense scan). */
    std::vector<std::uint8_t> bits_;
    /** Deduplicated activation list; exactly the active set when
     *  listValid_, ascending when additionally sorted_. */
    std::vector<NodeId> nodes_;
    std::uint64_t count_ = 0;
    bool listValid_ = true;
    bool sorted_ = true;
};

} // namespace tigr::engine
