/**
 * @file
 * Mutable CSR with per-vertex edge slack: the graph container behind the
 * dynamic subsystem (docs/dynamic.md). Applies MutationBatches in whole
 * epochs with strong exception guarantees, keeps each vertex's edge
 * segment contiguous (so the virtual split math still applies per
 * vertex), and compacts dead slack periodically.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/mutation.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace tigr::dynamic {

/** One vertex whose edge segment a batch changed. Reweight-only touches
 *  appear with oldDegree == newDegree (the virtualizer skips them; the
 *  cache invalidation layer must not). */
struct TouchedVertex
{
    NodeId vertex = 0;
    EdgeIndex oldDegree = 0;
    EdgeIndex newDegree = 0;

    friend bool operator==(const TouchedVertex &,
                           const TouchedVertex &) = default;
};

/** What one applied batch changed: the epoch it produced plus the
 *  per-vertex degree deltas the IncrementalVirtualizer repairs from. */
struct EpochDelta
{
    /** Epoch the graph is at after this batch (first batch -> 1). */
    std::uint64_t epoch = 0;

    /** Vertices whose out-segment the batch touched, sorted by id,
     *  no duplicates. */
    std::vector<TouchedVertex> touched;

    /** Vertices whose in-segment the batch touched (the mirror of
     *  `touched` over the reverse arena: degrees are in-degrees),
     *  sorted by id, no duplicates. */
    std::vector<TouchedVertex> touchedIn;

    std::size_t inserts = 0;
    std::size_t deletes = 0;
    std::size_t reweights = 0;
};

/**
 * A directed weighted graph that starts life as an immutable Csr and
 * then absorbs mutation batches.
 *
 * Storage is a slack arena: per-vertex (begin, degree, capacity)
 * triples over shared target/weight arrays. Construction is tight
 * (capacity == degree, begins == the Csr's row offsets). An insert
 * into a full segment relocates that vertex's block to the arena tail
 * with growth slack; the abandoned block becomes dead slack that
 * compact() reclaims. Deletes shift the remainder of the segment left,
 * preserving storage order — so toCsr() of an unmutated graph equals
 * the source Csr exactly, and edge order stays the stable order
 * Csr::fromCoo would produce.
 *
 * A mirrored *reverse* slack arena keeps each vertex's in-neighbor
 * segment contiguous and is updated in the same O(touched) pass as the
 * forward one. The in-segment invariant matches Csr::reversed()'s
 * counting sort exactly: entries ordered by source id ascending, and
 * among equal sources by the forward slot order of the parallel
 * (src, dst) edges. Inserts place the new source at the upper bound of
 * its id (the new forward edge is appended last in its segment, so it
 * ranks last among equal sources); deletes and reweights hit the first
 * in-entry with the matching source, mirroring the forward first-match
 * rule. Consequently toReversedCsr() is bit-identical to
 * toCsr().reversed() at every epoch.
 *
 * apply() validates the whole batch before touching any state: a
 * thrown MutationError (or an injected fault at the mutation.apply
 * site) leaves the graph bit-for-bit unchanged.
 */
class DynamicGraph
{
  public:
    DynamicGraph() = default;

    /** Adopt @p source at epoch 0 with a tight arena. */
    explicit DynamicGraph(const graph::Csr &source);

    /** Number of nodes (fixed for the lifetime of the graph). */
    NodeId numNodes() const
    {
        return static_cast<NodeId>(degrees_.size());
    }

    /** Number of live edges. */
    EdgeIndex numEdges() const { return liveEdges_; }

    /** Outdegree of node @p v. */
    EdgeIndex degree(NodeId v) const { return degrees_[v]; }

    /** First arena slot of node @p v's segment. */
    EdgeIndex edgeBegin(NodeId v) const { return begins_[v]; }

    /** Allocated capacity of node @p v's segment. */
    EdgeIndex capacity(NodeId v) const { return caps_[v]; }

    /** Destinations of node @p v's live edges. */
    std::span<const NodeId>
    outNeighbors(NodeId v) const
    {
        return {targets_.data() + begins_[v],
                static_cast<std::size_t>(degrees_[v])};
    }

    /** Weights of node @p v's live edges, parallel to outNeighbors. */
    std::span<const Weight>
    outWeights(NodeId v) const
    {
        return {weights_.data() + begins_[v],
                static_cast<std::size_t>(degrees_[v])};
    }

    /** Destination stored in arena slot @p slot. Valid for any slot an
     *  arena-addressed virtual entry owns (inside a live segment). */
    NodeId arenaTarget(EdgeIndex slot) const { return targets_[slot]; }

    /** Weight stored in arena slot @p slot, parallel to arenaTarget. */
    Weight arenaWeight(EdgeIndex slot) const { return weights_[slot]; }

    /** Every forward arena slot's destination (live + slack), indexed
     *  like arenaTarget. */
    std::span<const NodeId> arenaTargets() const { return targets_; }

    /** Every forward arena slot's weight, parallel to arenaTargets. */
    std::span<const Weight> arenaWeights() const { return weights_; }

    /** Per-vertex segment begins (size n), for validating externally
     *  produced arena-addressed virtual arrays. */
    std::span<const EdgeIndex> segmentBegins() const { return begins_; }

    /** Per-vertex live degrees (size n), parallel to segmentBegins. */
    std::span<const EdgeIndex> segmentDegrees() const
    {
        return degrees_;
    }

    /** Indegree of node @p v (reverse arena). */
    EdgeIndex inDegree(NodeId v) const { return inDegrees_[v]; }

    /** First reverse-arena slot of node @p v's in-segment. */
    EdgeIndex inEdgeBegin(NodeId v) const { return inBegins_[v]; }

    /** Allocated capacity of node @p v's in-segment. */
    EdgeIndex inCapacity(NodeId v) const { return inCaps_[v]; }

    /** Sources of node @p v's live in-edges, ordered by source id then
     *  forward slot order — the order Csr::reversed() produces. */
    std::span<const NodeId>
    inNeighbors(NodeId v) const
    {
        return {inSources_.data() + inBegins_[v],
                static_cast<std::size_t>(inDegrees_[v])};
    }

    /** Weights of node @p v's live in-edges, parallel to inNeighbors. */
    std::span<const Weight>
    inWeights(NodeId v) const
    {
        return {inWeights_.data() + inBegins_[v],
                static_cast<std::size_t>(inDegrees_[v])};
    }

    /** Source stored in reverse-arena slot @p slot. Valid for any slot
     *  an arena-addressed reverse virtual entry owns. */
    NodeId inArenaSource(EdgeIndex slot) const
    {
        return inSources_[slot];
    }

    /** Weight stored in reverse-arena slot @p slot, parallel to
     *  inArenaSource. */
    Weight inArenaWeight(EdgeIndex slot) const
    {
        return inWeights_[slot];
    }

    /** Every reverse arena slot's source (live + slack), indexed like
     *  inArenaSource. */
    std::span<const NodeId> inArenaSources() const { return inSources_; }

    /** Every reverse arena slot's weight, parallel to inArenaSources. */
    std::span<const Weight> inArenaWeights() const { return inWeights_; }

    /** Per-vertex in-segment begins (size n). */
    std::span<const EdgeIndex> inSegmentBegins() const
    {
        return inBegins_;
    }

    /** Per-vertex live in-degrees (size n), parallel to
     *  inSegmentBegins. */
    std::span<const EdgeIndex> inSegmentDegrees() const
    {
        return inDegrees_;
    }

    /** Total reverse-arena slots (live + slack). */
    EdgeIndex inArenaSlots() const
    {
        return static_cast<EdgeIndex>(inSources_.size());
    }

    /** Dead + over-allocated slots in the reverse arena. */
    EdgeIndex inSlackSlots() const
    {
        return inArenaSlots() - liveEdges_;
    }

    /** Current epoch: number of batches applied so far. */
    std::uint64_t epoch() const { return epoch_; }

    /** Total arena slots (live + slack). */
    EdgeIndex arenaSlots() const
    {
        return static_cast<EdgeIndex>(targets_.size());
    }

    /** Dead + over-allocated slots in the arena. */
    EdgeIndex slackSlots() const { return arenaSlots() - liveEdges_; }

    /** Slack as a fraction of the arena (0 for an empty arena). */
    double slackRatio() const;

    /** Number of compactions run so far (automatic + explicit). */
    std::uint64_t compactions() const { return compactions_; }

    /**
     * Validate then apply @p batch as one epoch.
     *
     * Validation covers the entire batch against the *projected* state:
     * node ids in range, and every delete/reweight matched against live
     * edges plus in-batch inserts minus earlier in-batch deletes of the
     * same (src, dst) pair. Only after the whole batch validates is any
     * state written (strong guarantee). The fault site
     * `mutation.apply` fires between validation and the first write, so
     * an injected fault also leaves the graph untouched.
     *
     * @throws MutationError naming the first offending batch position.
     */
    EpochDelta apply(const MutationBatch &batch);

    /** True when the arena has accumulated enough slack to be worth
     *  compacting (> 50% slack and at least 64 slack slots). Callers —
     *  GraphStore::mutate, tigr mutate — poll this after apply() and
     *  call compact(); keeping compaction out of apply() means a fault
     *  at either site interrupts exactly one of the two steps. */
    bool shouldCompact() const;

    /**
     * Rebuild a tight arena (capacity == degree, segments in vertex
     * order). Does not change any live edge or the epoch. The fault
     * site `mutation.compact` fires before the first write, so an
     * injected fault leaves the (uncompacted but consistent) arena
     * as it was.
     *
     * @return Number of arena slots reclaimed.
     */
    EdgeIndex compact();

    /** Materialize the live graph as a dense, immutable Csr. The
     *  result is bit-identical to applying the same batches via COO
     *  edge-list surgery: segments in vertex order, stable edge order
     *  within each vertex. */
    graph::Csr toCsr() const;

    /** Materialize the reversed live graph as a dense Csr straight
     *  from the reverse arena — bit-identical to toCsr().reversed()
     *  without building the forward Csr first. */
    graph::Csr toReversedCsr() const;

  private:
    /** Move node @p v's segment to the arena tail with room for at
     *  least @p need slots. */
    void relocate(NodeId v, EdgeIndex need);

    /** Move node @p v's in-segment to the reverse-arena tail with room
     *  for at least @p need slots. */
    void relocateIn(NodeId v, EdgeIndex need);

    std::vector<EdgeIndex> begins_;
    std::vector<EdgeIndex> degrees_;
    std::vector<EdgeIndex> caps_;
    std::vector<NodeId> targets_;
    std::vector<Weight> weights_;
    std::vector<EdgeIndex> inBegins_;
    std::vector<EdgeIndex> inDegrees_;
    std::vector<EdgeIndex> inCaps_;
    std::vector<NodeId> inSources_;
    std::vector<Weight> inWeights_;
    EdgeIndex liveEdges_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace tigr::dynamic
