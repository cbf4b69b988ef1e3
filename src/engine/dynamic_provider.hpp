/**
 * @file
 * On-the-fly mapping reasoning (Section 4.1, second virtualization
 * design): a work-unit provider that stores *no* virtual node array
 * and instead recomputes each node's family decomposition from its
 * edge segment and the degree bound K every time it is asked — trading
 * computation for zero mapping memory, exactly as the paper describes.
 *
 * A family is a pure function of (segment begin, degree, K, layout),
 * so one enumerator serves every segment source: the rows of a CSR
 * (dense dynamic mapping) or one side of a DynamicGraph slack arena
 * (arena queries whose (K, layout) no maintained virtualizer matches).
 * Over an arena side its units are identical — starts included — to
 * what ArenaVirtualProvider enumerates off a maintained virtualizer,
 * so which of the two serves a query is unobservable, simulator
 * counters included.
 *
 * It is interchangeable with Schedule in the push/pull drivers: both
 * expose edgeTarget()/edgeWeight()/numValueNodes()/cost()/
 * ignoresWorklist() plus unit enumeration callbacks.
 */
#pragma once

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/schedule.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::engine {

/**
 * Streaming provider of TigrV / TigrV+ work units.
 *
 * The per-node reasoning is the paper's example: "before processing
 * node v2, a reasoning runtime finds its degree is 6, which is greater
 * than K, hence splits it into two virtual nodes". No mapping is ever
 * materialized. The segment source is resolved to raw arrays at
 * construction, so enumeration and edge reads never branch on it.
 */
class DynamicVirtualProvider
{
  public:
    /**
     * Units over the rows of a CSR.
     *
     * @param graph Physical graph (kept by reference).
     * @param degree_bound K.
     * @param layout Consecutive (TigrV) or Coalesced (TigrV+).
     */
    DynamicVirtualProvider(const graph::Csr &graph, NodeId degree_bound,
                           transform::EdgeLayout layout)
        : DynamicVirtualProvider(graph.numNodes(),
                                 graph.rowOffsets().data(), nullptr,
                                 graph.colIndices().data(),
                                 graph.weights().data(), degree_bound,
                                 layout)
    {
    }

    /**
     * Units over one side of a DynamicGraph's slack arenas: the
     * forward arena (Out, push) or the mirrored reverse arena (In,
     * pull — a unit's edge targets are then the gathering node's
     * original in-neighbors, the contract runPull documents). Starts
     * are arena slot indices.
     *
     * @param graph Mutated dynamic graph (kept by reference).
     * @param side Which arena the families split.
     * @param degree_bound K.
     * @param layout Consecutive (TigrV) or Coalesced (TigrV+).
     */
    DynamicVirtualProvider(const dynamic::DynamicGraph &graph,
                           dynamic::GraphSide side, NodeId degree_bound,
                           transform::EdgeLayout layout)
        : DynamicVirtualProvider(
              graph.numNodes(),
              side == dynamic::GraphSide::Out
                  ? graph.segmentBegins().data()
                  : graph.inSegmentBegins().data(),
              side == dynamic::GraphSide::Out
                  ? graph.segmentDegrees().data()
                  : graph.inSegmentDegrees().data(),
              side == dynamic::GraphSide::Out
                  ? graph.arenaTargets().data()
                  : graph.inArenaSources().data(),
              side == dynamic::GraphSide::Out
                  ? graph.arenaWeights().data()
                  : graph.inArenaWeights().data(),
              degree_bound, layout)
    {
    }

    /** Destination of edge slot @p e (provider concept). */
    NodeId edgeTarget(EdgeIndex e) const { return targets_[e]; }

    /** Weight of edge slot @p e, parallel to edgeTarget. */
    Weight edgeWeight(EdgeIndex e) const { return weights_[e]; }

    /** Value nodes = physical nodes (implicit value sync). */
    NodeId numValueNodes() const { return numNodes_; }

    /** Tigr cost model. */
    const CostModel &cost() const { return cost_; }

    /** Dynamic reasoning honors the worklist like the array design. */
    bool ignoresWorklist() const { return false; }

    /** Units node @p v decomposes into: ceil(degree / K) virtual
     *  nodes, with zero-degree nodes keeping one (empty) unit —
     *  exactly what forEachVirtualNodeAt emits, recomputed in O(1). */
    std::uint64_t
    unitCountOf(NodeId v) const
    {
        return transform::familySize(degreeOf(v), degreeBound_);
    }

    /** Recompute and visit the units of node @p v. */
    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        transform::forEachVirtualNodeAt(
            v, begins_[v], degreeOf(v), degreeBound_, layout_,
            [&fn](const transform::VirtualNode &node) {
                WorkUnit unit;
                unit.valueNode = node.physicalId;
                unit.start = node.start;
                unit.stride = static_cast<std::uint32_t>(node.stride);
                unit.count = node.count;
                fn(unit);
            });
    }

    /** Visit every unit of every node. */
    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (NodeId v = 0; v < numValueNodes(); ++v)
            forEachUnitOf(v, fn);
    }

  private:
    /** @p degrees null means CSR rows: degree(v) = begins[v+1] -
     *  begins[v]; otherwise arena segments with explicit live
     *  degrees. */
    DynamicVirtualProvider(NodeId num_nodes, const EdgeIndex *begins,
                           const EdgeIndex *degrees,
                           const NodeId *targets, const Weight *weights,
                           NodeId degree_bound,
                           transform::EdgeLayout layout)
        : numNodes_(num_nodes), begins_(begins), degrees_(degrees),
          targets_(targets), weights_(weights),
          degreeBound_(degree_bound), layout_(layout),
          cost_(costModelFor(layout ==
                                     transform::EdgeLayout::Coalesced
                                 ? Strategy::TigrVPlus
                                 : Strategy::TigrV))
    {
    }

    EdgeIndex
    degreeOf(NodeId v) const
    {
        return degrees_ ? degrees_[v] : begins_[v + 1] - begins_[v];
    }

    NodeId numNodes_;
    const EdgeIndex *begins_;
    const EdgeIndex *degrees_;
    const NodeId *targets_;
    const Weight *weights_;
    NodeId degreeBound_;
    transform::EdgeLayout layout_;
    CostModel cost_;
};

} // namespace tigr::engine
