/**
 * @file
 * Work-unit provider over an arena-addressed virtual array: queries run
 * straight off a DynamicGraph's slack arenas and a maintained
 * IncrementalVirtualizer, with no dense toCsr() / toReversedCsr()
 * materialization on the mutate→query path (docs/dynamic.md, arena
 * addressing).
 *
 * Work-unit starts are arena slot indices; the push/pull drivers read
 * edges exclusively through edgeTarget()/edgeWeight(), which index the
 * arena arrays of the virtualizer's side. Because every virtual entry
 * owns slots inside its vertex's live segment, the enumerated (source,
 * target, weight) triples — and therefore every analysis value — are
 * identical to a Schedule over the dense rebuild; only the slot numbers
 * differ, which the warp simulator's coalescing stats may observe but
 * values never do.
 */
#pragma once

#include <cassert>
#include <utility>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/schedule.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::engine {

/**
 * Provider of the TigrV / TigrV+ work units a maintained virtualizer
 * holds, addressed into the slack arena of the virtualizer's side:
 * GraphSide::Out units push along the forward arena (runPush);
 * GraphSide::In units gather over the mirrored in-neighbor arena
 * (runPull — a unit's value node is the gathering node and
 * edgeTarget() yields its original in-neighbors). The side is read
 * from the virtualizer once, at construction.
 *
 * Both the graph and the virtualizer are kept by reference and must
 * outlive the provider; the virtualizer must have been built with
 * StartAddressing::Arena over that same graph and repaired through the
 * graph's current epoch.
 */
class ArenaVirtualProvider
{
  public:
    ArenaVirtualProvider(const dynamic::DynamicGraph &graph,
                         const dynamic::IncrementalVirtualizer &virt)
        : virt_(&virt), numNodes_(graph.numNodes()),
          targets_(virt.side() == dynamic::GraphSide::Out
                       ? graph.arenaTargets().data()
                       : graph.inArenaSources().data()),
          weights_(virt.side() == dynamic::GraphSide::Out
                       ? graph.arenaWeights().data()
                       : graph.inArenaWeights().data()),
          cost_(costModelFor(virt.layout() ==
                                     transform::EdgeLayout::Coalesced
                                 ? Strategy::TigrVPlus
                                 : Strategy::TigrV))
    {
        assert(virt.addressing() ==
               dynamic::StartAddressing::Arena);
    }

    /** Neighbor stored in arena slot @p e: the destination (Out) or
     *  the source, i.e. the reversed graph's destination (In). */
    NodeId edgeTarget(EdgeIndex e) const { return targets_[e]; }

    /** Weight stored in arena slot @p e, parallel to edgeTarget. */
    Weight edgeWeight(EdgeIndex e) const { return weights_[e]; }

    /** Value nodes = physical nodes (implicit value sync). */
    NodeId numValueNodes() const { return numNodes_; }

    /** Tigr cost model for the virtualizer's layout. */
    const CostModel &cost() const { return cost_; }

    /** The maintained array honors the worklist (and the pull
     *  destination filter) like every virtual design. */
    bool ignoresWorklist() const { return false; }

    /** Units node @p v decomposes into — O(1) off the entry arena's
     *  per-vertex family counts. */
    std::uint64_t unitCountOf(NodeId v) const
    {
        return virt_->familyCountOf(v);
    }

    /** Visit the maintained (arena-addressed) units of node @p v. */
    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        for (const transform::VirtualNode &node : virt_->familyOf(v)) {
            WorkUnit unit;
            unit.valueNode = node.physicalId;
            unit.start = node.start;
            unit.stride = static_cast<std::uint32_t>(node.stride);
            unit.count = node.count;
            fn(unit);
        }
    }

    /** Visit every unit of every node, in vertex order. */
    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (NodeId v = 0; v < numValueNodes(); ++v)
            forEachUnitOf(v, fn);
    }

  private:
    const dynamic::IncrementalVirtualizer *virt_;
    NodeId numNodes_;
    const NodeId *targets_;
    const Weight *weights_;
    CostModel cost_;
};

/**
 * Weight-erasing adapter: same units and topology as the wrapped
 * provider, every edge weight 1. BFS over it equals BFS over the
 * unit-weight graph copy the dense engine builds, with no copy.
 */
template <typename Provider>
class UnitWeightProvider
{
  public:
    explicit UnitWeightProvider(const Provider &inner) : inner_(&inner)
    {
    }

    NodeId edgeTarget(EdgeIndex e) const
    {
        return inner_->edgeTarget(e);
    }

    Weight edgeWeight(EdgeIndex) const { return 1; }

    NodeId numValueNodes() const { return inner_->numValueNodes(); }

    const CostModel &cost() const { return inner_->cost(); }

    bool ignoresWorklist() const { return inner_->ignoresWorklist(); }

    std::uint64_t unitCountOf(NodeId v) const
    {
        return inner_->unitCountOf(v);
    }

    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        inner_->forEachUnitOf(v, std::forward<Fn>(fn));
    }

    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        inner_->forEachUnit(std::forward<Fn>(fn));
    }

  private:
    const Provider *inner_;
};

} // namespace tigr::engine
