#include "dynamic/incremental_virtualizer.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "par/parallel_for.hpp"

namespace tigr::dynamic {

using transform::EdgeLayout;
using transform::VirtualNode;
using transform::familySize;
using transform::forEachVirtualNodeAt;

namespace {

/** Per-vertex family sizes as an exclusive scan: offsets[v] is where
 *  vertex v's family starts in a tight vertex-ordered entry array,
 *  offsets[n] the total. Bit-identical for any thread count. */
std::vector<std::size_t>
familyOffsets(const DynamicGraph &graph, GraphSide side,
              NodeId degree_bound, par::ThreadPool *pool)
{
    const NodeId n = graph.numNodes();
    std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1,
                                     0);
    par::parallelFor(pool, n, par::kDefaultGrain,
                     [&](std::uint64_t v, unsigned) {
                         const NodeId node = static_cast<NodeId>(v);
                         const EdgeIndex d = side == GraphSide::Out
                                                 ? graph.degree(node)
                                                 : graph.inDegree(node);
                         offsets[v] = familySize(d, degree_bound);
                     });
    par::chunkedExclusiveScan(pool, offsets);
    return offsets;
}

} // namespace

EdgeIndex
IncrementalVirtualizer::sideDegree(NodeId v) const
{
    return side_ == GraphSide::Out ? graph_->degree(v)
                                   : graph_->inDegree(v);
}

EdgeIndex
IncrementalVirtualizer::sideBegin(NodeId v) const
{
    return side_ == GraphSide::Out ? graph_->edgeBegin(v)
                                   : graph_->inEdgeBegin(v);
}

const std::vector<TouchedVertex> &
IncrementalVirtualizer::sideTouched(const EpochDelta &delta) const
{
    return side_ == GraphSide::Out ? delta.touched : delta.touchedIn;
}

IncrementalVirtualizer::IncrementalVirtualizer(
    const DynamicGraph &graph, NodeId degree_bound, EdgeLayout layout,
    par::ThreadPool *pool, GraphSide side)
    : degreeBound_(degree_bound), layout_(layout), side_(side),
      epoch_(graph.epoch()), graph_(&graph)
{
    if (degree_bound == 0)
        throw std::invalid_argument(
            "tigr: virtual degree bound must be positive");
    rebuildArena(pool);
}

void
IncrementalVirtualizer::rebuildArena(par::ThreadPool *pool)
{
    const NodeId n = graph_->numNodes();
    entryBegin_.resize(n);
    entryCount_.resize(n);
    entryCap_.resize(n);
    const std::vector<std::size_t> offsets =
        familyOffsets(*graph_, side_, degreeBound_, pool);
    const std::size_t total = offsets[n];
    // Entries are packed tight (every slot live, caps == sizes) but
    // the buffer keeps ~12% spare capacity: the first relocations
    // after a rebuild then append at the tail without a reallocation
    // that would copy the whole array — an O(entries) cliff inside an
    // otherwise O(touched) repair. The emit below overwrites every
    // slot, so a rebase keeps the old buffer (it already holds at
    // least the live entries) and resize only truncates it: no serial
    // zero-fill runs ahead of the parallel emit.
    const std::size_t spare = total + total / 8 + 64;
    if (nodes_.capacity() < spare) {
        nodes_ = {};
        nodes_.reserve(spare);
    }
    nodes_.resize(total);
    par::parallelFor(
        pool, n, par::kDefaultGrain, [&](std::uint64_t i, unsigned) {
            const NodeId v = static_cast<NodeId>(i);
            std::size_t slot = offsets[v];
            forEachVirtualNodeAt(v, sideBegin(v), sideDegree(v),
                                 degreeBound_, layout_,
                                 [&](const VirtualNode &node) {
                                     nodes_[slot++] = node;
                                 });
            entryBegin_[v] = static_cast<EdgeIndex>(offsets[v]);
            const EdgeIndex fam =
                static_cast<EdgeIndex>(slot - offsets[v]);
            entryCount_[v] = fam;
            entryCap_[v] = fam;
        });
    liveEntries_ = total;
    compactionsSeen_ = graph_->compactions();
}

RepairStats
IncrementalVirtualizer::rebase(par::ThreadPool *pool)
{
    RepairStats stats;
    stats.entriesBefore = liveEntries_;
    rebuildArena(pool);
    // The rebuilt array reflects the graph's *current* state, so
    // resync the epoch too: a delta the virtualizer refused (applied
    // to the graph after an unrebased compact) is absorbed here.
    epoch_ = graph_->epoch();
    stats.epoch = epoch_;
    stats.repairedVertices = graph_->numNodes();
    stats.entriesAfter = liveEntries_;
    return stats;
}

void
IncrementalVirtualizer::requireFreshSlots(const char *what) const
{
    if (graph_->compactions() != compactionsSeen_)
        throw std::logic_error(
            std::string("tigr: ") + what +
            " on an arena-addressed virtual array after "
            "DynamicGraph::compact(); call rebase() first");
}

RepairStats
IncrementalVirtualizer::applyDelta(const EpochDelta &delta)
{
    if (delta.epoch != epoch_ + 1)
        throw std::invalid_argument(
            "tigr: delta for epoch " + std::to_string(delta.epoch) +
            " applied to virtual array at epoch " +
            std::to_string(epoch_));
    requireFreshSlots("applyDelta");
    RepairStats stats;
    stats.entriesBefore = liveEntries_;

    for (const TouchedVertex &t : sideTouched(delta)) {
        const NodeId v = t.vertex;
        const EdgeIndex seg_begin = sideBegin(v);
        // A family is stale iff its degree changed or the graph
        // relocated the segment (insert into a full segment moves the
        // block to the arena tail — detectable even at unchanged
        // degree because entry 0's start always equals the segment
        // begin, in both layouts, including zero-degree families).
        if (t.oldDegree == t.newDegree &&
            nodes_[entryBegin_[v]].start == seg_begin)
            continue;
        const EdgeIndex old_fam = entryCount_[v];
        const EdgeIndex new_fam =
            familySize(t.newDegree, degreeBound_);
        if (new_fam > entryCap_[v]) {
            // Outgrown family: abandon the block (it becomes entry
            // slack) and re-home at the tail with growth slack,
            // mirroring DynamicGraph::relocate.
            const EdgeIndex cap =
                new_fam + std::max<EdgeIndex>(2, new_fam / 2);
            entryBegin_[v] =
                static_cast<EdgeIndex>(nodes_.size());
            entryCap_[v] = cap;
            nodes_.resize(nodes_.size() + cap);
            ++stats.relocatedFamilies;
        }
        std::size_t slot = entryBegin_[v];
        forEachVirtualNodeAt(v, seg_begin, t.newDegree, degreeBound_,
                             layout_, [&](const VirtualNode &node) {
                                 nodes_[slot++] = node;
                             });
        entryCount_[v] = new_fam;
        liveEntries_ += new_fam;
        liveEntries_ -= old_fam;
        ++stats.repairedVertices;
        if (new_fam != old_fam)
            ++stats.resplitFamilies;
    }

    epoch_ = delta.epoch;
    stats.epoch = epoch_;
    stats.entriesAfter = liveEntries_;
    return stats;
}

std::vector<VirtualNode>
IncrementalVirtualizer::canonicalNodes(par::ThreadPool *pool) const
{
    requireFreshSlots("canonicalNodes");
    const NodeId n = graph_->numNodes();
    // Dense row offsets plus tight entry offsets, then every entry
    // maps by its offset inside the vertex's arena segment:
    // start_dense = dense_begin[v] + (start_arena − arena_begin[v]).
    std::vector<std::size_t> dense_begin(
        static_cast<std::size_t>(n) + 1, 0);
    std::vector<std::size_t> out_off(static_cast<std::size_t>(n) + 1,
                                     0);
    par::parallelFor(pool, n, par::kDefaultGrain,
                     [&](std::uint64_t v, unsigned) {
                         dense_begin[v] =
                             sideDegree(static_cast<NodeId>(v));
                         out_off[v] = entryCount_[v];
                     });
    par::chunkedExclusiveScan(pool, dense_begin);
    par::chunkedExclusiveScan(pool, out_off);
    std::vector<VirtualNode> out(liveEntries_);
    par::parallelFor(
        pool, n, par::kDefaultGrain, [&](std::uint64_t i, unsigned) {
            const NodeId v = static_cast<NodeId>(i);
            const EdgeIndex arena_begin = sideBegin(v);
            const VirtualNode *src = nodes_.data() + entryBegin_[v];
            VirtualNode *dst = out.data() + out_off[v];
            for (EdgeIndex e = 0; e < entryCount_[v]; ++e) {
                VirtualNode node = src[e];
                node.start = static_cast<EdgeIndex>(
                    dense_begin[v] + (node.start - arena_begin));
                dst[e] = node;
            }
        });
    return out;
}

std::optional<std::string>
differentialCheck(const DynamicGraph &graph,
                  const IncrementalVirtualizer &virtualizer)
{
    // The In-side oracle reverses the dense forward materialization —
    // deliberately NOT toReversedCsr(), so the check stays independent
    // of the reverse arena whose maintenance it is proving.
    const graph::Csr dense = virtualizer.side() == GraphSide::Out
                                 ? graph.toCsr()
                                 : graph.toCsr().reversed();
    const transform::VirtualGraph rebuilt(
        dense, virtualizer.degreeBound(), virtualizer.layout());
    const auto expect = rebuilt.virtualNodes();
    const std::vector<VirtualNode> got = virtualizer.canonicalNodes();
    if (expect.size() != got.size())
        return "virtual array size " + std::to_string(got.size()) +
               " != rebuilt size " + std::to_string(expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        if (!(expect[i] == got[i]))
            return "virtual entry " + std::to_string(i) +
                   " diverges: physical " +
                   std::to_string(got[i].physicalId) + "/" +
                   std::to_string(expect[i].physicalId) + " start " +
                   std::to_string(got[i].start) + "/" +
                   std::to_string(expect[i].start) + " stride " +
                   std::to_string(got[i].stride) + "/" +
                   std::to_string(expect[i].stride) + " count " +
                   std::to_string(got[i].count) + "/" +
                   std::to_string(expect[i].count);
    }
    // The raw entry arena's own invariants: each family sized by the
    // live degree, entry 0 anchored at the arena segment.
    for (NodeId v = 0; v < dense.numNodes(); ++v) {
        const auto fam = virtualizer.familyOf(v);
        const std::size_t want =
            familySize(dense.degree(v), virtualizer.degreeBound());
        const EdgeIndex seg_begin = virtualizer.side() == GraphSide::Out
                                        ? graph.edgeBegin(v)
                                        : graph.inEdgeBegin(v);
        if (fam.size() != want)
            return "family of node " + std::to_string(v) + " has " +
                   std::to_string(fam.size()) + " entries, expected " +
                   std::to_string(want);
        if (fam[0].start != seg_begin)
            return "family of node " + std::to_string(v) +
                   " anchors at arena slot " +
                   std::to_string(fam[0].start) +
                   ", segment begins at " + std::to_string(seg_begin);
    }
    return std::nullopt;
}

} // namespace tigr::dynamic
