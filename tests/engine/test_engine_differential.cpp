/**
 * @file
 * Differential pins for the engine's host-work shortcuts.
 *
 * PageRankDifferential keeps a private copy of the per-edge add-log
 * PageRank that GraphEngine::pagerank used to run (per-chunk
 * (target, share) logs replayed in chunk order, one simulator launch
 * per round) and requires the engine's per-node-share sweep to match
 * it exactly: ranks, every KernelStats field and every per-iteration
 * trace event, for every strategy except UDT, push and pull, on dense,
 * dynamic-mapping and arena engines (maintained and on-the-fly), at 1
 * and 3 threads, with a positive epsilon and with a cancel hook that
 * fires mid-run.
 *
 * PullSelfLoopDifferential pins runPull's gather on graphs whose self
 * loops survive — a dense graph built with dropSelfLoops = false and an
 * arena after a batch that inserts more — against values, iteration
 * counts and KernelStats recorded from the gather that re-read the
 * target's overlay slot on every edge.
 *
 * BfsUnitWeightDifferential keeps the unit-weight graph copy the dense
 * engine used to schedule BFS over as the reference: an engine over a
 * toCoo/fromCoo copy with every weight 1 must report exactly what BFS
 * on the weighted graph reports — hop counts, iterations, every
 * KernelStats field, the footprint and the formatted trace — for all
 * seven strategies, push and pull, stored and dynamic mapping, at 1
 * and 3 threads, on a graph with self loops, duplicate edges and zero
 * weights.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "engine/arena_provider.hpp"
#include "engine/dynamic_provider.hpp"
#include "engine/graph_engine.hpp"
#include "engine/push_engine.hpp"
#include "engine/schedule.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace tigr::engine {
namespace {

using dynamic::DynamicGraph;
using dynamic::GraphSide;
using dynamic::IncrementalVirtualizer;

constexpr NodeId kDegreeBound = 6;

/** What a PageRank run reports: ranks, run info and its Iteration
 *  trace events in canonical text form. */
struct PrRun
{
    std::vector<Rank> ranks;
    RunInfo info;
    std::vector<std::string> iterationEvents;
};

std::vector<std::string>
iterationEvents(const obs::TraceSink &sink)
{
    std::vector<std::string> lines;
    for (const obs::TraceEvent &event : sink.events())
        if (event.kind == obs::EventKind::Iteration)
            lines.push_back(obs::formatEvent(event));
    return lines;
}

/**
 * The per-edge add-log PageRank, kept verbatim as the reference: each
 * chunk logs push (target, share) pairs or one pull (node, damped sum)
 * per unit, a serial replay adds the logs in chunk order, and every
 * round simulates its launch afresh.
 */
template <typename Provider, typename Forward>
PrRun
referencePagerank(const Provider &provider, const Forward &forward,
                  NodeId n, Strategy strategy, bool pull,
                  const PageRankOptions &pr_options,
                  const CancelCheck &cancel, par::ThreadPool *pool)
{
    sim::WarpSimulator sim{sim::GpuConfig{}};
    obs::TraceSink sink;
    PushOptions trace_options;
    trace_options.trace = &sink;

    PrRun result;
    result.ranks.assign(n, 1.0 / n);
    std::vector<Rank> next(n);
    const Rank base = (1.0 - pr_options.damping) / n;
    const CostModel cost = costModelFor(strategy);
    const std::uint32_t scatter =
        pull && strategy == Strategy::Cusha ? 0 : 1;

    std::vector<WorkUnit> units;
    provider.forEachUnit(
        [&](const WorkUnit &unit) { units.push_back(unit); });
    std::vector<std::vector<std::pair<NodeId, Rank>>> chunk_adds(
        par::chunkCount(units.size(), par::kDefaultGrain));

    for (unsigned iter = 0; iter < pr_options.iterations; ++iter) {
        if (cancel &&
            cancel(result.info.iterations, result.info.stats.cycles)) {
            result.info.cancelled = true;
            result.info.converged = false;
            break;
        }
        const sim::KernelStats trace_before = result.info.stats;
        std::fill(next.begin(), next.end(), base);
        par::forEachChunk(
            pool, units.size(), par::kDefaultGrain,
            [&](std::uint64_t chunk, std::uint64_t begin,
                std::uint64_t end, unsigned) {
                auto &adds = chunk_adds[chunk];
                adds.clear();
                for (std::uint64_t tid = begin; tid < end; ++tid) {
                    const WorkUnit &unit = units[tid];
                    if (pull) {
                        Rank sum = 0.0;
                        for (std::uint32_t j = 0; j < unit.count; ++j) {
                            const EdgeIndex e = unit.start +
                                static_cast<EdgeIndex>(unit.stride) * j;
                            const NodeId u = provider.edgeTarget(e);
                            sum += result.ranks[u] /
                                   static_cast<Rank>(forward.degree(u));
                        }
                        adds.emplace_back(unit.valueNode,
                                          pr_options.damping * sum);
                        continue;
                    }
                    const EdgeIndex d = forward.degree(unit.valueNode);
                    const Rank share =
                        d == 0 ? 0.0
                               : pr_options.damping *
                                     result.ranks[unit.valueNode] /
                                     static_cast<Rank>(d);
                    for (std::uint32_t j = 0; j < unit.count; ++j) {
                        const EdgeIndex e = unit.start +
                            static_cast<EdgeIndex>(unit.stride) * j;
                        adds.emplace_back(provider.edgeTarget(e), share);
                    }
                }
            });
        for (const auto &adds : chunk_adds)
            for (const auto &[target, add] : adds)
                next[target] += add;
        result.info.stats += sim.launch(
            units.size(),
            [&](std::uint64_t tid) {
                sim::ThreadWork work =
                    detail::describeUnit(units[tid], cost);
                work.scatterAccessesPerEdge = scatter;
                return work;
            },
            pool);
        result.ranks.swap(next);
        ++result.info.iterations;
        detail::traceIteration(trace_options, result.info.iterations, n,
                               false, units.size(), trace_before,
                               result.info.stats);
        if (pr_options.epsilon > 0.0) {
            double change = 0.0;
            for (NodeId v = 0; v < n; ++v)
                change += std::abs(result.ranks[v] - next[v]);
            if (change < pr_options.epsilon)
                break;
        }
    }
    result.iterationEvents = iterationEvents(sink);
    return result;
}

graph::Csr
weightedRmat()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 40;
    options.weightSeed = 17;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 700, .edges = 9000, .seed = 17}));
}

/** The dense graph plus a mutated arena with maintained forward and
 *  reverse virtualizers for both virtual layouts (K = 6). */
struct Topologies
{
    Topologies()
        : dense(weightedRmat()), dg(dense),
          forward{IncrementalVirtualizer(dg, kDegreeBound,
                                         transform::EdgeLayout::Consecutive),
                  IncrementalVirtualizer(dg, kDegreeBound,
                                         transform::EdgeLayout::Coalesced)},
          reverse{IncrementalVirtualizer(dg, kDegreeBound,
                                         transform::EdgeLayout::Consecutive,
                                         nullptr, GraphSide::In),
                  IncrementalVirtualizer(dg, kDegreeBound,
                                         transform::EdgeLayout::Coalesced,
                                         nullptr, GraphSide::In)}
    {
        dynamic::GeneratorSpec spec;
        spec.inserts = 50;
        spec.deletes = 25;
        spec.reweights = 25;
        spec.hotSpan = 48;
        for (std::uint64_t round = 0; round < 2; ++round) {
            spec.seed = 520 + round;
            const dynamic::EpochDelta delta =
                dg.apply(dynamic::generateBatch(dg.toCsr(), spec));
            for (IncrementalVirtualizer *virt :
                 {&forward[0], &forward[1], &reverse[0], &reverse[1]})
                virt->applyDelta(delta);
        }
    }

    graph::Csr dense;
    DynamicGraph dg;
    /** [0] Consecutive (TigrV), [1] Coalesced (TigrV+). */
    std::array<IncrementalVirtualizer, 2> forward;
    std::array<IncrementalVirtualizer, 2> reverse;
};

const Topologies &
topologies()
{
    static const Topologies topo;
    return topo;
}

enum class Topology
{
    Dense,
    DynamicMapping,
    ArenaMaintained,
    ArenaOnTheFly,
};

constexpr Strategy kPageRankStrategies[] = {
    Strategy::Baseline,    Strategy::TigrV, Strategy::TigrVPlus,
    Strategy::MaximumWarp, Strategy::Cusha, Strategy::Gunrock,
};

bool
isVirtual(Strategy strategy)
{
    return strategy == Strategy::TigrV || strategy == Strategy::TigrVPlus;
}

/** Run the engine's PageRank on a fresh engine (so trace ticks start
 *  at zero) over @p topology. */
PrRun
enginePagerank(Topology topology, const EngineOptions &base,
               const PageRankOptions &pr_options)
{
    const Topologies &topo = topologies();
    obs::TraceSink sink;
    EngineOptions options = base;
    options.trace = &sink;
    options.dynamicMapping = topology == Topology::DynamicMapping ||
                             topology == Topology::ArenaOnTheFly;
    const int layout = options.strategy == Strategy::TigrVPlus ? 1 : 0;
    std::optional<GraphEngine> engine;
    if (topology == Topology::Dense ||
        topology == Topology::DynamicMapping)
        engine.emplace(topo.dense, options);
    else
        engine.emplace(topo.dg, &topo.forward[layout],
                       &topo.reverse[layout], options);
    RanksResult result = engine->pagerank(pr_options);
    return {std::move(result.values), result.info, iterationEvents(sink)};
}

/** The reference over the provider GraphEngine picks for
 *  @p topology. */
PrRun
referenceFor(Topology topology, const EngineOptions &options,
             const PageRankOptions &pr_options, bool pull,
             par::ThreadPool *pool)
{
    const Topologies &topo = topologies();
    const Strategy strategy = options.strategy;
    const transform::EdgeLayout layout =
        strategy == Strategy::TigrVPlus
            ? transform::EdgeLayout::Coalesced
            : transform::EdgeLayout::Consecutive;
    const NodeId n = topo.dense.numNodes();
    auto run = [&](const auto &provider, const auto &forward) {
        return referencePagerank(provider, forward, n, strategy, pull,
                                 pr_options, options.cancel, pool);
    };
    switch (topology) {
      case Topology::Dense:
      case Topology::DynamicMapping: {
        const graph::Csr reversed = topo.dense.reversed();
        const graph::Csr &scheduled = pull ? reversed : topo.dense;
        if (topology == Topology::DynamicMapping)
            return run(DynamicVirtualProvider(scheduled, kDegreeBound,
                                              layout),
                       topo.dense);
        return run(Schedule::build(scheduled, strategy, kDegreeBound,
                                   options.mwVirtualWarp, pool),
                   topo.dense);
      }
      case Topology::ArenaMaintained: {
        const int which = strategy == Strategy::TigrVPlus ? 1 : 0;
        return run(ArenaVirtualProvider(topo.dg,
                                        pull ? topo.reverse[which]
                                             : topo.forward[which]),
                   topo.dg);
      }
      case Topology::ArenaOnTheFly:
        return run(DynamicVirtualProvider(
                       topo.dg, pull ? GraphSide::In : GraphSide::Out,
                       kDegreeBound, layout),
                   topo.dg);
    }
    return {};
}

void
expectIdentical(const PrRun &engine, const PrRun &reference)
{
    ASSERT_EQ(engine.ranks.size(), reference.ranks.size());
    EXPECT_TRUE(engine.ranks == reference.ranks);
    EXPECT_EQ(engine.info.iterations, reference.info.iterations);
    EXPECT_EQ(engine.info.cancelled, reference.info.cancelled);
    EXPECT_EQ(engine.info.converged, reference.info.converged);
    EXPECT_TRUE(engine.info.stats == reference.info.stats);
    EXPECT_EQ(engine.info.stats.cycles, reference.info.stats.cycles);
    EXPECT_EQ(engine.info.stats.memTransactions,
              reference.info.stats.memTransactions);
    EXPECT_EQ(engine.iterationEvents, reference.iterationEvents);
}

std::vector<Topology>
topologiesOf(Strategy strategy)
{
    if (!isVirtual(strategy))
        return {Topology::Dense};
    return {Topology::Dense, Topology::DynamicMapping,
            Topology::ArenaMaintained, Topology::ArenaOnTheFly};
}

std::string
topologyName(Topology topology)
{
    switch (topology) {
      case Topology::Dense: return "dense";
      case Topology::DynamicMapping: return "dynamic-mapping";
      case Topology::ArenaMaintained: return "arena-maintained";
      case Topology::ArenaOnTheFly: return "arena-on-the-fly";
    }
    return "?";
}

class PageRankDifferential : public ::testing::TestWithParam<Strategy>
{
};

TEST_P(PageRankDifferential, SweepMatchesAddLogReference)
{
    const Strategy strategy = GetParam();
    par::ThreadPool pool(3);
    for (const Topology topology : topologiesOf(strategy)) {
        for (const bool pull_flag : {false, true}) {
            for (const unsigned threads : {1u, 3u}) {
                for (const int variant : {0, 1, 2}) {
                    SCOPED_TRACE(topologyName(topology) +
                                 (pull_flag ? " pull" : " push") +
                                 " threads " + std::to_string(threads) +
                                 " variant " + std::to_string(variant));
                    EngineOptions options;
                    options.strategy = strategy;
                    options.degreeBound = kDegreeBound;
                    options.threads = threads;
                    PageRankOptions pr_options;
                    pr_options.pull = pull_flag;
                    pr_options.iterations = 9;
                    if (variant == 1) {
                        // Converges by epsilon well before the cap.
                        pr_options.iterations = 60;
                        pr_options.epsilon = 1e-5;
                    } else if (variant == 2) {
                        options.cancel = [](unsigned iteration,
                                            std::uint64_t) {
                            return iteration >= 4;
                        };
                    }
                    const bool pull =
                        pull_flag || strategy == Strategy::Cusha;
                    const PrRun engine =
                        enginePagerank(topology, options, pr_options);
                    const PrRun reference = referenceFor(
                        topology, options, pr_options, pull,
                        threads > 1 ? &pool : nullptr);
                    expectIdentical(engine, reference);
                    if (variant == 1) {
                        EXPECT_GT(engine.info.iterations, 1u);
                        EXPECT_LT(engine.info.iterations, 60u);
                    }
                    if (variant == 2) {
                        EXPECT_TRUE(engine.info.cancelled);
                        EXPECT_EQ(engine.info.iterations, 4u);
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    NonUdt, PageRankDifferential,
    ::testing::ValuesIn(kPageRankStrategies),
    [](const ::testing::TestParamInfo<Strategy> &info) {
        std::string name(strategyName(info.param));
        for (char &c : name)
            if (c == '-' || c == '+')
                c = c == '+' ? 'P' : '_';
        return name;
    });

// ------------------------------------------------- pull self loops

/** 20 nodes; self loops on 0, 3, 6, 9, 12, 16 and 18; node 9 gathers
 *  over 10 in-edges (four K = 3 families); 16-19 form a second
 *  component. */
graph::Csr
selfLoopGraph()
{
    graph::CooEdges coo(20);
    const graph::Edge edges[] = {
        {0, 0, 2},   {0, 1, 4},   {0, 2, 1},   {0, 3, 7},   {0, 4, 3},
        {0, 5, 9},   {0, 6, 2},   {0, 7, 5},   {0, 8, 6},   {1, 9, 8},
        {2, 9, 3},   {3, 9, 12},  {3, 3, 1},   {4, 9, 2},   {5, 9, 6},
        {6, 9, 11},  {7, 9, 4},   {7, 2, 1},   {8, 9, 5},   {9, 9, 1},
        {9, 10, 3},  {10, 11, 2}, {11, 12, 6}, {12, 12, 4}, {12, 13, 1},
        {13, 14, 7}, {14, 15, 2}, {15, 0, 3},  {14, 9, 1},  {6, 6, 8},
        {16, 16, 3}, {17, 18, 2}, {18, 19, 4}, {19, 17, 1}, {18, 18, 6},
        {19, 16, 5},
    };
    for (const graph::Edge &e : edges)
        coo.add(e.src, e.dst, e.weight);
    graph::BuildOptions options;
    options.dropSelfLoops = false;
    return graph::GraphBuilder(options).build(std::move(coo));
}

/** Inserts three more self loops (one on the split node 9), reweights
 *  one, and moves an edge of node 9's gather. */
const dynamic::MutationBatch kSelfLoopBatch = {
    {dynamic::MutationKind::InsertEdge, 9, 9, 2},
    {dynamic::MutationKind::InsertEdge, 4, 4, 1},
    {dynamic::MutationKind::InsertEdge, 11, 11, 5},
    {dynamic::MutationKind::InsertEdge, 13, 9, 3},
    {dynamic::MutationKind::DeleteEdge, 3, 9, 0},
    {dynamic::MutationKind::UpdateWeight, 12, 12, 9},
};

constexpr Dist kInf = kInfDist;
const std::vector<Dist> kHops = {0, 1, 1, 1, 1, 1, 1, 1, 1, 2,
                                 3, 4, 5, 6, 7, 8, kInf, kInf, kInf,
                                 kInf};
const std::vector<Dist> kDistances = {0, 4, 1, 7, 3, 9, 2, 5, 6, 4,
                                      7, 9, 15, 16, 23, 25, kInf, kInf,
                                      kInf, kInf};
const std::vector<Weight> kDenseWidths = {kInfWeight, 4, 1, 7, 3, 9, 2,
                                          5, 6, 7, 3, 2, 2, 1, 1, 1,
                                          0, 0, 0, 0};
const std::vector<Weight> kArenaWidths = {kInfWeight, 4, 1, 7, 3, 9, 2,
                                          5, 6, 6, 3, 2, 2, 1, 1, 1,
                                          0, 0, 0, 0};
const std::vector<NodeId> kLabels = {0, 0, 0, 0, 0,  0,  0,  0,  0,  0,
                                     0, 0, 0, 0, 0, 0, 16, 17, 17, 17};

/** Iterations and KernelStats fields in declaration order (launches,
 *  threads, warps, cycles, instructions, laneSlots, memTransactions,
 *  memAccesses, valueTransactions, busiestSmCycles, totalSmCycles,
 *  smCount), one row per analysis: BFS, SSSP, SSWP, CC. */
struct PinnedRun
{
    unsigned iterations;
    std::array<std::uint64_t, 12> stats;
};

struct PinnedConfig
{
    const char *name;
    bool arena;
    Strategy strategy;
    bool relaxed;
    std::array<PinnedRun, 4> runs;
};

const PinnedConfig kPinned[] = {
    {"dense baseline relaxed", false, Strategy::Baseline, true,
     {{{9, {18, 46, 18, 2110, 318, 5568, 38, 60, 60, 958, 958, 14}},
       {9, {18, 46, 18, 2110, 318, 5568, 38, 60, 60, 958, 958, 14}},
       {9, {18, 46, 18, 2110, 318, 5568, 38, 60, 60, 958, 958, 14}},
       {2, {4, 70, 4, 1192, 411, 2304, 41, 67, 67, 936, 936, 14}}}}},
    {"dense baseline strict", false, Strategy::Baseline, false,
     {{{9, {18, 46, 18, 2110, 318, 5568, 38, 60, 60, 958, 958, 14}},
       {9, {18, 46, 18, 2110, 318, 5568, 38, 60, 60, 958, 958, 14}},
       {9, {18, 46, 18, 2110, 318, 5568, 38, 60, 60, 958, 958, 14}},
       {9, {18, 144, 18, 3580, 942, 9600, 96, 170, 170, 2428, 2428,
            14}}}}},
    {"dense tigr-v+ relaxed", false, Strategy::TigrVPlus, true,
     {{{9, {18, 55, 18, 2031, 354, 3552, 36, 60, 60, 879, 879, 14}},
       {9, {18, 55, 18, 2031, 354, 3552, 36, 60, 60, 879, 879, 14}},
       {9, {18, 55, 18, 2031, 354, 3552, 36, 60, 60, 879, 879, 14}},
       {2, {4, 76, 4, 1126, 435, 960, 38, 67, 67, 870, 870, 14}}}}},
    {"dense tigr-v+ strict", false, Strategy::TigrVPlus, false,
     {{{9, {18, 55, 18, 2031, 354, 3552, 36, 60, 60, 879, 879, 14}},
       {9, {18, 55, 18, 2031, 354, 3552, 36, 60, 60, 879, 879, 14}},
       {9, {18, 55, 18, 2031, 354, 3552, 36, 60, 60, 879, 879, 14}},
       {9, {18, 168, 18, 3340, 1038, 4224, 87, 170, 170, 2188, 2188,
            14}}}}},
    {"arena tigr-v+ relaxed", true, Strategy::TigrVPlus, true,
     {{{9, {18, 64, 18, 2272, 444, 3840, 45, 80, 80, 1120, 1120, 14}},
       {9, {18, 64, 18, 2272, 444, 3840, 45, 80, 80, 1120, 1120, 14}},
       {9, {18, 64, 18, 2272, 444, 3840, 45, 80, 80, 1120, 1120, 14}},
       {2, {4, 78, 4, 1238, 462, 960, 45, 74, 74, 982, 982, 14}}}}},
    {"arena tigr-v+ strict", true, Strategy::TigrVPlus, false,
     {{{9, {18, 64, 18, 2272, 444, 3840, 45, 80, 80, 1120, 1120, 14}},
       {9, {18, 64, 18, 2272, 444, 3840, 45, 80, 80, 1120, 1120, 14}},
       {9, {18, 64, 18, 2272, 444, 3840, 45, 80, 80, 1120, 1120, 14}},
       {9, {18, 172, 18, 3572, 1101, 4224, 99, 187, 187, 2420, 2420,
            14}}}}},
};

std::array<std::uint64_t, 12>
statsFields(const sim::KernelStats &s)
{
    return {s.launches,        s.threads,         s.warps,
            s.cycles,          s.instructions,    s.laneSlots,
            s.memTransactions, s.memAccesses,     s.valueTransactions,
            s.busiestSmCycles, s.totalSmCycles,   s.smCount};
}

void
expectPinned(const RunInfo &info, const PinnedRun &pinned)
{
    EXPECT_TRUE(info.converged);
    EXPECT_EQ(info.iterations, pinned.iterations);
    EXPECT_EQ(statsFields(info.stats), pinned.stats);
}

TEST(PullSelfLoopDifferential, MatchesRecordedRuns)
{
    const graph::Csr dense = selfLoopGraph();
    DynamicGraph dg(dense);
    IncrementalVirtualizer forward(dg, 3, transform::EdgeLayout::Coalesced);
    IncrementalVirtualizer reverse(dg, 3, transform::EdgeLayout::Coalesced,
                                   nullptr, GraphSide::In);
    const dynamic::EpochDelta delta = dg.apply(kSelfLoopBatch);
    forward.applyDelta(delta);
    reverse.applyDelta(delta);

    // The self loops are really there, on both topologies.
    EXPECT_EQ(dense.numEdges(), 36u);
    EXPECT_EQ(dg.numEdges(), 39u);

    for (const PinnedConfig &config : kPinned) {
        for (const unsigned threads : {1u, 3u}) {
            SCOPED_TRACE(std::string(config.name) + " threads " +
                         std::to_string(threads));
            EngineOptions options;
            options.strategy = config.strategy;
            options.direction = Direction::Pull;
            options.degreeBound = 3;
            options.syncRelaxation = config.relaxed;
            options.threads = threads;
            std::optional<GraphEngine> engine;
            if (config.arena)
                engine.emplace(dg, &forward, &reverse, options);
            else
                engine.emplace(dense, options);

            const DistancesResult hops = engine->bfs(0);
            EXPECT_EQ(hops.values, kHops);
            expectPinned(hops.info, config.runs[0]);

            const DistancesResult distances = engine->sssp(0);
            EXPECT_EQ(distances.values, kDistances);
            expectPinned(distances.info, config.runs[1]);

            const WidthsResult widths = engine->sswp(0);
            EXPECT_EQ(widths.values,
                      config.arena ? kArenaWidths : kDenseWidths);
            expectPinned(widths.info, config.runs[2]);

            const LabelsResult labels = engine->cc();
            EXPECT_EQ(labels.values, kLabels);
            expectPinned(labels.info, config.runs[3]);
        }
    }
}

// ------------------------------------------ BFS over unit weights

/** An RMAT graph kept as generated (duplicate edges included) plus a
 *  self loop on every 13th node, a duplicate of every 31st edge and
 *  weights 0..5, so weight erasure must turn zeros into ones. */
graph::Csr
duplicatesGraph()
{
    const graph::CooEdges rmat = graph::rmat(
        {.nodes = 400, .edges = 4000, .seed = 611});
    graph::CooEdges coo(rmat.numNodes());
    std::uint64_t i = 0;
    for (const graph::Edge &e : rmat.edges()) {
        const Weight w = static_cast<Weight>((i * 2654435761u >> 9) % 6);
        coo.add(e.src, e.dst, w);
        if (i % 31 == 0)
            coo.add(e.src, e.dst, w + 2);
        ++i;
    }
    for (NodeId v = 0; v < rmat.numNodes(); v += 13)
        coo.add(v, v, v % 3);
    return graph::Csr::fromCoo(coo);
}

/** The copy BFS used to run over: same rows, every weight 1. */
graph::Csr
unitWeightCopy(const graph::Csr &g)
{
    graph::CooEdges coo = g.toCoo();
    for (graph::Edge &e : coo.edges())
        e.weight = 1;
    return graph::Csr::fromCoo(coo);
}

/** What a BFS run reports, trace included. */
struct BfsRun
{
    DistancesResult result;
    std::size_t footprint = 0;
    std::string trace;
};

BfsRun
runBfs(const graph::Csr &g, EngineOptions options, NodeId source)
{
    obs::TraceSink sink;
    options.trace = &sink;
    GraphEngine engine(g, options);
    BfsRun run{engine.bfs(source), 0, {}};
    run.footprint = engine.footprintBytes(Algorithm::Bfs);
    run.trace = obs::formatTrace(sink);
    return run;
}

constexpr Strategy kAllStrategies[] = {
    Strategy::Baseline,    Strategy::TigrUdt, Strategy::TigrV,
    Strategy::TigrVPlus,   Strategy::MaximumWarp, Strategy::Cusha,
    Strategy::Gunrock,
};

class BfsUnitWeightDifferential
    : public ::testing::TestWithParam<Strategy>
{
};

TEST_P(BfsUnitWeightDifferential, MatchesUnitWeightCopy)
{
    const Strategy strategy = GetParam();
    const graph::Csr weighted = duplicatesGraph();
    const graph::Csr unit = unitWeightCopy(weighted);
    // The input really carries what the copy erased.
    ASSERT_NE(weighted.weights(), unit.weights());
    ASSERT_NE(std::find(weighted.weights().begin(),
                        weighted.weights().end(), Weight{0}),
              weighted.weights().end());
    // ... and the erasure is observable: weighted distances differ.
    EngineOptions serial;
    serial.threads = 1;
    EXPECT_NE(GraphEngine(weighted, serial).sssp(0).values,
              GraphEngine(unit, serial).sssp(0).values);

    for (const Direction direction : {Direction::Push, Direction::Pull}) {
        if (direction == Direction::Pull && strategy == Strategy::TigrUdt)
            continue;
        for (const bool dynamic : {false, true}) {
            if (dynamic && !isVirtual(strategy))
                continue;
            for (const unsigned threads : {1u, 3u}) {
                for (const NodeId source : {NodeId{0}, NodeId{57}}) {
                    SCOPED_TRACE(
                        std::string(direction == Direction::Pull
                                        ? "pull"
                                        : "push") +
                        (dynamic ? " dynamic" : " stored") +
                        " threads " + std::to_string(threads) +
                        " source " + std::to_string(source));
                    EngineOptions options;
                    options.strategy = strategy;
                    options.direction = direction;
                    options.dynamicMapping = dynamic;
                    options.degreeBound = kDegreeBound;
                    options.threads = threads;
                    const BfsRun got = runBfs(weighted, options, source);
                    const BfsRun want = runBfs(unit, options, source);
                    EXPECT_EQ(got.result.values, want.result.values);
                    EXPECT_EQ(got.result.info.iterations,
                              want.result.info.iterations);
                    EXPECT_EQ(got.result.info.converged,
                              want.result.info.converged);
                    EXPECT_EQ(got.result.info.peakFrontier,
                              want.result.info.peakFrontier);
                    EXPECT_EQ(got.result.info.sparseIterations,
                              want.result.info.sparseIterations);
                    EXPECT_EQ(got.result.info.transformCached,
                              want.result.info.transformCached);
                    EXPECT_EQ(statsFields(got.result.info.stats),
                              statsFields(want.result.info.stats));
                    EXPECT_EQ(got.footprint, want.footprint);
                    EXPECT_EQ(got.trace, want.trace);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, BfsUnitWeightDifferential,
    ::testing::ValuesIn(kAllStrategies),
    [](const ::testing::TestParamInfo<Strategy> &info) {
        std::string name(strategyName(info.param));
        for (char &c : name)
            if (c == '-' || c == '+')
                c = c == '+' ? 'P' : '_';
        return name;
    });

} // namespace
} // namespace tigr::engine
