/**
 * @file
 * One engine over two topologies: GraphEngine over a mutated
 * DynamicGraph's slack arenas must serve every analysis with the
 * values and iteration counts of GraphEngine over the dense toCsr()
 * rebuild, and the maintained-virtualizer view must be
 * indistinguishable from on-the-fly family enumeration — values,
 * iterations and every simulator counter — in both directions, under
 * both virtual strategies, at any thread count.
 */
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::engine {
namespace {

using dynamic::DynamicGraph;
using dynamic::GraphSide;
using dynamic::IncrementalVirtualizer;
using dynamic::StartAddressing;

constexpr NodeId kDegreeBound = 8;

graph::Csr
weightedRmat()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 40;
    options.weightSeed = 31;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 384, .edges = 5000, .seed = 31}));
}

/** A DynamicGraph after three seeded mutation rounds, with forward
 *  and reverse arena virtualizers (K = 8) repaired through each. */
struct Topology
{
    explicit Topology(transform::EdgeLayout layout)
        : dg(weightedRmat()),
          forward(dg, kDegreeBound, layout, StartAddressing::Arena),
          reverse(dg, kDegreeBound, layout, StartAddressing::Arena,
                  nullptr, GraphSide::In)
    {
        dynamic::GeneratorSpec spec;
        spec.inserts = 60;
        spec.deletes = 30;
        spec.reweights = 30;
        for (std::uint64_t round = 0; round < 3; ++round) {
            spec.seed = 700 + round;
            const dynamic::EpochDelta delta =
                dg.apply(dynamic::generateBatch(dg.toCsr(), spec));
            forward.applyDelta(delta);
            reverse.applyDelta(delta);
            if (dg.shouldCompact()) {
                dg.compact();
                forward.rebase();
                reverse.rebase();
            }
        }
        dense = dg.toCsr();
    }

    DynamicGraph dg;
    IncrementalVirtualizer forward;
    IncrementalVirtualizer reverse;
    graph::Csr dense;
};

const Topology &
topologyFor(Strategy strategy)
{
    static const Topology consecutive(transform::EdgeLayout::Consecutive);
    static const Topology coalesced(transform::EdgeLayout::Coalesced);
    return strategy == Strategy::TigrVPlus ? coalesced : consecutive;
}

/** What one analysis run reports, values widened to double (exact for
 *  every value type involved). */
struct Observed
{
    std::vector<double> values;
    RunInfo info;
};

template <typename Result>
Observed
observe(const Result &result)
{
    return {std::vector<double>(result.values.begin(),
                                result.values.end()),
            result.info};
}

Observed
runAlgorithm(GraphEngine &engine, Algorithm algorithm)
{
    const NodeId source = 0;
    switch (algorithm) {
      case Algorithm::Bfs: return observe(engine.bfs(source));
      case Algorithm::Sssp: return observe(engine.sssp(source));
      case Algorithm::Sswp: return observe(engine.sswp(source));
      case Algorithm::Cc: return observe(engine.cc());
      case Algorithm::Pr: return observe(engine.pagerank());
      case Algorithm::Bc: {
        const std::array<NodeId, 3> sources{0, 7, 42};
        return observe(engine.bc(sources));
      }
    }
    return {};
}

void
expectSameStats(const sim::KernelStats &a, const sim::KernelStats &b)
{
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.warps, b.warps);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.laneSlots, b.laneSlots);
    EXPECT_EQ(a.memTransactions, b.memTransactions);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.valueTransactions, b.valueTransactions);
    EXPECT_EQ(a.busiestSmCycles, b.busiestSmCycles);
    EXPECT_EQ(a.totalSmCycles, b.totalSmCycles);
    EXPECT_EQ(a.smCount, b.smCount);
    EXPECT_TRUE(a == b);
}

using MatrixParam = std::tuple<Strategy, Direction, Algorithm>;

class EngineTopologies : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(EngineTopologies, ArenaMatchesOnTheFlyAndDenseRebuild)
{
    const auto [strategy, direction, algorithm] = GetParam();
    const Topology &topo = topologyFor(strategy);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EngineOptions options;
        options.strategy = strategy;
        options.direction = direction;
        options.degreeBound = kDegreeBound;
        options.threads = threads;

        GraphEngine maintained(topo.dg, &topo.forward, &topo.reverse,
                               options);
        const Observed served = runAlgorithm(maintained, algorithm);

        EngineOptions fly_options = options;
        fly_options.dynamicMapping = true;
        GraphEngine on_the_fly(topo.dg, &topo.forward, &topo.reverse,
                               fly_options);
        const Observed fly = runAlgorithm(on_the_fly, algorithm);

        GraphEngine dense(topo.dense, options);
        const Observed rebuilt = runAlgorithm(dense, algorithm);

        // The maintained view charges no transform; on-the-fly
        // enumeration never reuses one.
        EXPECT_TRUE(served.info.transformCached);
        EXPECT_EQ(served.info.transformMs, 0.0);
        EXPECT_FALSE(fly.info.transformCached);

        // Maintained vs on the fly: indistinguishable, counters
        // included (a family is a pure function of its segment).
        ASSERT_EQ(served.values, fly.values);
        EXPECT_EQ(served.info.iterations, fly.info.iterations);
        EXPECT_EQ(served.info.converged, fly.info.converged);
        expectSameStats(served.info.stats, fly.info.stats);

        // Arena vs dense rebuild: same values and iterations (slot
        // numbers differ, so the coalescing counters may too).
        ASSERT_EQ(served.values.size(), topo.dense.numNodes());
        ASSERT_EQ(served.values, rebuilt.values);
        EXPECT_EQ(served.info.iterations, rebuilt.info.iterations);
        EXPECT_EQ(served.info.converged, rebuilt.info.converged);
    }
}

std::string
matrixName(const ::testing::TestParamInfo<MatrixParam> &info)
{
    const auto [strategy, direction, algorithm] = info.param;
    return std::string(strategy == Strategy::TigrVPlus ? "TigrVPlus"
                                                       : "TigrV") +
           (direction == Direction::Pull ? "_Pull_" : "_Push_") +
           std::string(algorithmName(algorithm));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineTopologies,
    ::testing::Combine(
        ::testing::Values(Strategy::TigrV, Strategy::TigrVPlus),
        ::testing::Values(Direction::Push, Direction::Pull),
        ::testing::Values(Algorithm::Bfs, Algorithm::Sssp,
                          Algorithm::Sswp, Algorithm::Cc,
                          Algorithm::Pr, Algorithm::Bc)),
    matrixName);

TEST(EngineTopologiesRules, MismatchedDegreeBoundEnumeratesOnTheFly)
{
    // The maintained arrays are split at K = 8; a K = 4 query cannot
    // use them and must enumerate its own families, still matching
    // the dense rebuild.
    const Topology &topo = topologyFor(Strategy::TigrVPlus);
    for (const Direction direction : {Direction::Push, Direction::Pull}) {
        EngineOptions options;
        options.strategy = Strategy::TigrVPlus;
        options.direction = direction;
        options.degreeBound = 4;
        GraphEngine arena(topo.dg, &topo.forward, &topo.reverse,
                          options);
        GraphEngine dense(topo.dense, options);
        const auto got = arena.sssp(0);
        const auto want = dense.sssp(0);
        EXPECT_FALSE(got.info.transformCached);
        EXPECT_EQ(got.values, want.values);
        EXPECT_EQ(got.info.iterations, want.info.iterations);
    }
}

TEST(EngineTopologiesRules, ArenaTopologyRefusesDenseOnlyWork)
{
    const Topology &topo = topologyFor(Strategy::TigrV);
    for (const Strategy strategy :
         {Strategy::Baseline, Strategy::TigrUdt, Strategy::MaximumWarp,
          Strategy::Cusha, Strategy::Gunrock}) {
        EngineOptions options;
        options.strategy = strategy;
        EXPECT_THROW(GraphEngine(topo.dg, &topo.forward, &topo.reverse,
                                 options),
                     std::invalid_argument)
            << strategyName(strategy);
    }

    // Triangle counting needs row-sorted dense rows: refused up front,
    // nothing materialized.
    EngineOptions options;
    options.strategy = Strategy::TigrV;
    options.degreeBound = kDegreeBound;
    GraphEngine arena(topo.dg, &topo.forward, &topo.reverse, options);
    EXPECT_THROW(arena.triangles(), std::invalid_argument);
}

} // namespace
} // namespace tigr::engine
