/**
 * @file
 * Randomized property sweeps ("fuzz" tests) over the transformation
 * stack: many (generator, seed, K, topology) combinations, each
 * checked against the invariants the paper's theorems promise. These
 * are the broad-coverage complement to the targeted unit tests.
 */
#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "ref/oracles.hpp"
#include "transform/properties.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::transform {
namespace {

enum class GenKind
{
    Rmat,
    Ba,
    Er,
    Ws,
    Star,
};

// gtest names each case after a byte dump of this struct, so the gap
// before `seed` is an explicit zeroed member: implicit padding would
// leak stack garbage into the test names and change them per run.
struct FuzzCase
{
    GenKind generator;
    std::uint32_t reserved = 0;
    std::uint64_t seed;
    NodeId degreeBound;
    Topology topology;
};

std::string
caseName(const FuzzCase &fuzz)
{
    const char *gen = nullptr;
    switch (fuzz.generator) {
      case GenKind::Rmat: gen = "rmat"; break;
      case GenKind::Ba: gen = "ba"; break;
      case GenKind::Er: gen = "er"; break;
      case GenKind::Ws: gen = "ws"; break;
      case GenKind::Star: gen = "star"; break;
    }
    return std::string(gen) + "_s" + std::to_string(fuzz.seed) + "_K" +
           std::to_string(fuzz.degreeBound) + "_" +
           std::string(topologyName(fuzz.topology));
}

graph::Csr
makeGraph(GenKind kind, std::uint64_t seed)
{
    graph::CooEdges coo;
    switch (kind) {
      case GenKind::Rmat:
        coo = graph::rmat({.nodes = 200, .edges = 2400, .seed = seed});
        break;
      case GenKind::Ba:
        coo = graph::barabasiAlbert(200, 5, seed);
        break;
      case GenKind::Er:
        coo = graph::erdosRenyi(200, 2400, seed);
        break;
      case GenKind::Ws:
        coo = graph::wattsStrogatz(200, 4, 0.3, seed);
        break;
      case GenKind::Star:
        coo = graph::star(150);
        break;
    }
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 16;
    options.weightSeed = seed * 3 + 1;
    return graph::GraphBuilder(options).build(std::move(coo));
}

class TransformFuzz : public ::testing::TestWithParam<FuzzCase>
{
  protected:
    graph::Csr input() const
    {
        return makeGraph(GetParam().generator, GetParam().seed);
    }
};

TEST_P(TransformFuzz, EdgeConservation)
{
    graph::Csr g = input();
    auto transform = makeTransform(GetParam().topology);
    auto result = transform->apply(
        g, {.degreeBound = GetParam().degreeBound});
    // Original edges survive exactly; only internal edges are added.
    EXPECT_EQ(result.graph.numEdges(),
              g.numEdges() + result.stats.newEdges);
    EXPECT_EQ(result.graph.numNodes(),
              g.numNodes() + result.stats.newNodes);
}

TEST_P(TransformFuzz, DegreeBoundRespected)
{
    graph::Csr g = input();
    if (g.maxOutDegree() <= GetParam().degreeBound)
        GTEST_SKIP() << "nothing to split";
    auto transform = makeTransform(GetParam().topology);
    auto result = transform->apply(
        g, {.degreeBound = GetParam().degreeBound});
    TopologyProperties worst = analyticProperties(
        GetParam().topology, g.maxOutDegree(),
        GetParam().degreeBound);
    EXPECT_LE(result.graph.maxOutDegree(),
              std::max<EdgeIndex>(worst.newDegree,
                                  GetParam().degreeBound));
}

TEST_P(TransformFuzz, DistancePreservation)
{
    graph::Csr g = input();
    auto transform = makeTransform(GetParam().topology);
    auto result = transform->apply(
        g, {.degreeBound = GetParam().degreeBound,
            .weightPolicy = DumbWeightPolicy::Zero});
    auto original = ref::dijkstra(g, 0);
    auto transformed = ref::dijkstra(result.graph, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(transformed[v], original[v])
            << caseName(GetParam()) << " node " << v;
}

TEST_P(TransformFuzz, VirtualArrayPartitionsEdges)
{
    graph::Csr g = input();
    VirtualGraph vg(g, GetParam().degreeBound);
    std::vector<unsigned> owned(g.numEdges(), 0);
    for (const VirtualNode &node : vg.virtualNodes())
        for (std::uint32_t j = 0; j < node.count; ++j)
            ++owned[node.start + node.stride * j];
    for (EdgeIndex e = 0; e < g.numEdges(); ++e)
        ASSERT_EQ(owned[e], 1u) << caseName(GetParam());
}

std::vector<FuzzCase>
fuzzCases()
{
    std::vector<FuzzCase> cases;
    const GenKind generators[] = {GenKind::Rmat, GenKind::Ba,
                                  GenKind::Er, GenKind::Ws,
                                  GenKind::Star};
    const Topology topologies[] = {Topology::Clique, Topology::Circular,
                                   Topology::Star, Topology::Udt};
    std::uint64_t seed = 100;
    for (GenKind gen : generators)
        for (Topology topology : topologies)
            cases.push_back(
                {.generator = gen,
                 .seed = ++seed,
                 .degreeBound = static_cast<NodeId>(3 + (seed * 7) % 14),
                 .topology = topology});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransformFuzz,
                         ::testing::ValuesIn(fuzzCases()),
                         [](const auto &info) {
                             return caseName(info.param);
                         });

// ------------------------------------------------- differential fuzz
//
// Seeded end-to-end differential fuzzer: a random graph per seed, the
// multi-threaded engine under every strategy vs. the sequential
// oracles (and the parallel oracle paths vs. their serial ones).
// Every assertion carries the seed, so a failure reproduces with a
// single-case --gtest_filter. The default seed range is a ~2 s smoke
// shard; widen it with TIGR_FUZZ_SEEDS=<count> for a deep soak.

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static GenKind
    generatorOf(std::uint64_t seed)
    {
        constexpr GenKind kinds[] = {GenKind::Rmat, GenKind::Ba,
                                     GenKind::Er, GenKind::Ws};
        return kinds[seed % 4];
    }

    graph::Csr
    directedGraph() const
    {
        return makeGraph(generatorOf(GetParam()), GetParam());
    }

    graph::Csr
    symmetricGraph() const
    {
        graph::CooEdges coo =
            graph::rmat({.nodes = 180,
                         .edges = 1700,
                         .seed = GetParam() * 5 + 3});
        coo.symmetrize();
        return graph::GraphBuilder(graph::BuildOptions{})
            .build(std::move(coo));
    }

    engine::EngineOptions
    optionsFor(engine::Strategy strategy) const
    {
        engine::EngineOptions options;
        options.strategy = strategy;
        options.degreeBound =
            static_cast<NodeId>(3 + GetParam() % 12);
        options.udtBound = 16;
        options.mwVirtualWarp = 2 + GetParam() % 6;
        // Multi-threaded on purpose: the whole point is that the
        // parallel engine still matches the sequential oracles.
        options.threads = 2 + GetParam() % 7;
        return options;
    }

    std::string
    where(engine::Strategy strategy) const
    {
        return "seed " + std::to_string(GetParam()) + " strategy " +
               std::string(engine::strategyName(strategy));
    }
};

TEST_P(DifferentialFuzz, TraversalsMatchOracles)
{
    graph::Csr g = directedGraph();
    const NodeId source = GetParam() % g.numNodes();
    const auto hops = ref::bfsHops(g, source);
    const auto dist = ref::dijkstra(g, source);
    const auto width = ref::widestPath(g, source);
    for (engine::Strategy strategy : engine::kAllStrategies) {
        engine::GraphEngine engine(g, optionsFor(strategy));
        EXPECT_EQ(engine.bfs(source).values, hops) << where(strategy);
        EXPECT_EQ(engine.sssp(source).values, dist)
            << where(strategy);
        EXPECT_EQ(engine.sswp(source).values, width)
            << where(strategy);
    }
}

TEST_P(DifferentialFuzz, CcMatchesOracle)
{
    graph::Csr g = symmetricGraph();
    const auto labels = ref::connectedComponents(g);
    for (engine::Strategy strategy : engine::kAllStrategies) {
        engine::GraphEngine engine(g, optionsFor(strategy));
        EXPECT_EQ(engine.cc().values, labels) << where(strategy);
    }
}

TEST_P(DifferentialFuzz, PagerankMatchesOracle)
{
    graph::Csr g = directedGraph();
    const auto ranks = ref::pageRank(g, {.iterations = 12});
    for (engine::Strategy strategy : engine::kAllStrategies) {
        if (strategy == engine::Strategy::TigrUdt)
            continue; // PR is unsupported under the UDT transform
        engine::GraphEngine engine(g, optionsFor(strategy));
        const auto got = engine.pagerank({.iterations = 12});
        ASSERT_EQ(got.values.size(), ranks.size());
        for (NodeId v = 0; v < g.numNodes(); ++v)
            ASSERT_NEAR(got.values[v], ranks[v], 1e-9)
                << where(strategy) << " node " << v;
    }
}

TEST_P(DifferentialFuzz, ParallelOraclesMatchSerialOracles)
{
    graph::Csr g = directedGraph();
    const NodeId source = (GetParam() * 3) % g.numNodes();
    par::ThreadPool pool(2 + GetParam() % 7);
    EXPECT_EQ(ref::bfsHops(g, source, &pool),
              ref::bfsHops(g, source))
        << "seed " << GetParam();
    EXPECT_EQ(ref::shortestPaths(g, source, &pool),
              ref::dijkstra(g, source))
        << "seed " << GetParam();
    // The parallel PageRank path replays the serial addition order —
    // bit-exact, no tolerance needed.
    EXPECT_EQ(ref::pageRank(g, {.iterations = 12}, &pool),
              ref::pageRank(g, {.iterations = 12}))
        << "seed " << GetParam();
}

std::vector<std::uint64_t>
fuzzSeeds()
{
    std::uint64_t count = 3; // ~2 s smoke shard for ctest
    if (const char *env = std::getenv("TIGR_FUZZ_SEEDS")) {
        long parsed = std::atol(env);
        if (parsed > 0)
            count = static_cast<std::uint64_t>(parsed);
    }
    std::vector<std::uint64_t> seeds(count);
    for (std::uint64_t i = 0; i < count; ++i)
        seeds[i] = 1000 + i;
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(SmokeShard, DifferentialFuzz,
                         ::testing::ValuesIn(fuzzSeeds()),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

} // namespace
} // namespace tigr::transform
