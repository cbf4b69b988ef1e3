/**
 * @file
 * The adaptive frontier, pinned: the Frontier container itself
 * (dedup, touched-only clearing, compaction), the sparse/dense switch
 * boundary, the engine edge cases the worklist rewrite must survive
 * (empty frontier, all-active CC start, duplicate activations, n = 0
 * and n = 1 graphs), and the cross-mode / pull-filter value identity
 * that makes the mode a pure performance knob.
 */
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/frontier.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"

namespace tigr::engine {
namespace {

graph::Csr
fromCoo(graph::CooEdges coo)
{
    return graph::GraphBuilder(graph::BuildOptions{})
        .build(std::move(coo));
}

/** Directed ring 0 -> 1 -> ... -> n-1 -> 0: every BSP iteration has a
 *  frontier of exactly one node. */
graph::Csr
ring(NodeId n)
{
    graph::CooEdges coo(n);
    for (NodeId v = 0; v < n; ++v)
        coo.add(v, (v + 1) % n, 1);
    return fromCoo(std::move(coo));
}

EngineOptions
withFrontier(FrontierMode mode, double ratio = kDefaultFrontierRatio)
{
    EngineOptions options;
    options.strategy = Strategy::Baseline;
    options.frontier = mode;
    options.frontierRatio = ratio;
    options.threads = 1;
    return options;
}

TEST(Frontier, ActivateDeduplicatesAndCounts)
{
    Frontier f;
    f.reset(10, false);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.universe(), 10u);
    EXPECT_TRUE(f.activate(4));
    EXPECT_FALSE(f.activate(4)); // duplicate: bitmap filters it
    EXPECT_TRUE(f.activate(2));
    EXPECT_TRUE(f.activate(7));
    EXPECT_EQ(f.count(), 3u);
    EXPECT_TRUE(f.active(4));
    EXPECT_FALSE(f.active(5));
    // Compaction sorts the activation order 4, 2, 7 ascending.
    auto nodes = f.compacted(nullptr);
    EXPECT_EQ(std::vector<NodeId>(nodes.begin(), nodes.end()),
              (std::vector<NodeId>{2, 4, 7}));
}

TEST(Frontier, ClearIsTouchedOnlyAndReusable)
{
    Frontier f;
    f.reset(100, false);
    f.activate(3);
    f.activate(42);
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_FALSE(f.active(3));
    EXPECT_FALSE(f.active(42));
    EXPECT_TRUE(f.compacted(nullptr).empty());
    // Still usable after the clear.
    EXPECT_TRUE(f.activate(42));
    EXPECT_EQ(f.count(), 1u);
}

TEST(Frontier, AllActiveResetCompactsFromBitmap)
{
    // An all-active reset (the CC start) invalidates the activation
    // list: compacted() must rebuild it via the parallel count-then-
    // prefix-scan, identically with and without a pool.
    Frontier serial;
    serial.reset(9000, true);
    EXPECT_EQ(serial.count(), 9000u);
    auto nodes = serial.compacted(nullptr);
    ASSERT_EQ(nodes.size(), 9000u);
    for (NodeId v = 0; v < 9000; ++v)
        EXPECT_EQ(nodes[v], v);

    par::ThreadPool pool(3);
    Frontier parallel;
    parallel.reset(9000, true);
    auto par_nodes = parallel.compacted(&pool);
    EXPECT_TRUE(std::equal(nodes.begin(), nodes.end(),
                           par_nodes.begin(), par_nodes.end()));

    // clear() after an all-active reset falls back to the O(n) fill
    // and leaves a consistent empty frontier.
    serial.clear();
    EXPECT_TRUE(serial.empty());
    EXPECT_TRUE(serial.compacted(nullptr).empty());
}

TEST(Frontier, ScanOrSortCrossoverGivesSameAscendingList)
{
    // An unsorted activation list is sorted below the crossover and
    // rebuilt from the bitmap above it; both must give the ascending
    // active set, with or without a pool, and stay usable afterwards.
    constexpr NodeId n = 40000; // ~10 compaction chunks
    std::uint64_t crossover = 1;
    while (!compactsByScan(crossover, n))
        ++crossover;
    ASSERT_FALSE(compactsByScan(crossover - 1, n));
    ASSERT_LT(crossover, n / 4);

    par::ThreadPool pool(4);
    for (par::ThreadPool *p : {static_cast<par::ThreadPool *>(nullptr),
                               &pool}) {
        for (const std::uint64_t count : {crossover - 1, crossover}) {
            SCOPED_TRACE("count " + std::to_string(count) +
                         (p ? " pooled" : " serial"));
            Frontier f;
            f.reset(n, false);
            std::vector<NodeId> expected;
            // 7919 is coprime to n: distinct nodes, scrambled order.
            for (std::uint64_t i = 0; i < count; ++i) {
                const auto v = static_cast<NodeId>((i * 7919 + 13) % n);
                EXPECT_TRUE(f.activate(v));
                expected.push_back(v);
            }
            std::sort(expected.begin(), expected.end());
            auto nodes = f.compacted(p);
            EXPECT_EQ(std::vector<NodeId>(nodes.begin(), nodes.end()),
                      expected);

            // The rebuilt list is the activation list again: later
            // activations and the touched-only clear still work.
            if (f.activate(n - 1)) // the largest id: stays ascending
                expected.push_back(n - 1);
            nodes = f.compacted(p);
            EXPECT_EQ(std::vector<NodeId>(nodes.begin(), nodes.end()),
                      expected);
            f.clear();
            EXPECT_TRUE(f.empty());
            EXPECT_FALSE(f.active(expected.front()));
            EXPECT_TRUE(f.compacted(p).empty());
        }
    }
}

TEST(Frontier, ParseAndNameRoundTrip)
{
    for (FrontierMode mode : kAllFrontierModes)
        EXPECT_EQ(parseFrontierMode(frontierModeName(mode)), mode);
    EXPECT_FALSE(parseFrontierMode("bitmap").has_value());
    EXPECT_FALSE(parseFrontierMode("").has_value());
}

TEST(FrontierEngine, EmptyFrontierAtFirstIterationConverges)
{
    // BFS from an isolated node: under Gunrock's per-edge units a
    // degree-0 active node contributes zero units, so the very first
    // gather comes back empty and the run converges without executing
    // an iteration.
    graph::CooEdges coo(5);
    coo.add(1, 2, 1);
    coo.add(2, 3, 1);
    graph::Csr g = fromCoo(std::move(coo));
    for (FrontierMode mode : kAllFrontierModes) {
        EngineOptions options = withFrontier(mode);
        options.strategy = Strategy::Gunrock;
        GraphEngine engine(g, options);
        auto run = engine.bfs(0);
        EXPECT_TRUE(run.info.converged);
        EXPECT_EQ(run.info.iterations, 0u);
        EXPECT_EQ(run.values[0], 0u);
        for (NodeId v = 1; v < 5; ++v)
            EXPECT_EQ(run.values[v], kInfDist);
    }
}

TEST(FrontierEngine, AllActiveCcStart)
{
    graph::CooEdges coo = graph::rmat(
        {.nodes = 400, .edges = 2400, .seed = 9});
    coo.symmetrize();
    graph::Csr g = fromCoo(std::move(coo));
    const auto expected =
        GraphEngine(g, withFrontier(FrontierMode::Dense)).cc();
    for (FrontierMode mode :
         {FrontierMode::Sparse, FrontierMode::Adaptive}) {
        auto run = GraphEngine(g, withFrontier(mode)).cc();
        EXPECT_EQ(run.values, expected.values);
        EXPECT_EQ(run.info.iterations, expected.info.iterations);
        // Iteration 1 starts with every node active.
        EXPECT_EQ(run.info.peakFrontier, g.numNodes());
    }
}

TEST(FrontierEngine, DuplicateActivationsCountOnce)
{
    // Both 0 -> 2 and 1 -> 2 improve node 2 in iteration 1 (0 and 1
    // are both seeds' successors... build it so two in-edges hit node
    // 2 from the seed): frontier count must be deduplicated.
    graph::CooEdges coo(4);
    coo.add(0, 1, 1); // seed activates 1 and 2
    coo.add(0, 2, 1);
    coo.add(1, 3, 1); // both 1 -> 3 and 2 -> 3: duplicate activation
    coo.add(2, 3, 1);
    graph::Csr g = fromCoo(std::move(coo));
    for (FrontierMode mode : kAllFrontierModes) {
        auto run = GraphEngine(g, withFrontier(mode)).bfs(0);
        EXPECT_EQ(run.values,
                  (std::vector<Dist>{0, 1, 1, 2}));
        // Iterations: {1,2} relax, {3} relaxes, {} no change.
        // Peak frontier is the deduplicated 2, not 1+1+... repeats.
        EXPECT_EQ(run.info.peakFrontier, 2u);
    }
}

TEST(FrontierEngine, EmptyGraph)
{
    graph::Csr g = fromCoo(graph::CooEdges(0));
    for (FrontierMode mode : kAllFrontierModes) {
        auto run = GraphEngine(g, withFrontier(mode)).cc();
        EXPECT_TRUE(run.info.converged);
        EXPECT_TRUE(run.values.empty());
    }
}

TEST(FrontierEngine, SingleNodeGraph)
{
    graph::Csr g = fromCoo(graph::CooEdges(1));
    for (FrontierMode mode : kAllFrontierModes) {
        auto run = GraphEngine(g, withFrontier(mode)).bfs(0);
        EXPECT_TRUE(run.info.converged);
        ASSERT_EQ(run.values.size(), 1u);
        EXPECT_EQ(run.values[0], 0u);
        EXPECT_LE(run.info.iterations, 1u);
    }
}

TEST(FrontierEngine, AdaptiveSwitchThresholdBoundary)
{
    // On a 128-node directed ring every frontier is exactly one node.
    // ratio = 1/128 puts the threshold at exactly 1.0: count <=
    // threshold, so EVERY iteration must run sparse (equality goes
    // sparse). ratio = 1/256 puts it at 0.5: every iteration dense.
    graph::Csr g = ring(128);
    auto sparse_side =
        GraphEngine(g, withFrontier(FrontierMode::Adaptive, 1.0 / 128))
            .bfs(0);
    EXPECT_EQ(sparse_side.info.sparseIterations,
              sparse_side.info.iterations);
    EXPECT_GT(sparse_side.info.iterations, 100u);

    auto dense_side =
        GraphEngine(g, withFrontier(FrontierMode::Adaptive, 1.0 / 256))
            .bfs(0);
    EXPECT_EQ(dense_side.info.sparseIterations, 0u);
    EXPECT_EQ(dense_side.values, sparse_side.values);
    EXPECT_EQ(dense_side.info.iterations, sparse_side.info.iterations);

    // The forced modes bracket the adaptive behavior.
    auto forced_sparse =
        GraphEngine(g, withFrontier(FrontierMode::Sparse)).bfs(0);
    EXPECT_EQ(forced_sparse.info.sparseIterations,
              forced_sparse.info.iterations);
    auto forced_dense =
        GraphEngine(g, withFrontier(FrontierMode::Dense)).bfs(0);
    EXPECT_EQ(forced_dense.info.sparseIterations, 0u);
}

TEST(FrontierEngine, SparseChargesCompactionLaunches)
{
    graph::Csr g = ring(64);
    auto dense =
        GraphEngine(g, withFrontier(FrontierMode::Dense)).sssp(0);
    auto sparse =
        GraphEngine(g, withFrontier(FrontierMode::Sparse)).sssp(0);
    EXPECT_EQ(dense.values, sparse.values);
    EXPECT_EQ(dense.info.iterations, sparse.info.iterations);
    EXPECT_EQ(dense.info.stats.launches, dense.info.iterations);
    EXPECT_EQ(sparse.info.stats.launches,
              sparse.info.iterations + sparse.info.sparseIterations);
    EXPECT_EQ(sparse.info.sparseIterations, sparse.info.iterations);
}

TEST(FrontierEngine, PullFilterMatchesUnfilteredAndPush)
{
    graph::CooEdges coo = graph::rmat(
        {.nodes = 500, .edges = 4000, .seed = 11});
    graph::BuildOptions build;
    build.randomizeWeights = true;
    build.maxWeight = 16;
    build.weightSeed = 11;
    graph::Csr g = graph::GraphBuilder(build).build(std::move(coo));

    EngineOptions push_opts = withFrontier(FrontierMode::Adaptive);
    push_opts.strategy = Strategy::TigrVPlus;
    const auto push_sssp = GraphEngine(g, push_opts).sssp(0);
    const auto push_cc = GraphEngine(g, push_opts).cc();

    EngineOptions pull_opts = push_opts;
    pull_opts.direction = Direction::Pull;
    GraphEngine filtered(g, pull_opts);
    const auto pull_sssp = filtered.sssp(0);
    EXPECT_EQ(pull_sssp.values, push_sssp.values);
    EXPECT_GT(pull_sssp.info.sparseIterations, 0u);
    EXPECT_EQ(filtered.cc().values, push_cc.values);

    // The opt-out restores the classic all-destinations gather — same
    // values, every iteration at full width.
    EngineOptions unfiltered_opts = pull_opts;
    unfiltered_opts.pullWorklist = false;
    GraphEngine unfiltered(g, unfiltered_opts);
    const auto plain = unfiltered.sssp(0);
    EXPECT_EQ(plain.values, push_sssp.values);
    EXPECT_EQ(plain.info.sparseIterations, 0u);
    EXPECT_EQ(plain.info.peakFrontier, g.numNodes());
}

} // namespace
} // namespace tigr::engine
