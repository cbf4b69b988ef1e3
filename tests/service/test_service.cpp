/**
 * @file
 * GraphStore, TransformCache, and script-runner behavior: stable
 * addresses, LRU eviction under a byte budget, hit/miss accounting,
 * and deterministic script output.
 */
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/graph_store.hpp"
#include "service/script.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"

namespace tigr::service {
namespace {

namespace fs = std::filesystem;

graph::Csr
ringGraph(NodeId n)
{
    graph::CooEdges coo(n);
    for (NodeId v = 0; v < n; ++v)
        coo.add(v, (v + 1) % n, 1 + v % 5);
    return graph::Csr::fromCoo(coo);
}

graph::Csr
rmatGraph(std::uint64_t seed)
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 400, .edges = 4000, .seed = seed}));
}

TEST(GraphStore, AddFindRemove)
{
    GraphStore store;
    const StoredGraph &a = store.add("ring", ringGraph(64));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.contains("ring"));
    EXPECT_EQ(store.find("ring"), &a);
    EXPECT_EQ(store.find("nope"), nullptr);
    EXPECT_THROW(store.at("nope"), std::out_of_range);

    EXPECT_THROW(store.add("ring", ringGraph(8)),
                 std::invalid_argument);
    EXPECT_THROW(store.add("", ringGraph(8)), std::invalid_argument);

    EXPECT_TRUE(store.remove("ring"));
    EXPECT_FALSE(store.remove("ring"));
    EXPECT_EQ(store.size(), 0u);
}

TEST(GraphStore, AddressesStayStableAcrossInsertions)
{
    GraphStore store;
    const graph::Csr *first = &store.add("a", ringGraph(32)).graph;
    for (int i = 0; i < 64; ++i)
        store.add(std::string("g").append(std::to_string(i)),
                  ringGraph(16));
    EXPECT_EQ(&store.at("a").graph, first);
    EXPECT_EQ(store.names().front(), "a"); // sorted order
}

TEST(GraphStore, SnapshotEntryKeepsVirtualSection)
{
    const fs::path file =
        fs::temp_directory_path() / "tigr_store_virtual.tgs";
    const graph::Csr g = rmatGraph(5);
    transform::VirtualGraph vg(g, 6,
                               transform::EdgeLayout::Consecutive);
    saveSnapshotFile(vg, file);

    GraphStore store;
    const StoredGraph &entry = store.addSnapshot("r", file);
    EXPECT_EQ(entry.graph, g);
    ASSERT_TRUE(entry.hasVirtual);
    auto rebound = entry.virtualGraph();
    ASSERT_TRUE(rebound.has_value());
    EXPECT_EQ(rebound->numVirtualNodes(), vg.numVirtualNodes());
    EXPECT_EQ(rebound->degreeBound(), 6u);
    fs::remove(file);
}

TEST(TransformCache, HitMissAndSharedPointers)
{
    GraphStore store;
    const graph::Csr &g = store.add("r", rmatGraph(3)).graph;
    TransformCache cache(std::size_t{16} << 20);

    const TransformKey key{"r", &g, engine::Strategy::TigrVPlus, 8, 8};
    EXPECT_EQ(cache.get(key), nullptr);

    bool hit = true;
    auto built = cache.getOrBuild(key, nullptr, &hit);
    ASSERT_NE(built, nullptr);
    EXPECT_FALSE(hit);
    EXPECT_GT(built->schedule.numUnits(), 0u);

    auto again = cache.getOrBuild(key, nullptr, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(again.get(), built.get()); // same shared schedule

    // A different K is a different decomposition.
    auto other = cache.getOrBuild(
        TransformKey{"r", &g, engine::Strategy::TigrVPlus, 4, 8},
        nullptr, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(other.get(), built.get());

    const TransformCacheStats stats = cache.stats();
    // One hit (the repeated getOrBuild); the initial empty get() and
    // both builds are misses.
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, built->schedule.sizeInBytes() +
                               other->schedule.sizeInBytes());
}

TEST(TransformCache, EvictsLeastRecentlyUsedUnderByteBudget)
{
    GraphStore store;
    const graph::Csr &g = store.add("r", rmatGraph(4)).graph;

    // Budget sized to hold roughly two schedules.
    const TransformKey k1{"r", &g, engine::Strategy::TigrVPlus, 8, 8};
    TransformCache probe(std::size_t{1} << 30);
    const std::size_t one =
        probe.getOrBuild(k1)->schedule.sizeInBytes();

    TransformCache cache(2 * one + one / 2);
    cache.getOrBuild(k1);
    const TransformKey k2{"r", &g, engine::Strategy::TigrV, 8, 8};
    cache.getOrBuild(k2);
    // Touch k1 so k2 is the LRU victim when k3 arrives.
    EXPECT_NE(cache.get(k1), nullptr);
    const TransformKey k3{"r", &g, engine::Strategy::Baseline, 8, 8};
    cache.getOrBuild(k3);

    EXPECT_NE(cache.get(k1), nullptr);
    EXPECT_NE(cache.get(k3), nullptr);
    EXPECT_EQ(cache.get(k2), nullptr) << "LRU entry not evicted";
    EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(TransformCache, OversizedEntryIsReturnedButNotRetained)
{
    GraphStore store;
    const graph::Csr &g = store.add("r", rmatGraph(6)).graph;
    TransformCache cache(16); // absurdly small budget
    const TransformKey key{"r", &g, engine::Strategy::TigrVPlus, 8, 8};
    auto built = cache.getOrBuild(key);
    ASSERT_NE(built, nullptr);
    EXPECT_GT(built->schedule.numUnits(), 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.get(key), nullptr);
}

TEST(TransformCache, InvalidateGraphDropsOnlyThatGraph)
{
    GraphStore store;
    const graph::Csr &a = store.add("a", rmatGraph(7)).graph;
    const graph::Csr &b = store.add("b", rmatGraph(8)).graph;
    TransformCache cache(std::size_t{64} << 20);
    const TransformKey ka{"a", &a, engine::Strategy::TigrVPlus, 8, 8};
    const TransformKey kb{"b", &b, engine::Strategy::TigrVPlus, 8, 8};
    cache.getOrBuild(ka);
    cache.getOrBuild(kb);
    cache.invalidateGraph(&a);
    EXPECT_EQ(cache.get(ka), nullptr);
    EXPECT_NE(cache.get(kb), nullptr);
}

TEST(ScriptRunner, LoadQueryStatsDeterministicOutput)
{
    const fs::path file =
        fs::temp_directory_path() / "tigr_script_ring.tgs";
    saveSnapshotFile(ringGraph(128), file);

    const std::string script = "# demo\n"
                               "load ring " +
                               file.string() +
                               "\n"
                               "query ring bfs source=0\n"
                               "query ring bfs source=0\n"
                               "run\n"
                               "stats\n";

    std::string first;
    for (unsigned workers : {1u, 4u}) {
        std::istringstream in(script);
        std::ostringstream out;
        ScriptOptions options;
        options.workers = workers;
        EXPECT_EQ(runScript(in, out, options), 0);
        std::string text = out.str();
        EXPECT_NE(text.find("loaded ring nodes=128 edges=128"),
                  std::string::npos)
            << text;
        EXPECT_NE(text.find("outcome=completed"), std::string::npos);
        EXPECT_NE(text.find("cached=1"), std::string::npos)
            << "second identical query must hit the cache: " << text;
        // Strip the stats workers= suffix (differs by config) before
        // comparing runs.
        text.resize(text.rfind(" workers="));
        if (first.empty())
            first = text;
        else
            EXPECT_EQ(text, first) << "script output must not depend "
                                      "on the worker count";
    }
    fs::remove(file);
}

TEST(ScriptRunner, MalformedCommandsThrowWithLineNumbers)
{
    for (const char *bad :
         {"bogus\n", "load onlyname\n", "query g\n",
          "query g nosuchalgo\n", "run extra\n"}) {
        std::istringstream in(bad);
        std::ostringstream out;
        EXPECT_THROW(runScript(in, out), std::runtime_error) << bad;
    }
}

TEST(ScriptRunner, FrontierKeysParseAndMatchDenseResults)
{
    const fs::path file =
        fs::temp_directory_path() / "tigr_script_frontier.tgs";
    saveSnapshotFile(ringGraph(96), file);

    // The representation is a pure perf knob: digests must match the
    // dense run exactly.
    std::string digests[2];
    int i = 0;
    for (const char *keys :
         {"frontier=dense", "frontier=sparse frontier-ratio=0.5"}) {
        std::istringstream in("load ring " + file.string() +
                              "\nquery ring bfs source=0 " + keys +
                              "\nrun\n");
        std::ostringstream out;
        ASSERT_EQ(runScript(in, out), 0) << keys;
        const std::string text = out.str();
        EXPECT_NE(text.find("outcome=completed"), std::string::npos)
            << text;
        const auto pos = text.find("digest=");
        ASSERT_NE(pos, std::string::npos) << text;
        digests[i++] = text.substr(pos, text.find(' ', pos) - pos);
    }
    EXPECT_EQ(digests[0], digests[1]);

    for (const char *bad :
         {"query g bfs frontier=bitmap\n",
          "query g bfs frontier-ratio=1.5\n",
          "query g bfs frontier-ratio=abc\n"}) {
        std::istringstream in(bad);
        std::ostringstream out;
        EXPECT_THROW(runScript(in, out), std::runtime_error) << bad;
    }
    fs::remove(file);
}

} // namespace
} // namespace tigr::service
