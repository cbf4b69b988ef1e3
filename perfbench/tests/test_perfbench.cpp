/**
 * @file
 * Tests of the benchmark's own code: percentiles and the p90 sample
 * rule, span self time, seed determinism of every input, the output
 * checks, and that BENCHMARK.json names exactly the metric tables.
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "checks.hpp"
#include "engine/graph_engine.hpp"
#include "inputs.hpp"
#include "ref/oracles.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace tigr::perfbench {
namespace {

namespace fs = std::filesystem;

TEST(Percentile, NearestRankPicksAMeasuredSample)
{
    const std::vector<double> samples = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
    EXPECT_EQ(percentile(samples, 0.5), 5);
    EXPECT_EQ(percentile(samples, 0.9), 9);
    EXPECT_EQ(percentile(samples, 1.0), 10);
    EXPECT_EQ(percentile({42.0}, 0.9), 42.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondP90NeedsOneHundred)
{
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
    EXPECT_EQ(minSamplesFor(0.9), 100u);
    EXPECT_EQ(minSamplesFor(0.5), 20u);
    EXPECT_EQ(minSamplesFor(0.99, 10), 1000u);
    for (std::size_t n = 1; n < 400; ++n)
        EXPECT_EQ(samplesBeyond(n, 0.9) >= 10, n >= minSamplesFor(0.9));
}

Span
span(const char *name, std::int64_t start, std::int64_t end,
     std::size_t parent, std::uint32_t request = 1)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    s.request = request;
    return s;
}

TEST(Spans, SelfTimeSubtractsMergedClippedChildren)
{
    const std::vector<Span> spans = {
        span("bench.request", 0, 100, kNoSpan),   // 0
        span("engine.a", 10, 30, 0),              // 1
        span("engine.b", 20, 40, 0),              // 2 overlaps 1
        span("sim.c", 12, 14, 1),                 // 3 grandchild
        span("service.store.d", 90, 120, 0),      // 4 clipped at 100
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 30 - 10);
    EXPECT_EQ(self[1], 20 - 2);
    EXPECT_EQ(self[2], 20);
    EXPECT_EQ(self[3], 2);
    EXPECT_EQ(self[4], 30);
}

TEST(Spans, LayersCoverageAndTracerNesting)
{
    EXPECT_EQ(layerOf("service.store.mutate"), "service.store");
    EXPECT_EQ(layerOf("engine.bc"), "engine");

    Tracer tracer(true);
    tracer.beginRequest();
    {
        SpanScope outer(tracer, "service.scheduler.run_batch");
        SpanScope inner(tracer, "engine.sssp_push");
    }
    tracer.endRequest();
    {
        SpanScope setup(tracer, "service.snapshot.load");
    }
    tracer.setActive(false);
    {
        SpanScope skipped(tracer, "engine.bfs_push");
    }
    const std::vector<Span> &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].parent, kNoSpan);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[2].parent, 1u);
    EXPECT_EQ(spans[1].request, spans[2].request);
    EXPECT_NE(spans[1].request, 0u);
    EXPECT_EQ(spans[3].request, 0u);
    EXPECT_EQ(spans[3].parent, kNoSpan);

    Tracer off(false);
    {
        SpanScope nothing(off, "engine.cc_push");
    }
    EXPECT_TRUE(off.spans().empty());

    const std::vector<Span> timed = {
        span("bench.request", 0, 100, kNoSpan),
        span("engine.x", 10, 90, 0),
        span("service.snapshot.load", 200, 300, kNoSpan, 0),
    };
    const auto layers = layerSelfMs(timed);
    EXPECT_DOUBLE_EQ(layers.at("engine"), 80e-6);
    EXPECT_DOUBLE_EQ(layers.at("bench"), 20e-6);
    EXPECT_FALSE(layers.count("service.snapshot"));
    EXPECT_DOUBLE_EQ(traceCoverage(timed, 100e-6), 0.8);

    std::ostringstream chrome;
    writeChromeTrace(chrome, timed);
    EXPECT_NE(chrome.str().find("\"name\":\"host\""), std::string::npos);
    EXPECT_NE(chrome.str().find("\"ph\":\"X\""), std::string::npos);
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Every regular file under @p dir, by relative path, with its bytes. */
std::map<std::string, std::string>
filesUnder(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            out[fs::relative(entry.path(), dir).string()] =
                readFile(entry.path());
    }
    return out;
}

class SeedDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("perfbench-seed-" + std::to_string(::getpid()));
        fs::remove_all(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    /** All three workloads' input files for @p seed in a fresh dir. */
    std::map<std::string, std::string> inputs(const std::string &tag,
                                              std::uint64_t seed)
    {
        const fs::path dir = root_ / tag;
        const Sizes sizes = Sizes::tiny();
        writeAnalyticsInputs(dir, sizes, seed);
        writeServeInputs(dir, sizes, seed);
        writeMutateInputs(dir, sizes, seed);
        return filesUnder(dir);
    }

    fs::path root_;
};

TEST_F(SeedDeterminism, SameSeedSameBytesOtherSeedOtherBytes)
{
    const auto a = inputs("a", 5);
    const auto b = inputs("b", 5);
    const auto c = inputs("c", 6);
    ASSERT_EQ(a.size(), 5u); // 3 snapshots + durable snapshot + journal
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), c.size());
    for (const auto &[name, bytes] : a)
        EXPECT_NE(bytes, c.at(name)) << name;
}

TEST_F(SeedDeterminism, MutationBatchesFollowTheSeed)
{
    const Sizes sizes = Sizes::tiny();
    MutateInputs a = writeMutateInputs(root_ / "a", sizes, 9);
    MutateInputs b = writeMutateInputs(root_ / "b", sizes, 9);
    for (std::uint64_t round = 0; round < 4; ++round) {
        const dynamic::MutationBatch batch = nextCommit(a.replica, round);
        EXPECT_FALSE(batch.empty());
        EXPECT_LT(batch.size() * 1000, a.base.numEdges() + 3000);
        EXPECT_EQ(batch, nextCommit(b.replica, round));
    }
    EXPECT_EQ(a.replica.toCsr().colIndices(), b.replica.toCsr().colIndices());
    EXPECT_NE(nextCommit(a.replica, 100), nextCommit(b.replica, 101));
}

TEST(OutputChecks, CatchACorruptedValue)
{
    const graph::Csr g = rmatGraph(256, 2048, 11, true);
    engine::EngineOptions options;
    options.threads = 1;
    engine::GraphEngine engine(g, options);
    const NodeId source = pickSources(g, 1, 3)[0];

    std::vector<Dist> distances = engine.sssp(source).values;
    const std::vector<Dist> oracle = ref::dijkstra(g, source);
    EXPECT_EQ(distances, oracle);
    const std::uint64_t digest = valueDigest(distances);
    distances[distances.size() / 2] ^= 1;
    EXPECT_NE(distances, oracle);
    EXPECT_NE(valueDigest(distances), digest);

    engine::PageRankOptions pr;
    pr.iterations = 10;
    std::vector<double> ranks = engine.pagerank(pr).values;
    const std::vector<double> rank_oracle =
        ref::pageRank(g, {.damping = 0.85, .iterations = 10});
    EXPECT_TRUE(nearMatch(ranks, rank_oracle, kRankTolerance, 0.0));
    ranks[7] += 1e-6;
    EXPECT_FALSE(nearMatch(ranks, rank_oracle, kRankTolerance, 0.0));
    ranks[7] = std::nan("");
    EXPECT_FALSE(nearMatch(ranks, rank_oracle, kRankTolerance, 0.0));
    ranks.pop_back();
    EXPECT_FALSE(nearMatch(ranks, rank_oracle, 1.0, 1.0));
}

TEST(Report, ResultLineCarriesEveryMetricOfItsTable)
{
    Report report;
    for (const MetricDef &def : endToEndMetrics())
        report.set(def.name, 1.25);
    const std::string line = report.resultJson(false, true, 10, 0);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
    for (const MetricDef &def : endToEndMetrics())
        EXPECT_NE(line.find("\"" + std::string(def.name) + "\""),
                  std::string::npos);
    EXPECT_THROW(report.set("no.such_metric", 1.0), std::invalid_argument);
    EXPECT_THROW(Report().resultJson(false, true, 1, 0), std::logic_error);
    EXPECT_NO_THROW(Report().resultJson(true, true, 1, 0));
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
    EXPECT_THROW(jsonNumber(std::nan("")), std::logic_error);
}

TEST(Report, BenchmarkJsonNamesExactlyTheTables)
{
    const std::string json = readFile(PERFBENCH_BENCHMARK_JSON);
    ASSERT_FALSE(json.empty());
    std::size_t names = 0;
    for (std::size_t at = json.find("\"name\""); at != std::string::npos;
         at = json.find("\"name\"", at + 1))
        ++names;
    const std::size_t workloads = 3;
    EXPECT_EQ(names, workloads + endToEndMetrics().size() +
                         perLayerMetrics().size());
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *table) {
            EXPECT_NE(json.find("\"name\": \"" + std::string(def.name) +
                                "\", \"unit\": \"" +
                                std::string(def.unit) + "\", \"better\": \"" +
                                std::string(def.better) + "\""),
                      std::string::npos)
                << def.name;
        }
    }
}

} // namespace
} // namespace tigr::perfbench
