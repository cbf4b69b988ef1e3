/**
 * @file
 * serve-mixed: the analytics service under a mixed query load. A
 * GraphStore holds a skewed RMAT "social" graph and a regular grid
 * "road" graph (where splitting does almost nothing); a QueryScheduler
 * with 2 workers serves fixed-size batches of the six analyses, push
 * and pull, tigr-v+ and tigr-v, K in {10, 32}, and the client waits for
 * each batch. The transform cache holds the whole working set. This is
 * the only workload where scheduler phases, cache lookups and
 * concurrency across queries do the work.
 */
#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <random>
#include <utility>

#include "checks.hpp"
#include "engine/graph_engine.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace tigr::perfbench {
namespace {

using engine::Algorithm;
using engine::Direction;
using engine::Strategy;
using service::QuerySpec;

constexpr unsigned kWorkers = 2;
constexpr unsigned kPageRankRounds = 10;
/** Distinct batches; the run cycles through them, one pass each. */
constexpr std::size_t kPeriod = 8;
/** Far above the working set (a few MiB of schedules). */
constexpr std::size_t kCacheBudget = std::size_t{1} << 30;
/** Unmeasured batches before the timed phase (about 3 s). */
constexpr std::size_t kWarmupBatches = 3 * kPeriod;
constexpr int kSetups = 7;

constexpr std::array<Algorithm, 6> kAlgorithms = {
    Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp,
    Algorithm::Cc,  Algorithm::Pr,   Algorithm::Bc};
constexpr std::array<const char *, 2> kGraphs = {"social", "road"};

/** The eight (direction, strategy, K) variants of a query slot. */
struct Variant
{
    Direction direction;
    Strategy strategy;
    NodeId degreeBound;
};
constexpr std::array<Variant, kPeriod> kVariants = {{
    {Direction::Push, Strategy::TigrVPlus, 10},
    {Direction::Push, Strategy::TigrVPlus, 32},
    {Direction::Push, Strategy::TigrV, 10},
    {Direction::Push, Strategy::TigrV, 32},
    {Direction::Pull, Strategy::TigrVPlus, 10},
    {Direction::Pull, Strategy::TigrVPlus, 32},
    {Direction::Pull, Strategy::TigrV, 10},
    {Direction::Pull, Strategy::TigrV, 32},
}};

/**
 * The period of batches. Every batch holds the same 12 slots (each
 * analysis on each graph), so batches cost about the same; across the
 * period each slot runs every variant once, in a seeded order, from
 * seeded sources.
 */
std::vector<std::vector<QuerySpec>>
makeBatches(const std::array<const graph::Csr *, 2> &graphs,
            std::uint64_t seed)
{
    std::vector<std::vector<QuerySpec>> batches(kPeriod);
    std::size_t slot = 0;
    for (std::size_t g = 0; g < kGraphs.size(); ++g) {
        const std::vector<NodeId> sources =
            pickSources(*graphs[g], kPeriod, subSeed(seed, 20 + g));
        for (Algorithm algorithm : kAlgorithms) {
            std::array<std::size_t, kPeriod> order;
            std::iota(order.begin(), order.end(), 0);
            std::mt19937_64 rng(subSeed(seed, 40 + slot++));
            std::shuffle(order.begin(), order.end(), rng);
            for (std::size_t b = 0; b < kPeriod; ++b) {
                const Variant &v = kVariants[order[b]];
                QuerySpec spec;
                spec.graph = kGraphs[g];
                spec.algorithm = algorithm;
                spec.source = sources[b % sources.size()];
                spec.direction = v.direction;
                spec.strategy = v.strategy;
                spec.degreeBound = v.degreeBound;
                spec.prIterations = kPageRankRounds;
                batches[b].push_back(spec);
            }
        }
    }
    return batches;
}

/** The cold batch: one query per cache key (graph, strategy, K). */
std::vector<QuerySpec>
coldBatch(const std::array<const graph::Csr *, 2> &graphs)
{
    std::vector<QuerySpec> batch;
    for (std::size_t g = 0; g < kGraphs.size(); ++g) {
        for (const Variant &v : kVariants) {
            if (v.direction != Direction::Push)
                continue;
            QuerySpec spec;
            spec.graph = kGraphs[g];
            spec.algorithm = Algorithm::Bfs;
            spec.source = quietNode(*graphs[g]);
            spec.strategy = v.strategy;
            spec.degreeBound = v.degreeBound;
            batch.push_back(spec);
        }
    }
    return batch;
}

/** Digest of a direct GraphEngine run of @p spec, the way the
 *  scheduler maps a spec onto engine options. */
std::uint64_t
directDigest(const graph::Csr &g, const QuerySpec &spec)
{
    engine::EngineOptions options;
    options.strategy = spec.strategy;
    options.direction = spec.direction;
    options.degreeBound = spec.degreeBound;
    options.mwVirtualWarp = spec.mwVirtualWarp;
    options.frontier = spec.frontier;
    options.frontierRatio = spec.frontierRatio;
    options.threads = kWorkers;
    engine::GraphEngine e(g, options);
    switch (spec.algorithm) {
    case Algorithm::Bfs: return valueDigest(e.bfs(spec.source).values);
    case Algorithm::Sssp: return valueDigest(e.sssp(spec.source).values);
    case Algorithm::Sswp: return valueDigest(e.sswp(spec.source).values);
    case Algorithm::Cc: return valueDigest(e.cc().values);
    case Algorithm::Pr: {
        engine::PageRankOptions pr;
        pr.iterations = spec.prIterations;
        return valueDigest(e.pagerank(pr).values);
    }
    case Algorithm::Bc: {
        const NodeId one[] = {spec.source};
        return valueDigest(e.bc(one).values);
    }
    }
    return 0;
}

/** Store, cache and scheduler; members destroy in reverse order. */
struct Service
{
    service::GraphStore store;
    std::unique_ptr<service::TransformCache> cache;
    std::unique_ptr<service::QueryScheduler> scheduler;
};

/** Count each result against its oracle digest. */
void
checkBatch(RunContext &ctx, const std::vector<QuerySpec> &batch,
           const std::vector<service::QueryResult> &results,
           const std::vector<std::uint64_t> &digests)
{
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const bool ok =
            i < results.size() &&
            results[i].outcome == service::QueryOutcome::Completed &&
            results[i].digest == digests[i];
        ctx.count(ok, "serve query " + batch[i].graph + " #" +
                          std::to_string(i) +
                          " disagrees with a direct GraphEngine run");
    }
}

} // namespace

void
runServeMixed(RunContext &ctx)
{
    // Inputs and oracle digests, untimed.
    const ServeInputs inputs =
        writeServeInputs(ctx.cfg.workDir, ctx.cfg.sizes, ctx.cfg.seed);
    std::vector<std::vector<QuerySpec>> batches;
    std::vector<QuerySpec> cold;
    std::vector<std::vector<std::uint64_t>> oracle(kPeriod);
    std::vector<std::uint64_t> cold_oracle;
    {
        const graph::Csr social =
            service::loadSnapshotFile(inputs.social).graph;
        const graph::Csr road = service::loadSnapshotFile(inputs.road).graph;
        const std::array<const graph::Csr *, 2> graphs = {&social, &road};
        batches = makeBatches(graphs, ctx.cfg.seed);
        cold = coldBatch(graphs);
        auto graphOf = [&](const QuerySpec &spec) -> const graph::Csr & {
            return spec.graph == kGraphs[0] ? social : road;
        };
        for (std::size_t b = 0; b < kPeriod; ++b) {
            for (const QuerySpec &spec : batches[b])
                oracle[b].push_back(directDigest(graphOf(spec), spec));
        }
        for (const QuerySpec &spec : cold)
            cold_oracle.push_back(directDigest(graphOf(spec), spec));
    }
    resetPeakRss();

    std::vector<double> setups, loads, colds;
    std::unique_ptr<Service> svc;
    for (int i = 0; i < kSetups; ++i) {
        svc.reset();
        const auto start = std::chrono::steady_clock::now();
        svc = std::make_unique<Service>();
        {
            SpanScope span(ctx.tracer, "service.snapshot.add_snapshot");
            svc->store.addSnapshot(kGraphs[0], inputs.social);
            svc->store.addSnapshot(kGraphs[1], inputs.road);
        }
        loads.push_back(msSince(start));
        svc->cache =
            std::make_unique<service::TransformCache>(kCacheBudget);
        service::SchedulerOptions options;
        options.workers = kWorkers;
        svc->scheduler = std::make_unique<service::QueryScheduler>(
            std::as_const(svc->store), *svc->cache, options);
        const auto cold_start = std::chrono::steady_clock::now();
        std::vector<service::QueryResult> results;
        {
            SpanScope span(ctx.tracer, "service.scheduler.run_batch");
            results = svc->scheduler->runBatch(cold);
        }
        colds.push_back(msSince(cold_start));
        setups.push_back(msSince(start) / 1e3);
        checkBatch(ctx, cold, results, cold_oracle);
    }
    const service::TransformCacheStats warm = svc->cache->stats();

    std::vector<double> latencies, engine_ms;
    std::array<double, 2> graph_ms{}, graph_queries{};
    PassCounters pass;
    std::size_t degraded = 0, arena = 0, queries = 0;
    const TimedPhase phase = runTimed(
        ctx, kPeriod, kWarmupBatches, [&] { return latencies.size(); },
        [&](const Unit &unit) {
            const std::size_t b = unit.index % kPeriod;
            ctx.tracer.beginRequest();
            const auto start = std::chrono::steady_clock::now();
            std::vector<service::QueryResult> results;
            {
                SpanScope span(ctx.tracer, "service.scheduler.run_batch");
                results = svc->scheduler->runBatch(batches[b]);
            }
            const double ms = msSince(start);
            ctx.tracer.endRequest();

            checkBatch(ctx, batches[b], results, oracle[b]);
            if (!unit.measured)
                return UnitResult{ms, results.size()};
            latencies.push_back(ms);
            double batch_engine = 0.0;
            for (std::size_t i = 0; i < results.size(); ++i) {
                const engine::RunInfo &info = results[i].info;
                const std::size_t g =
                    batches[b][i].graph == kGraphs[0] ? 0 : 1;
                batch_engine += info.hostMs;
                graph_ms[g] += info.hostMs;
                graph_queries[g] += 1;
                arena += results[i].arenaServed ? 1 : 0;
                ++queries;
                if (unit.firstPass) {
                    pass.add(info);
                    degraded += results[i].degraded ? 1 : 0;
                }
            }
            engine_ms.push_back(batch_engine);
            return UnitResult{ms, results.size()};
        });
    reportPhase(ctx, phase);

    Report &out = ctx.report;
    if (!ctx.cfg.trace) {
        reportEndToEnd(ctx, setups, latencies, pass);
        return;
    }

    const double load_ms = median(loads);
    out.set("service.snapshot.load_ms", load_ms);
    out.set("service.snapshot.mb_per_s",
            static_cast<double>(std::filesystem::file_size(inputs.social) +
                                std::filesystem::file_size(inputs.road)) /
                (1 << 20) / (load_ms / 1e3));
    out.set("service.scheduler.cold_batch_ms", median(colds));
    out.set("service.scheduler.engine_ms", median(engine_ms));
    out.set("service.scheduler.utilization",
            std::accumulate(engine_ms.begin(), engine_ms.end(), 0.0) /
                (kWorkers * std::accumulate(latencies.begin(),
                                            latencies.end(), 0.0)));
    out.set("service.scheduler.social_query_ms",
            graph_ms[0] / graph_queries[0]);
    out.set("service.scheduler.road_query_ms",
            graph_ms[1] / graph_queries[1]);
    out.set("service.scheduler.degraded", static_cast<double>(degraded));
    out.set("service.scheduler.arena_served_ratio",
            static_cast<double>(arena) / static_cast<double>(queries));

    const service::TransformCacheStats end = svc->cache->stats();
    const double lookups = static_cast<double>(
        (end.hits - warm.hits) + (end.misses - warm.misses));
    out.set("service.cache.hit_ratio",
            lookups == 0.0 ? 0.0 : (end.hits - warm.hits) / lookups);
    out.set("service.cache.evictions", static_cast<double>(end.evictions));
    out.set("service.cache.bytes", static_cast<double>(end.bytes));
    out.set("service.cache.entries", static_cast<double>(end.entries));

    reportPassCounters(ctx, pass);

    // The sweep covers both graphs' full tigr-v+ K=10 unit sets.
    const engine::Schedule social = engine::Schedule::build(
        svc->store.at(kGraphs[0]).graph, Strategy::TigrVPlus, 10);
    const engine::Schedule road = engine::Schedule::build(
        svc->store.at(kGraphs[1]).graph, Strategy::TigrVPlus, 10);
    reportSweep(ctx, {&social, &road});
}

} // namespace tigr::perfbench
