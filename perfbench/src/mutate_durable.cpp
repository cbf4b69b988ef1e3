/**
 * @file
 * mutate-durable: writes beside reads on a durable store. Set-up is
 * GraphStore::openDurable under group commit, which recovers a seeded
 * journal tail. Each round then commits several small mutation batches
 * aimed at the hub head, acknowledges them with one syncJournals, and
 * runs SSSP push plus PageRank pull on the new epoch; the stale dense
 * entry means the scheduler serves both straight off the forward and
 * reverse arenas. Every kCheckpointEvery rounds a checkpoint follows
 * the queries and is charged to the round's last commit. Mutation
 * apply, arena repair, the journal and recovery do their work only
 * here; the transform cache and dense schedules do none.
 */
#include <memory>
#include <utility>

#include "checks.hpp"
#include "engine/graph_engine.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/transform_cache.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace tigr::perfbench {
namespace {

using engine::Algorithm;
using engine::Direction;
using service::QuerySpec;

constexpr unsigned kWorkers = 2;
constexpr NodeId kDegreeBound = 10;
constexpr unsigned kPageRankRounds = 10;
constexpr std::size_t kCommitsPerRound = 4;
constexpr std::size_t kCheckpointEvery = 2;
/** Rounds every run completes; the deterministic counters and
 *  sim_ms_per_query are taken over them. */
constexpr std::size_t kFirstPass = 16;
/** Unmeasured rounds before the timed phase (about 3 s). */
constexpr std::size_t kWarmupRounds = 48;
/** Rounds whose results are checked against a dense rebuild. */
constexpr std::size_t kOracleEvery = 8;
constexpr std::size_t kCacheBudget = std::size_t{1} << 30;
constexpr int kSetups = 7;

std::vector<QuerySpec>
roundQueries(NodeId source)
{
    QuerySpec sssp;
    sssp.graph = kDurableGraph;
    sssp.algorithm = Algorithm::Sssp;
    sssp.source = source;
    sssp.degreeBound = kDegreeBound;
    QuerySpec pr = sssp;
    pr.algorithm = Algorithm::Pr;
    pr.direction = Direction::Pull;
    pr.prIterations = kPageRankRounds;
    return {sssp, pr};
}

/** Digests of the round's two queries from a dense rebuild of the
 *  epoch: toCsr() of the replica run through GraphEngine. */
std::vector<std::uint64_t>
denseDigests(const graph::Csr &g, const std::vector<QuerySpec> &queries)
{
    engine::EngineOptions options;
    options.degreeBound = kDegreeBound;
    options.threads = kWorkers;
    engine::GraphEngine push(g, options);
    options.direction = Direction::Pull;
    engine::GraphEngine pull(g, options);
    engine::PageRankOptions pr;
    pr.iterations = queries[1].prIterations;
    return {valueDigest(push.sssp(queries[0].source).values),
            valueDigest(pull.pagerank(pr).values)};
}

/** Store, cache and scheduler; members destroy in reverse order. */
struct Service
{
    service::GraphStore store;
    std::unique_ptr<service::TransformCache> cache;
    std::unique_ptr<service::QueryScheduler> scheduler;
};

void
copyDirectory(const std::filesystem::path &from,
              const std::filesystem::path &to)
{
    std::filesystem::remove_all(to);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
}

std::vector<std::uint64_t>
digestsOf(const std::vector<service::QueryResult> &results)
{
    std::vector<std::uint64_t> out;
    for (const service::QueryResult &r : results)
        out.push_back(r.digest);
    return out;
}

} // namespace

void
runMutateDurable(RunContext &ctx)
{
    const std::uint64_t seed = ctx.cfg.seed;
    MutateInputs inputs =
        writeMutateInputs(ctx.cfg.workDir, ctx.cfg.sizes, seed);
    const std::vector<NodeId> sources =
        pickSources(inputs.base, 64, subSeed(seed, 30));
    resetPeakRss();

    std::vector<double> setups;
    std::uint64_t replayed = 0;
    std::filesystem::path dir;
    std::unique_ptr<Service> svc;
    service::DurableOptions durable;
    durable.syncPolicy = service::SyncPolicy::GroupCommit;
    for (int i = 0; i < kSetups; ++i) {
        svc.reset();
        dir = ctx.cfg.workDir / ("durable-" + std::to_string(i));
        copyDirectory(inputs.templateDir, dir);
        const auto start = std::chrono::steady_clock::now();
        svc = std::make_unique<Service>();
        service::RecoveryReport report;
        {
            SpanScope span(ctx.tracer, "service.recovery.open_durable");
            report = svc->store.openDurable(dir, durable);
        }
        setups.push_back(msSince(start) / 1e3);
        replayed = report.epochsReplayed();
        ctx.count(svc->store.epochOf(kDurableGraph) ==
                      ctx.cfg.sizes.journalTail,
                  "recovery did not replay the journal tail");
    }
    svc->cache = std::make_unique<service::TransformCache>(kCacheBudget);
    service::SchedulerOptions options;
    options.workers = kWorkers;
    svc->scheduler = std::make_unique<service::QueryScheduler>(
        svc->store, *svc->cache, options);
    service::GraphStore &store = svc->store;
    const std::filesystem::path journal =
        service::journalPathFor(dir / (std::string(kDurableGraph) +
                                       std::string(
                                           service::kSnapshotExtension)));

    std::vector<double> latencies, commits, mutate_ms, reverse_ms, sync_ms,
        checkpoint_ms;
    double journal_growth = 0.0, journal_mutations = 0.0;
    PassCounters pass;
    std::size_t degraded = 0, arena = 0, queries = 0;
    double touched = 0, repaired = 0, resplits = 0, compactions = 0,
           reclaimed = 0;
    std::vector<QuerySpec> last_queries;
    std::vector<std::uint64_t> last_digests;

    const TimedPhase phase = runTimed(
        ctx, kFirstPass, kWarmupRounds, [&] { return latencies.size(); },
        [&](const Unit &unit) {
            const std::size_t round = unit.index;
            // Warm-up rounds run and are checked but record nothing.
            auto record = [&](std::vector<double> &samples, double value) {
                if (unit.measured)
                    samples.push_back(value);
            };
            // Untimed: the round's batches, generated against (and
            // applied to) the replica.
            std::vector<dynamic::MutationBatch> batches;
            for (std::size_t j = 0; j < kCommitsPerRound; ++j) {
                batches.push_back(nextCommit(
                    inputs.replica,
                    subSeed(seed, 5000 + round * kCommitsPerRound + j)));
            }
            const std::vector<QuerySpec> specs =
                roundQueries(sources[round % sources.size()]);

            ctx.tracer.beginRequest();
            const auto round_start = std::chrono::steady_clock::now();
            std::vector<std::chrono::steady_clock::time_point> issued;
            for (const dynamic::MutationBatch &batch : batches) {
                const bool measure_journal = ctx.tracer.recording();
                const auto before =
                    measure_journal ? std::filesystem::file_size(journal)
                                    : 0;
                issued.push_back(std::chrono::steady_clock::now());
                bool ok = true;
                service::MutateResult result;
                try {
                    SpanScope span(ctx.tracer, "service.store.mutate");
                    result = store.mutate(kDurableGraph, batch);
                } catch (const std::exception &) {
                    ok = false;
                }
                record(mutate_ms, msSince(issued.back()));
                ctx.count(ok, "mutation rejected");
                if (measure_journal) {
                    journal_growth += static_cast<double>(
                        std::filesystem::file_size(journal) - before);
                    journal_mutations += static_cast<double>(batch.size());
                }
                record(reverse_ms, result.reverseRepairUs / 1e3);
                if (unit.firstPass) {
                    touched += static_cast<double>(
                        result.delta.touched.size() +
                        result.delta.touchedIn.size());
                    repaired += static_cast<double>(
                        result.repair.repairedVertices +
                        result.reverseRepair.repairedVertices);
                    resplits += static_cast<double>(
                        result.repair.resplitFamilies +
                        result.reverseRepair.resplitFamilies);
                    compactions += result.compacted ? 1 : 0;
                    reclaimed += static_cast<double>(result.reclaimed);
                }
            }
            const auto sync_start = std::chrono::steady_clock::now();
            {
                SpanScope span(ctx.tracer, "service.journal.sync");
                store.syncJournals();
            }
            const auto acked = std::chrono::steady_clock::now();
            record(sync_ms, msSince(sync_start));
            std::vector<double> round_commits;
            for (const auto &t : issued) {
                round_commits.push_back(
                    std::chrono::duration<double, std::milli>(acked - t)
                        .count());
            }

            const auto query_start = std::chrono::steady_clock::now();
            std::vector<service::QueryResult> results;
            {
                SpanScope span(ctx.tracer, "service.scheduler.run_batch");
                results = svc->scheduler->runBatch(specs);
            }
            record(latencies, msSince(query_start));

            if (round % kCheckpointEvery == kCheckpointEvery - 1) {
                const auto start = std::chrono::steady_clock::now();
                {
                    SpanScope span(ctx.tracer,
                                   "service.journal.checkpoint");
                    store.checkpoint(kDurableGraph);
                }
                const double checkpoint = msSince(start);
                record(checkpoint_ms, checkpoint);
                round_commits.back() += checkpoint;
            }
            for (double commit : round_commits)
                record(commits, commit);
            const double ms = msSince(round_start);
            ctx.tracer.endRequest();

            // Untimed checks.
            for (const service::QueryResult &r : results) {
                ctx.count(r.outcome == service::QueryOutcome::Completed &&
                              r.arenaServed,
                          "fresh-epoch query did not complete off the "
                          "arena");
                if (unit.measured) {
                    arena += r.arenaServed ? 1 : 0;
                    ++queries;
                }
                if (unit.firstPass) {
                    pass.add(r.info);
                    degraded += r.degraded ? 1 : 0;
                }
            }
            if (round % kOracleEvery == 0) {
                ctx.count(digestsOf(results) ==
                              denseDigests(inputs.replica.toCsr(), specs),
                          "arena-served digests disagree with the dense "
                          "rebuild at epoch " +
                              std::to_string(
                                  store.epochOf(kDurableGraph)));
            }
            last_queries = specs;
            last_digests = digestsOf(results);
            return UnitResult{ms, results.size()};
        });
    reportPhase(ctx, phase);

    // A fresh store reopening the directory must recover the last
    // acknowledged epoch and answer the last round identically.
    const std::uint64_t acked_epoch = store.epochOf(kDurableGraph);
    svc.reset();
    {
        service::GraphStore fresh;
        fresh.openDurable(dir, durable);
        service::TransformCache cache(kCacheBudget);
        service::SchedulerOptions fresh_options;
        fresh_options.workers = kWorkers;
        service::QueryScheduler scheduler(std::as_const(fresh), cache,
                                          fresh_options);
        ctx.count(fresh.epochOf(kDurableGraph) == acked_epoch &&
                      digestsOf(scheduler.runBatch(last_queries)) ==
                          last_digests,
                  "reopened store lost the last acknowledged epoch");
    }

    Report &out = ctx.report;
    if (!ctx.cfg.trace) {
        reportEndToEnd(ctx, setups, latencies, pass);
        return;
    }

    out.set("commit_ms_p50", percentile(commits, 0.5));
    out.set("commit_ms_p90", percentile(commits, 0.9));
    out.set("service.recovery.open_ms", median(setups) * 1e3);
    out.set("service.recovery.records_replayed",
            static_cast<double>(replayed));
    out.set("service.store.mutate_ms", median(mutate_ms));
    out.set("dynamic.reverse_repair_ms", median(reverse_ms));
    out.set("dynamic.touched", touched);
    out.set("dynamic.repaired", repaired);
    out.set("dynamic.resplits", resplits);
    out.set("dynamic.compactions", compactions);
    out.set("dynamic.reclaimed_slots", reclaimed);
    out.set("service.journal.sync_ms", median(sync_ms));
    out.set("service.journal.bytes_per_mutation",
            journal_growth / journal_mutations);
    out.set("service.journal.checkpoint_ms", median(checkpoint_ms));
    out.set("service.scheduler.fresh_query_ms", median(latencies));
    out.set("service.scheduler.degraded", static_cast<double>(degraded));
    out.set("service.scheduler.arena_served_ratio",
            static_cast<double>(arena) / static_cast<double>(queries));

    reportPassCounters(ctx, pass);

    const engine::Schedule schedule = engine::Schedule::build(
        inputs.base, engine::Strategy::TigrVPlus, kDegreeBound);
    reportSweep(ctx, {&schedule});
}

} // namespace tigr::perfbench
