/**
 * @file
 * Resilience suite (ctest label `fault`): deterministic fault
 * injection, retry/backoff, graceful degradation, and the per-graph
 * circuit breaker.
 *
 * The load-bearing properties pinned here:
 *
 *  - A seeded fault plan over a fixed batch produces bit-identical
 *    failure traces, outcomes, attempt counts, and digests at any
 *    worker count (the repo's determinism contract extended to
 *    failures).
 *  - A 10%-fault-rate batch never crashes the scheduler: every query
 *    ends in a terminal typed state, and every query that completes
 *    computes values bit-identical to a fault-free run.
 *  - Degraded results (dynamic-mapping fallback after cache pressure
 *    or injected cache faults) are value-identical to non-degraded
 *    ones.
 *  - The circuit breaker trips after N consecutive faults, quarantines
 *    the graph for the cooldown, half-opens, and recovers on success.
 */
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/fileio.hpp"
#include "service/graph_store.hpp"
#include "service/journal.hpp"
#include "service/query_scheduler.hpp"
#include "service/resilience.hpp"
#include "service/script.hpp"
#include "service/transform_cache.hpp"

namespace tigr::service {
namespace {

graph::Csr
rmatGraph()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 24;
    options.weightSeed = 19;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 400, .edges = 4000, .seed = 19}));
}

graph::Csr
ringGraph()
{
    const NodeId n = 300;
    graph::CooEdges coo(n);
    for (NodeId v = 0; v < n; ++v)
        coo.add(v, (v + 1) % n, v % 5 + 1);
    for (NodeId v = 0; v < n; v += 3)
        coo.add(0, v == 0 ? 1 : v, v % 7 + 1);
    return graph::Csr::fromCoo(coo);
}

GraphStore &
sharedStore()
{
    static GraphStore store;
    static const bool initialized = [] {
        store.add("rmat", rmatGraph());
        store.add("ring", ringGraph());
        return true;
    }();
    (void)initialized;
    return store;
}

/** A mixed batch exercising every retryable fault site. */
std::vector<QuerySpec>
faultBatch(std::size_t size = 60)
{
    const engine::Algorithm algos[] = {
        engine::Algorithm::Bfs, engine::Algorithm::Sssp,
        engine::Algorithm::Sswp, engine::Algorithm::Cc,
        engine::Algorithm::Pr};
    const engine::Strategy strategies[] = {
        engine::Strategy::TigrVPlus, engine::Strategy::TigrV,
        engine::Strategy::Baseline};
    std::vector<QuerySpec> batch;
    for (std::size_t i = 0; i < size; ++i) {
        QuerySpec spec;
        spec.graph = (i % 2 == 0) ? "rmat" : "ring";
        spec.algorithm = algos[i % 5];
        spec.strategy = strategies[(i / 5) % 3];
        spec.source = static_cast<NodeId>((i * 31) % 300);
        spec.degreeBound = 6;
        spec.prIterations = 10;
        batch.push_back(spec);
    }
    return batch;
}

void
expectIdenticalOutcomes(const std::vector<QueryResult> &a,
                        const std::vector<QueryResult> &b,
                        const std::string &label)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(label + ": query " + std::to_string(i));
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_EQ(a[i].digest, b[i].digest);
        EXPECT_EQ(a[i].values, b[i].values);
        EXPECT_EQ(a[i].cacheHit, b[i].cacheHit);
        EXPECT_EQ(a[i].degraded, b[i].degraded);
        EXPECT_EQ(a[i].attempts, b[i].attempts);
        EXPECT_EQ(a[i].backoffSimMs, b[i].backoffSimMs);
        EXPECT_EQ(a[i].message, b[i].message);
        EXPECT_EQ(a[i].faultTrace, b[i].faultTrace)
            << "trace A:\n" << fault::formatTrace(a[i].faultTrace)
            << "trace B:\n" << fault::formatTrace(b[i].faultTrace);
        ASSERT_EQ(a[i].error.has_value(), b[i].error.has_value());
        if (a[i].error) {
            EXPECT_EQ(a[i].error->kind, b[i].error->kind);
        }
    }
}

// ---------------------------------------------------------------------
// Fault library.

TEST(FaultPlan, SiteNamesRoundTrip)
{
    for (fault::Site site : fault::kAllSites) {
        const auto parsed = fault::parseSite(fault::siteName(site));
        ASSERT_TRUE(parsed.has_value()) << fault::siteName(site);
        EXPECT_EQ(*parsed, site);
    }
    EXPECT_FALSE(fault::parseSite("no.such.site").has_value());
}

TEST(FaultPlan, RejectsRatesOutsideUnitInterval)
{
    fault::FaultPlan plan(1);
    EXPECT_THROW(plan.site(fault::Site::Alloc, -0.1),
                 std::invalid_argument);
    EXPECT_THROW(plan.site(fault::Site::Alloc, 1.5),
                 std::invalid_argument);
    EXPECT_TRUE(fault::FaultPlan(7).inert());
    EXPECT_FALSE(
        fault::FaultPlan(7).site(fault::Site::Alloc, 0.5).inert());
}

TEST(FaultScope, DecisionsArePureFunctionsOfTheKey)
{
    fault::FaultPlan plan(42);
    plan.site(fault::Site::EngineIteration, 0.5);

    auto sample = [&](std::uint64_t scope, unsigned attempt) {
        fault::FaultTrace trace;
        fault::FaultScope armed(plan, scope, attempt, &trace);
        std::string fired;
        for (int i = 0; i < 32; ++i)
            fired += fault::fired(fault::Site::EngineIteration) ? '1'
                                                                : '0';
        return fired;
    };

    const std::string base = sample(3, 0);
    EXPECT_EQ(base, sample(3, 0)) << "same key, same decisions";
    EXPECT_NE(base, sample(4, 0)) << "scope key must matter";
    EXPECT_NE(base, sample(3, 1)) << "attempt index must matter";
    EXPECT_NE(base.find('1'), std::string::npos);
    EXPECT_NE(base.find('0'), std::string::npos);
}

TEST(FaultScope, DisarmedHooksNeverFire)
{
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::fired(fault::Site::Alloc));
    // The macro compiles into plain statement position.
    TIGR_FAULT_POINT(fault::Site::Alloc);

    fault::FaultPlan inert(9); // no sites configured
    fault::FaultScope scope(inert, 0);
    EXPECT_FALSE(fault::armed()) << "inert plans must not arm";
}

TEST(FaultScope, AllocSiteRaisesBadAlloc)
{
    fault::FaultPlan plan(5);
    plan.site(fault::Site::Alloc, 1.0);
    plan.site(fault::Site::EngineIteration, 1.0);
    fault::FaultTrace trace;
    fault::FaultScope scope(plan, 0, 0, &trace);
    EXPECT_THROW(fault::check(fault::Site::Alloc), std::bad_alloc);
    EXPECT_THROW(fault::check(fault::Site::EngineIteration),
                 fault::InjectedFault);
    // A rate-0 site never fires or records.
    EXPECT_FALSE(fault::fired(fault::Site::SnapshotRead));
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].site, fault::Site::Alloc);
    EXPECT_EQ(trace[1].site, fault::Site::EngineIteration);
}

// ---------------------------------------------------------------------
// Error taxonomy and retry policy.

TEST(ServiceErrorTaxonomy, ClassifiesExceptionsByTypeAndSite)
{
    const fault::InjectedFault iter(fault::Site::EngineIteration, "x");
    EXPECT_EQ(classifyFailure(iter).kind, ServiceErrorKind::Engine);
    const fault::InjectedFault build(fault::Site::TransformBuild, "x");
    EXPECT_EQ(classifyFailure(build).kind,
              ServiceErrorKind::TransformBuild);
    const SnapshotError snap(SnapshotErrorKind::Io, "x");
    EXPECT_EQ(classifyFailure(snap).kind, ServiceErrorKind::Snapshot);
    const std::bad_alloc oom;
    EXPECT_EQ(classifyFailure(oom).kind, ServiceErrorKind::Resource);
    const std::runtime_error other("x");
    EXPECT_EQ(classifyFailure(other).kind, ServiceErrorKind::Engine);

    auto retryable = [](ServiceErrorKind kind) {
        ServiceError error;
        error.kind = kind;
        return error.retryable();
    };
    EXPECT_FALSE(retryable(ServiceErrorKind::InvalidQuery));
    EXPECT_FALSE(retryable(ServiceErrorKind::Quarantined));
    EXPECT_TRUE(retryable(ServiceErrorKind::Resource));
    EXPECT_TRUE(retryable(ServiceErrorKind::Engine));
}

TEST(ServiceErrorTaxonomy, JournalFailuresAreTerminalDurabilityErrors)
{
    // A failed append write surfaces from GraphStore::mutate as a
    // JournalError; a raw file-layer failure as io::IoError.
    const JournalError append(JournalErrorKind::Io, "x");
    EXPECT_EQ(classifyFailure(append).kind, ServiceErrorKind::Durability);
    const JournalError foreign(JournalErrorKind::BadMagic, "x");
    EXPECT_EQ(classifyFailure(foreign).kind,
              ServiceErrorKind::Durability);
    const io::IoError raw("x");
    EXPECT_EQ(classifyFailure(raw).kind, ServiceErrorKind::Durability);
    for (const fault::Site site :
         {fault::Site::JournalAppend, fault::Site::JournalSync}) {
        const fault::InjectedFault injected(site, "x");
        const ServiceError error = classifyFailure(injected);
        EXPECT_EQ(error.kind, ServiceErrorKind::Durability);
        ASSERT_TRUE(error.site.has_value());
        EXPECT_EQ(*error.site, site);
    }

    // Never retried: the batch was never acknowledged, and a blind
    // retry could journal it twice.
    ServiceError error;
    error.kind = ServiceErrorKind::Durability;
    EXPECT_FALSE(error.retryable());
    EXPECT_EQ(serviceErrorKindName(ServiceErrorKind::Durability),
              "durability");
}

TEST(RetryPolicyTest, BackoffIsExponentialInSimulatedTime)
{
    RetryPolicy policy;
    policy.backoffBaseSimMs = 1.5;
    policy.backoffFactor = 2.0;
    EXPECT_DOUBLE_EQ(policy.backoffSimMs(0), 1.5);
    EXPECT_DOUBLE_EQ(policy.backoffSimMs(1), 3.0);
    EXPECT_DOUBLE_EQ(policy.backoffSimMs(2), 6.0);
}

// ---------------------------------------------------------------------
// Circuit breaker unit behavior.

TEST(CircuitBreakerTest, TripsHalfOpensAndRecovers)
{
    BreakerOptions options;
    options.threshold = 3;
    options.cooldownBatches = 1;
    CircuitBreaker breaker(options);

    breaker.beginBatch();
    EXPECT_TRUE(breaker.admits("g"));
    breaker.recordFault("g");
    breaker.recordFault("g");
    EXPECT_EQ(breaker.state("g"), BreakerState::Closed);
    breaker.recordFault("g");
    EXPECT_EQ(breaker.state("g"), BreakerState::Open);
    EXPECT_FALSE(breaker.admits("g"));

    breaker.beginBatch(); // still cooling down
    EXPECT_EQ(breaker.state("g"), BreakerState::Open);

    breaker.beginBatch(); // cooldown elapsed
    EXPECT_EQ(breaker.state("g"), BreakerState::HalfOpen);
    EXPECT_TRUE(breaker.admits("g"));

    breaker.recordSuccess("g");
    EXPECT_EQ(breaker.state("g"), BreakerState::Closed);
    EXPECT_EQ(breaker.consecutiveFaults("g"), 0u);
}

TEST(CircuitBreakerTest, HalfOpenReopensOnOneMoreFault)
{
    BreakerOptions options;
    options.threshold = 2;
    options.cooldownBatches = 1;
    CircuitBreaker breaker(options);
    breaker.beginBatch();
    breaker.recordFault("g");
    breaker.recordFault("g");
    breaker.beginBatch();
    breaker.beginBatch();
    ASSERT_EQ(breaker.state("g"), BreakerState::HalfOpen);
    breaker.recordFault("g");
    EXPECT_EQ(breaker.state("g"), BreakerState::Open);
}

TEST(CircuitBreakerTest, ManualResetCloses)
{
    CircuitBreaker breaker({.threshold = 1, .cooldownBatches = 100});
    breaker.beginBatch();
    breaker.recordFault("g");
    ASSERT_FALSE(breaker.admits("g"));
    breaker.reset("g");
    EXPECT_TRUE(breaker.admits("g"));
    EXPECT_EQ(breaker.state("g"), BreakerState::Closed);
}

// ---------------------------------------------------------------------
// Scheduler integration.

TEST(Resilience, SeededFaultSweepIsBitIdenticalAcrossWorkers)
{
    std::vector<QuerySpec> batch = faultBatch();

    SchedulerOptions base;
    base.faultPlan = fault::FaultPlan(0xfeedULL);
    base.faultPlan.site(fault::Site::TransformBuild, 0.3)
        .site(fault::Site::CacheInsert, 0.2)
        .site(fault::Site::Alloc, 0.1)
        .site(fault::Site::EngineIteration, 0.01);
    base.retry.maxRetries = 2;

    std::vector<QueryResult> reference;
    {
        TransformCache cache(std::size_t{64} << 20);
        SchedulerOptions options = base;
        options.workers = 1;
        QueryScheduler scheduler(sharedStore(), cache, options);
        reference = scheduler.runBatch(batch);
    }

    std::size_t faults = 0;
    for (const QueryResult &r : reference)
        faults += r.faultTrace.size();
    EXPECT_GT(faults, 0u) << "the plan must actually inject faults";

    for (unsigned workers : {2u, 8u}) {
        TransformCache cache(std::size_t{64} << 20);
        SchedulerOptions options = base;
        options.workers = workers;
        QueryScheduler scheduler(sharedStore(), cache, options);
        expectIdenticalOutcomes(
            scheduler.runBatch(batch), reference,
            "workers=" + std::to_string(workers));
    }
}

TEST(Resilience, TenPercentFaultBatchAlwaysTerminatesTyped)
{
    std::vector<QuerySpec> batch = faultBatch();

    // Fault-free reference digests.
    std::vector<QueryResult> clean;
    {
        TransformCache cache(std::size_t{64} << 20);
        SchedulerOptions options;
        options.workers = 4;
        QueryScheduler scheduler(sharedStore(), cache, options);
        clean = scheduler.runBatch(batch);
    }

    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 4;
    // Execution-path sites fire at ~10%; the warm-up sites get only a
    // handful of rolls (one per distinct cache key), so they need a
    // higher rate to participate at all.
    options.faultPlan = fault::FaultPlan(2026);
    options.faultPlan.site(fault::Site::TransformBuild, 0.4)
        .site(fault::Site::CacheInsert, 0.5)
        .site(fault::Site::Alloc, 0.1)
        .site(fault::Site::EngineIteration, 0.01);
    QueryScheduler scheduler(sharedStore(), cache, options);
    const auto results = scheduler.runBatch(batch);

    std::size_t completed = 0, errors = 0, degraded = 0, retried = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const QueryResult &r = results[i];
        SCOPED_TRACE("query " + std::to_string(i));
        // Terminal typed state, never a crash or an undecided query.
        ASSERT_TRUE(r.outcome == QueryOutcome::Completed ||
                    r.outcome == QueryOutcome::Error)
            << queryOutcomeName(r.outcome);
        if (r.outcome == QueryOutcome::Completed) {
            ++completed;
            // Faults never corrupt values: anything that completes is
            // bit-identical to the fault-free run.
            EXPECT_EQ(r.digest, clean[i].digest);
            EXPECT_EQ(r.values, clean[i].values);
        } else {
            ++errors;
            ASSERT_TRUE(r.error.has_value());
            EXPECT_FALSE(r.message.empty());
            EXPECT_EQ(r.digest, 0u);
        }
        degraded += r.degraded ? 1 : 0;
        retried += r.attempts > 1 ? 1 : 0;
    }
    EXPECT_GT(completed, 0u);
    EXPECT_GT(degraded, 0u) << "cache faults should degrade someone";
    EXPECT_GT(retried, 0u) << "alloc faults should retry someone";

    // Same seed, fresh scheduler: bit-identical replay.
    TransformCache cache2(std::size_t{64} << 20);
    QueryScheduler scheduler2(sharedStore(), cache2, options);
    expectIdenticalOutcomes(scheduler2.runBatch(batch), results,
                            "replay");
}

TEST(Resilience, TransientFaultIsOutlastedByRetry)
{
    QuerySpec spec;
    spec.graph = "ring";
    spec.algorithm = engine::Algorithm::Bfs;
    spec.source = 0;
    const std::vector<QuerySpec> batch{spec};

    std::uint64_t clean_digest = 0;
    {
        TransformCache cache(std::size_t{16} << 20);
        QueryScheduler scheduler(sharedStore(), cache, {});
        const auto clean = scheduler.runBatch(batch);
        ASSERT_EQ(clean[0].outcome, QueryOutcome::Completed);
        clean_digest = clean[0].digest;
    }

    TransformCache cache(std::size_t{16} << 20);
    SchedulerOptions options;
    options.faultPlan = fault::FaultPlan(11);
    // Fail every iteration hook of attempts 0 and 1; attempt 2 runs
    // clean — a transient fault the retry budget outlasts.
    options.faultPlan.site(fault::Site::EngineIteration, 1.0,
                           /*attempts_below=*/2);
    options.retry.maxRetries = 3;
    options.retry.backoffBaseSimMs = 1.0;
    options.retry.backoffFactor = 2.0;
    QueryScheduler scheduler(sharedStore(), cache, options);
    const auto results = scheduler.runBatch(batch);

    ASSERT_EQ(results[0].outcome, QueryOutcome::Completed)
        << results[0].message;
    EXPECT_EQ(results[0].attempts, 3u);
    // Backoff charged after attempts 0 and 1: 1.0 + 2.0 sim-ms.
    EXPECT_DOUBLE_EQ(results[0].backoffSimMs, 3.0);
    EXPECT_EQ(results[0].digest, clean_digest)
        << "a retried success must be value-identical";
    EXPECT_GE(results[0].faultTrace.size(), 2u);

    // With too small a budget the same plan is terminal.
    TransformCache cache2(std::size_t{16} << 20);
    options.retry.maxRetries = 1;
    QueryScheduler scheduler2(sharedStore(), cache2, options);
    const auto failed = scheduler2.runBatch(batch);
    EXPECT_EQ(failed[0].outcome, QueryOutcome::Error);
    ASSERT_TRUE(failed[0].error.has_value());
    EXPECT_EQ(failed[0].error->kind, ServiceErrorKind::Engine);
    EXPECT_EQ(failed[0].attempts, 2u);
}

TEST(Resilience, RetryBackoffIsChargedAgainstSimDeadline)
{
    QuerySpec spec;
    spec.graph = "ring";
    spec.algorithm = engine::Algorithm::Pr;
    spec.prIterations = 50;
    spec.deadlineSimMs = 2.5; // generous for the clean run
    const std::vector<QuerySpec> batch{spec};

    {
        TransformCache cache(std::size_t{16} << 20);
        QueryScheduler scheduler(sharedStore(), cache, {});
        const auto clean = scheduler.runBatch(batch);
        ASSERT_EQ(clean[0].outcome, QueryOutcome::Completed)
            << "deadline must be generous without faults: "
            << clean[0].message;
    }

    TransformCache cache(std::size_t{16} << 20);
    SchedulerOptions options;
    options.faultPlan = fault::FaultPlan(3);
    options.faultPlan.site(fault::Site::Alloc, 1.0,
                           /*attempts_below=*/1);
    options.retry.maxRetries = 2;
    options.retry.backoffBaseSimMs = 10.0; // exceeds the deadline
    QueryScheduler scheduler(sharedStore(), cache, options);
    const auto results = scheduler.runBatch(batch);
    // Attempt 0 faults; 10 sim-ms of backoff eats the whole 2.5 sim-ms
    // budget, so attempt 1 is cancelled at its first poll.
    ASSERT_EQ(results[0].outcome, QueryOutcome::DeadlineExceeded)
        << results[0].message;
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_DOUBLE_EQ(results[0].backoffSimMs, 10.0);
}

TEST(Resilience, CacheFaultsDegradeToValueIdenticalDynamicRuns)
{
    std::vector<QuerySpec> batch;
    for (NodeId s : {NodeId{0}, NodeId{5}, NodeId{9}}) {
        QuerySpec spec;
        spec.graph = "rmat";
        spec.algorithm = engine::Algorithm::Sssp;
        spec.strategy = engine::Strategy::TigrVPlus;
        spec.source = s;
        batch.push_back(spec);
    }

    std::vector<QueryResult> clean;
    {
        TransformCache cache(std::size_t{64} << 20);
        QueryScheduler scheduler(sharedStore(), cache, {});
        clean = scheduler.runBatch(batch);
    }

    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.faultPlan = fault::FaultPlan(77);
    options.faultPlan.site(fault::Site::CacheInsert, 1.0);
    QueryScheduler scheduler(sharedStore(), cache, options);
    const auto results = scheduler.runBatch(batch);

    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        ASSERT_EQ(results[i].outcome, QueryOutcome::Completed)
            << results[i].message;
        EXPECT_TRUE(results[i].degraded);
        EXPECT_TRUE(results[i].info.degraded);
        EXPECT_FALSE(results[i].cacheHit);
        EXPECT_EQ(results[i].digest, clean[i].digest)
            << "degraded values must be bit-identical";
        ASSERT_TRUE(results[i].error.has_value());
        EXPECT_EQ(results[i].error->kind,
                  ServiceErrorKind::CacheInsert);
    }
    EXPECT_EQ(cache.stats().entries, 0u)
        << "every insert was injected to fail";
}

TEST(Resilience, BudgetExhaustionDegradesWithoutAnyFaultPlan)
{
    QuerySpec spec;
    spec.graph = "rmat";
    spec.algorithm = engine::Algorithm::Bfs;
    spec.strategy = engine::Strategy::TigrVPlus;
    const std::vector<QuerySpec> batch{spec};

    std::vector<QueryResult> clean;
    {
        TransformCache cache(std::size_t{64} << 20);
        QueryScheduler scheduler(sharedStore(), cache, {});
        clean = scheduler.runBatch(batch);
        ASSERT_EQ(clean[0].outcome, QueryOutcome::Completed);
        ASSERT_FALSE(clean[0].degraded);
    }

    // A 1-byte budget can retain nothing: the schedule is built but
    // not cached, and the query degrades to the dynamic mapping.
    TransformCache cache(1);
    QueryScheduler scheduler(sharedStore(), cache, {});
    const auto results = scheduler.runBatch(batch);
    ASSERT_EQ(results[0].outcome, QueryOutcome::Completed)
        << results[0].message;
    EXPECT_TRUE(results[0].degraded);
    EXPECT_EQ(results[0].digest, clean[0].digest);

    // Opting out of the ladder keeps the uncached schedule instead.
    SchedulerOptions keep;
    keep.degradeOnCachePressure = false;
    TransformCache cache2(1);
    QueryScheduler scheduler2(sharedStore(), cache2, keep);
    const auto kept = scheduler2.runBatch(batch);
    ASSERT_EQ(kept[0].outcome, QueryOutcome::Completed);
    EXPECT_FALSE(kept[0].degraded);
    EXPECT_EQ(kept[0].digest, clean[0].digest);
}

TEST(Resilience, BreakerQuarantinesAndRecoversAcrossBatches)
{
    std::vector<QuerySpec> batch;
    for (int i = 0; i < 3; ++i) {
        QuerySpec spec;
        spec.graph = "ring";
        spec.algorithm = engine::Algorithm::Bfs;
        spec.source = static_cast<NodeId>(i);
        batch.push_back(spec);
    }

    TransformCache cache(std::size_t{16} << 20);
    SchedulerOptions options;
    options.faultPlan = fault::FaultPlan(123);
    // Alloc faults only in batch 0 (scope keys there are < 2^32).
    options.faultPlan.site(fault::Site::Alloc, 1.0,
                           std::numeric_limits<unsigned>::max(),
                           /*scopes_below=*/std::uint64_t{1} << 32);
    options.retry.maxRetries = 0;
    options.breaker.threshold = 3;
    options.breaker.cooldownBatches = 1;
    QueryScheduler scheduler(sharedStore(), cache, options);

    // Batch 0: three consecutive terminal faults trip the breaker.
    const auto first = scheduler.runBatch(batch);
    for (const QueryResult &r : first) {
        EXPECT_EQ(r.outcome, QueryOutcome::Error);
        ASSERT_TRUE(r.error.has_value());
        EXPECT_EQ(r.error->kind, ServiceErrorKind::Resource);
    }
    EXPECT_EQ(scheduler.breaker().state("ring"), BreakerState::Open);

    // Batch 1: quarantined at admission — no retries burned.
    const auto second = scheduler.runBatch(batch);
    for (const QueryResult &r : second) {
        EXPECT_EQ(r.outcome, QueryOutcome::Quarantined);
        EXPECT_EQ(r.attempts, 0u);
        ASSERT_TRUE(r.error.has_value());
        EXPECT_EQ(r.error->kind, ServiceErrorKind::Quarantined);
        EXPECT_NE(r.message.find("quarantined"), std::string::npos);
    }

    // Batch 2: cooldown elapsed, the probes run clean and close it.
    const auto third = scheduler.runBatch(batch);
    for (const QueryResult &r : third)
        EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
    EXPECT_EQ(scheduler.breaker().state("ring"), BreakerState::Closed);

    // A healthy graph in the same batches is never quarantined.
    QuerySpec healthy;
    healthy.graph = "rmat";
    healthy.algorithm = engine::Algorithm::Cc;
    EXPECT_TRUE(scheduler.breaker().admits("rmat"));
    const auto other =
        scheduler.runBatch(std::vector<QuerySpec>{healthy});
    EXPECT_EQ(other[0].outcome, QueryOutcome::Completed);
}

TEST(Resilience, ValidationRejectsWithTypedErrors)
{
    static GraphStore store; // local: needs a zero-node graph
    static const bool initialized = [] {
        store.add("ok", ringGraph());
        store.add("empty", graph::Csr::fromCoo(graph::CooEdges(0)));
        return true;
    }();
    (void)initialized;

    std::vector<QuerySpec> batch(4);
    batch[0].graph = "empty";
    batch[0].algorithm = engine::Algorithm::Cc;
    batch[1].graph = "ok";
    batch[1].strategy = engine::Strategy::MaximumWarp;
    batch[1].mwVirtualWarp = 0;
    batch[2].graph = "ok";
    batch[2].frontierRatio = 1.5;
    batch[3].graph = "ok";
    batch[3].frontierRatio =
        std::numeric_limits<double>::quiet_NaN();

    TransformCache cache(std::size_t{16} << 20);
    QueryScheduler scheduler(store, cache, {});
    const auto results = scheduler.runBatch(batch);
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        EXPECT_EQ(results[i].outcome, QueryOutcome::Rejected);
        ASSERT_TRUE(results[i].error.has_value());
        EXPECT_EQ(results[i].error->kind,
                  ServiceErrorKind::InvalidQuery);
        EXPECT_FALSE(results[i].message.empty());
    }
    EXPECT_NE(results[0].message.find("no nodes"), std::string::npos);
    EXPECT_NE(results[1].message.find("warp"), std::string::npos);
    EXPECT_NE(results[2].message.find("frontier ratio"),
              std::string::npos);
}

TEST(Resilience, FailFastStopsAScriptAtTheFirstTerminalFailure)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("tigr_resilience_" +
         std::to_string(
             ::testing::UnitTest::GetInstance()->random_seed()));
    fs::create_directories(dir);
    const fs::path graph_path = dir / "g.csr";
    graph::saveCsrBinaryFile(ringGraph(), graph_path);

    const std::string script = "load g " + graph_path.string() +
                               "\n"
                               "query g bfs source=0\n"
                               "run\n"
                               "query g cc\n"
                               "run\n";

    ScriptOptions options;
    options.maxRetries = 0;
    options.faultPlan = fault::FaultPlan(8);
    options.faultPlan.site(fault::Site::Alloc, 1.0);

    // Without fail-fast the script runs to the end, reporting every
    // batch's typed errors.
    {
        std::istringstream in(script);
        std::ostringstream out;
        EXPECT_EQ(runScript(in, out, options), 0);
        EXPECT_NE(out.str().find("outcome=error"), std::string::npos);
        EXPECT_NE(out.str().find("error=resource"), std::string::npos);
        EXPECT_NE(out.str().find("g CC outcome="), std::string::npos)
            << out.str();
    }

    // With fail-fast the second batch never runs and the exit code is
    // nonzero.
    options.failFast = true;
    {
        std::istringstream in(script);
        std::ostringstream out;
        EXPECT_EQ(runScript(in, out, options), 1);
        EXPECT_NE(out.str().find("fail-fast: stopping"),
                  std::string::npos);
        EXPECT_EQ(out.str().find("g CC outcome="), std::string::npos)
            << out.str();
    }

    fs::remove_all(dir);
}

} // namespace
} // namespace tigr::service
