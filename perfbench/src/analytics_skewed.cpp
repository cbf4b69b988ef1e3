/**
 * @file
 * analytics-skewed: the library pipeline the paper evaluates, with no
 * service layer. A symmetric RMAT power-law graph is loaded from its
 * snapshot, tigr-v+ K=10 schedules are built for both directions, and
 * each request is one GraphEngine analysis from a fixed cycle. Engine
 * and simulator changes show here.
 */
#include <array>
#include <map>
#include <memory>

#include "checks.hpp"
#include "engine/graph_engine.hpp"
#include "par/thread_pool.hpp"
#include "ref/oracles.hpp"
#include "service/snapshot.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace tigr::perfbench {
namespace {

using engine::Algorithm;
using engine::Direction;

/**
 * Engine host threads. One, as in the profile this workload mirrors: on
 * a shared 4-vCPU virtual machine, 2-thread engines' per-iteration
 * fork/join made run-to-run spread about 0.3 of the median, against
 * 0.1 to 0.15 for 1 thread, measured interleaved.
 */
constexpr unsigned kThreads = 1;
constexpr NodeId kDegreeBound = 10;
constexpr unsigned kPageRankRounds = 10;
/** Sources the cycle rotates through; one pass visits each once. */
constexpr std::size_t kSources = 8;
/** Unmeasured cycles before the timed phase (about 3 s). */
constexpr std::size_t kWarmupCycles = 4;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 7;

struct Request
{
    Algorithm algorithm;
    Direction direction;
    const char *span;
};

/** One cycle: the six analyses, push and pull (BC push only). */
constexpr std::array<Request, 11> kCycle = {{
    {Algorithm::Bfs, Direction::Push, "engine.bfs_push"},
    {Algorithm::Bfs, Direction::Pull, "engine.bfs_pull"},
    {Algorithm::Sssp, Direction::Push, "engine.sssp_push"},
    {Algorithm::Sssp, Direction::Pull, "engine.sssp_pull"},
    {Algorithm::Sswp, Direction::Push, "engine.sswp_push"},
    {Algorithm::Sswp, Direction::Pull, "engine.sswp_pull"},
    {Algorithm::Cc, Direction::Push, "engine.cc_push"},
    {Algorithm::Cc, Direction::Pull, "engine.cc_pull"},
    {Algorithm::Pr, Direction::Push, "engine.pr_push"},
    {Algorithm::Pr, Direction::Pull, "engine.pr_pull"},
    {Algorithm::Bc, Direction::Push, "engine.bc"},
}};

/** Everything set-up builds; the engines reference `snapshot.graph`. */
struct Pipeline
{
    service::Snapshot snapshot;
    std::shared_ptr<engine::SharedSchedule> forward;
    std::unique_ptr<engine::GraphEngine> push;
    std::unique_ptr<engine::GraphEngine> pull;
    double pullTransformMs = 0.0;
};

engine::EngineOptions
engineOptions(Direction direction)
{
    engine::EngineOptions options;
    options.strategy = engine::Strategy::TigrVPlus;
    options.degreeBound = kDegreeBound;
    options.direction = direction;
    options.threads = kThreads;
    return options;
}

/** Load the snapshot, build the forward schedule and both engines, and
 *  build the engines' lazy pull and unit-weight structures with
 *  analyses from a quiet node. */
std::unique_ptr<Pipeline>
setUp(RunContext &ctx, const std::filesystem::path &snapshot)
{
    auto p = std::make_unique<Pipeline>();
    Tracer &tracer = ctx.tracer;
    {
        SpanScope span(tracer, "service.snapshot.load");
        p->snapshot = service::loadSnapshotFile(snapshot);
    }
    const graph::Csr &g = p->snapshot.graph;
    {
        SpanScope span(tracer, "engine.schedule_build");
        const auto start = std::chrono::steady_clock::now();
        p->forward = std::make_shared<engine::SharedSchedule>();
        p->forward->schedule = engine::Schedule::build(
            g, engine::Strategy::TigrVPlus, kDegreeBound);
        p->forward->buildMs = msSince(start);
    }
    p->push = std::make_unique<engine::GraphEngine>(
        g, engineOptions(Direction::Push), p->forward);
    p->pull = std::make_unique<engine::GraphEngine>(
        g, engineOptions(Direction::Pull));
    const NodeId quiet = quietNode(g);
    SpanScope span(tracer, "engine.warm");
    p->push->bfs(quiet);
    p->pullTransformMs = p->pull->sssp(quiet).info.transformMs;
    p->pull->bfs(quiet);
    return p;
}

/** Oracle values of one (analysis, source); the analysis's field is
 *  set. */
struct OracleValues
{
    std::vector<Dist> distances;
    std::vector<Weight> widths;
    std::vector<NodeId> labels;
    std::vector<double> reals;
};

std::map<std::pair<Algorithm, NodeId>, OracleValues>
computeOracles(const graph::Csr &g, const std::vector<NodeId> &sources)
{
    std::map<std::pair<Algorithm, NodeId>, OracleValues> oracles;
    par::ThreadPool pool(2);
    for (NodeId s : sources) {
        oracles[{Algorithm::Bfs, s}].distances = ref::bfsHops(g, s, &pool);
        oracles[{Algorithm::Sssp, s}].distances =
            ref::shortestPaths(g, s, &pool);
        oracles[{Algorithm::Sswp, s}].widths = ref::widestPath(g, s);
        const NodeId one[] = {s};
        oracles[{Algorithm::Bc, s}].reals =
            ref::betweennessCentrality(g, one);
    }
    oracles[{Algorithm::Cc, 0}].labels = ref::connectedComponents(g);
    oracles[{Algorithm::Pr, 0}].reals =
        ref::pageRank(g, {.damping = 0.85, .iterations = kPageRankRounds},
                      &pool);
    return oracles;
}

/** Run one request; returns its RunInfo and whether the values match
 *  the oracle. The check runs after the timed call. */
engine::RunInfo
runRequest(Pipeline &p, const Request &r, NodeId source,
           const OracleValues &oracle, Tracer &tracer, double *ms,
           bool *ok)
{
    engine::GraphEngine &e =
        r.direction == Direction::Push ? *p.push : *p.pull;
    auto timed = [&](auto &&call) {
        tracer.beginRequest();
        const auto start = std::chrono::steady_clock::now();
        auto result = [&] {
            SpanScope span(tracer, r.span);
            return call();
        }();
        *ms = msSince(start);
        tracer.endRequest();
        return result;
    };
    switch (r.algorithm) {
    case Algorithm::Bfs: {
        auto res = timed([&] { return e.bfs(source); });
        *ok = res.values == oracle.distances;
        return res.info;
    }
    case Algorithm::Sssp: {
        auto res = timed([&] { return e.sssp(source); });
        *ok = res.values == oracle.distances;
        return res.info;
    }
    case Algorithm::Sswp: {
        auto res = timed([&] { return e.sswp(source); });
        *ok = res.values == oracle.widths;
        return res.info;
    }
    case Algorithm::Cc: {
        auto res = timed([&] { return e.cc(); });
        *ok = res.values == oracle.labels;
        return res.info;
    }
    case Algorithm::Pr: {
        engine::PageRankOptions pr;
        pr.iterations = kPageRankRounds;
        auto res = timed([&] { return e.pagerank(pr); });
        *ok = nearMatch(res.values, oracle.reals,
                        kRankTolerance, 0.0);
        return res.info;
    }
    case Algorithm::Bc: {
        const NodeId one[] = {source};
        auto res = timed([&] { return e.bc(one); });
        *ok = nearMatch(res.values, oracle.reals,
                        kCentralityTolerance, kCentralityTolerance);
        return res.info;
    }
    }
    *ok = false;
    return {};
}

} // namespace

void
runAnalyticsSkewed(RunContext &ctx)
{
    // Inputs and oracles, untimed.
    const std::filesystem::path snapshot =
        writeAnalyticsInputs(ctx.cfg.workDir, ctx.cfg.sizes, ctx.cfg.seed);
    std::vector<NodeId> sources;
    std::map<std::pair<Algorithm, NodeId>, OracleValues> oracles;
    {
        const graph::Csr g = service::loadSnapshotFile(snapshot).graph;
        sources = pickSources(g, kSources, subSeed(ctx.cfg.seed, 10));
        oracles = computeOracles(g, sources);
    }
    resetPeakRss();

    std::vector<double> setups;
    std::vector<double> pull_transform;
    std::unique_ptr<Pipeline> p;
    for (int i = 0; i < kSetups; ++i) {
        p.reset();
        const auto start = std::chrono::steady_clock::now();
        p = setUp(ctx, snapshot);
        setups.push_back(msSince(start) / 1e3);
        pull_transform.push_back(p->pullTransformMs);
    }

    // One pass = every source once through the cycle.
    std::vector<double> latencies;
    PassCounters pass;
    const TimedPhase phase = runTimed(
        ctx, sources.size(), kWarmupCycles, [&] { return latencies.size(); },
        [&](const Unit &cycle) {
            UnitResult unit;
            const NodeId source = sources[cycle.index % sources.size()];
            for (const Request &r : kCycle) {
                const bool sourced = r.algorithm != Algorithm::Cc &&
                                     r.algorithm != Algorithm::Pr;
                const OracleValues &oracle =
                    oracles.at({r.algorithm, sourced ? source : 0});
                double ms = 0.0;
                bool ok = false;
                const engine::RunInfo info = runRequest(
                    *p, r, source, oracle, ctx.tracer, &ms, &ok);
                ctx.count(ok, std::string(r.span) + " from " +
                                  std::to_string(source) +
                                  " disagrees with its oracle");
                if (cycle.measured)
                    latencies.push_back(ms);
                unit.ms += ms;
                ++unit.queries;
                if (cycle.firstPass)
                    pass.add(info);
            }
            return unit;
        });
    reportPhase(ctx, phase);

    Report &out = ctx.report;
    if (!ctx.cfg.trace) {
        reportEndToEnd(ctx, setups, latencies, pass);
        return;
    }

    const double load_ms = medianSpanMs(ctx.tracer, "service.snapshot.load");
    out.set("service.snapshot.load_ms", load_ms);
    out.set("service.snapshot.mb_per_s",
            static_cast<double>(std::filesystem::file_size(snapshot)) /
                (1 << 20) / (load_ms / 1e3));
    out.set("engine.schedule_build_ms",
            medianSpanMs(ctx.tracer, "engine.schedule_build"));
    out.set("engine.pull_transform_ms", median(pull_transform));
    out.set("engine.schedule_units",
            static_cast<double>(p->forward->schedule.numUnits()));
    for (const Request &r : kCycle) {
        out.set(std::string(r.span) + "_ms",
                medianSpanMs(ctx.tracer, r.span));
    }
    const graph::Csr &g = p->snapshot.graph;
    for (int rep = 0; rep < 3; ++rep) {
        SpanScope span(ctx.tracer, "graph.reverse");
        const graph::Csr reversed = g.reversed();
    }
    out.set("graph.reverse_ms", medianSpanMs(ctx.tracer, "graph.reverse"));

    reportPassCounters(ctx, pass);

    const double sweep_ms = reportSweep(ctx, {&p->forward->schedule});
    out.set("sim.pr_share",
            kPageRankRounds * sweep_ms /
                medianSpanMs(ctx.tracer, "engine.pr_push"));
}

} // namespace tigr::perfbench
