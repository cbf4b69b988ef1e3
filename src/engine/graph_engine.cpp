#include "engine/graph_engine.hpp"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <stdexcept>

#include "algorithms/semirings.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/arena_provider.hpp"
#include "engine/dynamic_provider.hpp"
#include "par/parallel_for.hpp"
#include "graph/datasets.hpp"
#include "transform/udt.hpp"

namespace tigr::engine {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

bool
allUnitWeights(const graph::Csr &graph)
{
    for (Weight w : graph.weights())
        if (w != 1)
            return false;
    return true;
}

bool
isVirtualStrategy(Strategy strategy)
{
    return strategy == Strategy::TigrV ||
           strategy == Strategy::TigrVPlus;
}

transform::EdgeLayout
layoutOf(Strategy strategy)
{
    return strategy == Strategy::TigrVPlus
               ? transform::EdgeLayout::Coalesced
               : transform::EdgeLayout::Consecutive;
}

} // namespace

/** Per-analysis machinery. Dense: the (possibly transformed or
 *  reversed) graph a schedule indexes plus the schedule itself, built
 *  lazily and cached. Arena: the side the units split and the
 *  maintained virtualizer serving it, if any. */
struct GraphEngine::Context
{
    /** Owned graph storage when the context cannot reference the
     *  engine's input directly (unit-weight copy, reversed graph). */
    std::optional<graph::Csr> ownedGraph;
    /** UDT transformation output (TigrUdt strategy only). */
    std::optional<transform::PhysicalTransformResult> udt;
    /** The graph whose edges the schedule indexes (dense engines). */
    const graph::Csr *scheduled = nullptr;
    /** Locally built work-unit decomposition (empty under dynamic
     *  mapping, which recomputes units instead of storing them, when
     *  a shared schedule is in use, and on arena engines). */
    Schedule ownedSchedule;
    /** The decomposition analyses run over: &ownedSchedule, or an
     *  externally cached SharedSchedule's. */
    const Schedule *schedule = &ownedSchedule;
    /** Arena side the units split (arena engines). */
    dynamic::GraphSide side = dynamic::GraphSide::Out;
    /** Maintained virtualizer serving the side, or null to enumerate
     *  its families on the fly (arena engines). */
    const dynamic::IncrementalVirtualizer *virt = nullptr;
    /** Read every edge weight as 1 (arena BFS; the dense engine
     *  schedules over a unit-weight copy instead). */
    bool unitWeights = false;
    /** Units of an all-active launch — the virtual-array size traces
     *  and footprints report; 0 under dynamic mapping, which stores
     *  no array. */
    std::uint64_t numUnits = 0;
    /** Host time spent building this context (a shared schedule
     *  reports its original build cost; arena contexts build
     *  nothing). */
    double buildMs = 0.0;
    /** Set once a later analysis reuses this context (the
     *  RunInfo::transformCached satellite fix), and on arena contexts
     *  served by a maintained virtualizer. */
    bool reusedFromCache = false;
};

GraphEngine::GraphEngine(const graph::Csr &graph, EngineOptions options,
                         std::shared_ptr<const SharedSchedule> shared)
    : dense_(&graph), options_(std::move(options)),
      shared_(std::move(shared)), sim_(options_.gpu)
{
    const unsigned threads = par::resolveThreads(options_.threads);
    if (threads > 1)
        pool_ = std::make_unique<par::ThreadPool>(threads);
    if (options_.dynamicMapping &&
        !isVirtualStrategy(options_.strategy)) {
        throw std::invalid_argument(
            "tigr: dynamic mapping reasoning only applies to the "
            "virtual strategies (tigr-v / tigr-v+)");
    }
    if (options_.direction == Direction::Pull &&
        options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: pull propagation is unsupported under the physical "
            "UDT strategy (splitting would have to key on indegrees); "
            "use a virtual strategy");
    }
}

GraphEngine::GraphEngine(const dynamic::DynamicGraph &graph,
                         const dynamic::IncrementalVirtualizer *forward,
                         const dynamic::IncrementalVirtualizer *reverse,
                         EngineOptions options)
    : arena_(&graph), forwardVirt_(forward), reverseVirt_(reverse),
      options_(std::move(options)), sim_(options_.gpu)
{
    if (!isVirtualStrategy(options_.strategy)) {
        throw std::invalid_argument(
            "tigr: arena-served analyses require a virtual strategy "
            "(tigr-v / tigr-v+); every other strategy needs a dense "
            "materialization");
    }
    const unsigned threads = par::resolveThreads(options_.threads);
    if (threads > 1)
        pool_ = std::make_unique<par::ThreadPool>(threads);
}

GraphEngine::~GraphEngine() = default;

NodeId
GraphEngine::numNodes() const
{
    return dense_ ? dense_->numNodes() : arena_->numNodes();
}

GraphEngine::Context &
GraphEngine::context(ContextKind kind)
{
    if (arena_)
        return arenaContext(kind);

    auto it = contexts_.find(kind);
    if (it != contexts_.end()) {
        it->second->reusedFromCache = true;
        return *it->second;
    }

    auto start = std::chrono::steady_clock::now();
    auto ctx = std::make_unique<Context>();
    const graph::Csr &graph = *dense_;

    // Pick the base graph for this analysis family.
    const graph::Csr *base = &graph;
    switch (kind) {
      case ContextKind::WeightedZero:
      case ContextKind::WeightedInf:
        break;
      case ContextKind::UnitZero:
      case ContextKind::PullReversedUnit:
        if (!allUnitWeights(graph)) {
            graph::CooEdges coo = graph.toCoo();
            for (graph::Edge &e : coo.edges())
                e.weight = 1;
            ctx->ownedGraph = graph::Csr::fromCoo(coo);
            base = &*ctx->ownedGraph;
        }
        break;
      case ContextKind::PullReversed:
        break;
      case ContextKind::SortedRows: {
        // Row-sorted copy: each node's neighbor list ascending, for
        // two-pointer set intersections.
        graph::CooEdges coo(graph.numNodes());
        coo.reserve(graph.numEdges());
        std::vector<std::pair<NodeId, Weight>> row;
        for (NodeId v = 0; v < graph.numNodes(); ++v) {
            row.clear();
            for (EdgeIndex e = graph.edgeBegin(v); e < graph.edgeEnd(v);
                 ++e)
                row.emplace_back(graph.edgeTarget(e),
                                 graph.edgeWeight(e));
            std::sort(row.begin(), row.end());
            for (auto [target, weight] : row)
                coo.add(v, target, weight);
        }
        ctx->ownedGraph = graph::Csr::fromCoo(coo);
        base = &*ctx->ownedGraph;
        break;
      }
    }

    // Pull contexts schedule over the reversed graph (PageRank reads
    // the original outdegrees off the forward graph, Corollary 4).
    if (kind == ContextKind::PullReversed ||
        kind == ContextKind::PullReversedUnit) {
        ctx->ownedGraph = base->reversed();
        base = &*ctx->ownedGraph;
    }

    // Physically transform for TigrUdt (push contexts only; pull and
    // PR/BC refuse the strategy up front).
    ctx->scheduled = base;
    if (options_.strategy == Strategy::TigrUdt &&
        kind != ContextKind::PullReversed &&
        kind != ContextKind::PullReversedUnit &&
        kind != ContextKind::SortedRows) {
        transform::SplitOptions split;
        split.degreeBound =
            options_.udtBound != 0
                ? options_.udtBound
                : graph::chooseUdtK(base->maxOutDegree());
        split.weightPolicy = kind == ContextKind::WeightedInf
                                 ? transform::DumbWeightPolicy::Infinity
                                 : transform::DumbWeightPolicy::Zero;
        split.pool = pool_.get();
        ctx->udt = transform::UdtTransform{}.apply(*base, split);
        ctx->scheduled = &ctx->udt->graph;
    }

    // Under dynamic mapping the whole point is to store no unit array;
    // the provider recomputes families per use.
    if (!options_.dynamicMapping) {
        if (shared_ && sharedApplies(*ctx)) {
            ctx->schedule = &shared_->schedule;
            ctx->buildMs = shared_->buildMs;
            // The decomposition was built by an earlier engine: every
            // analysis over this context reuses cached structures.
            ctx->reusedFromCache = true;
        } else {
            ctx->ownedSchedule =
                Schedule::build(*ctx->scheduled, options_.strategy,
                                options_.degreeBound,
                                options_.mwVirtualWarp, pool_.get());
            ctx->buildMs = elapsedMs(start);
        }
    } else {
        ctx->buildMs = elapsedMs(start);
    }
    ctx->numUnits = ctx->schedule->numUnits();

    Context &ref = *ctx;
    contexts_.emplace(kind, std::move(ctx));
    return ref;
}

GraphEngine::Context &
GraphEngine::arenaContext(ContextKind kind)
{
    // Re-derived on every call: the arena and its virtualizers may
    // have moved on since an earlier analysis of this engine.
    auto ctx = std::make_unique<Context>();
    const bool pull = kind == ContextKind::PullReversed ||
                      kind == ContextKind::PullReversedUnit;
    ctx->side = pull ? dynamic::GraphSide::In : dynamic::GraphSide::Out;
    ctx->unitWeights = kind == ContextKind::UnitZero ||
                       kind == ContextKind::PullReversedUnit;
    const dynamic::IncrementalVirtualizer *virt =
        pull ? reverseVirt_ : forwardVirt_;
    if (virt != nullptr && !options_.dynamicMapping &&
        virt->addressing() == dynamic::StartAddressing::Arena &&
        virt->side() == ctx->side &&
        virt->degreeBound() == options_.degreeBound &&
        virt->layout() == layoutOf(options_.strategy)) {
        ctx->virt = virt;
        ctx->numUnits = virt->numEntries();
    } else if (!options_.dynamicMapping) {
        const DynamicVirtualProvider provider(
            *arena_, ctx->side, options_.degreeBound,
            layoutOf(options_.strategy));
        for (NodeId v = 0; v < arena_->numNodes(); ++v)
            ctx->numUnits += provider.unitCountOf(v);
    }
    // No dense transform ever runs on this path: the "transform" is
    // the maintained virtual array, repaired when the graph mutated —
    // report it as cached reuse, with no build time to charge.
    ctx->reusedFromCache = ctx->virt != nullptr;

    std::unique_ptr<Context> &slot = contexts_[kind];
    slot = std::move(ctx);
    return *slot;
}

bool
GraphEngine::sharedApplies(const Context &ctx) const
{
    const Schedule &s = shared_->schedule;
    return ctx.scheduled == dense_ && &s.graph() == dense_ &&
           s.strategy() == options_.strategy &&
           s.degreeBound() == options_.degreeBound &&
           s.mwVirtualWarp() == options_.mwVirtualWarp;
}

template <typename Fn>
decltype(auto)
GraphEngine::withProvider(const Context &ctx, Fn &&fn)
{
    const transform::EdgeLayout layout = layoutOf(options_.strategy);
    if (arena_) {
        if (ctx.virt)
            return fn(ArenaVirtualProvider(*arena_, *ctx.virt), *arena_);
        return fn(DynamicVirtualProvider(*arena_, ctx.side,
                                         options_.degreeBound, layout),
                  *arena_);
    }
    if (options_.dynamicMapping)
        return fn(DynamicVirtualProvider(*ctx.scheduled,
                                         options_.degreeBound, layout),
                  *dense_);
    return fn(*ctx.schedule, *dense_);
}

PushOptions
GraphEngine::pushOptions() const
{
    PushOptions push;
    push.worklist = options_.worklist;
    push.syncRelaxation = options_.syncRelaxation;
    push.maxIterations = options_.maxIterations;
    push.pool = pool_.get();
    push.cancel = options_.cancel;
    push.frontier = options_.frontier;
    push.frontierRatio = options_.frontierRatio;
    push.pullWorklist = options_.pullWorklist;
    push.trace = options_.trace;
    push.traceTickBase = tracedCycles_;
    return push;
}

void
GraphEngine::traceRunBegin(Algorithm algorithm, const Context &ctx)
{
    if (!options_.trace)
        return;
    obs::TraceEvent begin;
    begin.tick = tracedCycles_;
    begin.kind = obs::EventKind::RunBegin;
    begin.label[0] = algorithmName(algorithm);
    begin.label[1] = strategyName(options_.strategy);
    begin.label[2] =
        options_.direction == Direction::Pull ? "pull" : "push";
    begin.label[3] = frontierModeName(options_.frontier);
    begin.arg[0] = numNodes();
    begin.arg[1] = options_.worklist ? 1 : 0;
    begin.arg[2] = options_.dynamicMapping ? 1 : 0;
    options_.trace->record(begin);

    obs::TraceEvent transform;
    transform.tick = tracedCycles_;
    transform.kind = obs::EventKind::Transform;
    transform.arg[0] = ctx.reusedFromCache ? 1 : 0;
    transform.arg[1] = ctx.numUnits;
    options_.trace->record(transform);
}

void
GraphEngine::traceRunEnd(const RunInfo &info)
{
    if (!options_.trace)
        return;
    obs::TraceEvent end;
    end.tick = tracedCycles_ + info.stats.cycles;
    end.kind = obs::EventKind::RunEnd;
    end.arg[0] = info.iterations;
    end.arg[1] = info.converged ? 1 : 0;
    end.arg[2] = info.cancelled ? 1 : 0;
    end.arg[3] = info.peakFrontier;
    end.arg[4] = info.sparseIterations;
    end.arg[5] = info.stats.cycles;
    options_.trace->record(end);
    tracedCycles_ += info.stats.cycles;
}

template <typename Semiring>
PushOutcome<Semiring>
GraphEngine::runSemiring(
    const Context &ctx,
    std::span<const std::pair<NodeId, typename Semiring::Value>> seeds,
    bool all_active)
{
    const bool pull = options_.direction == Direction::Pull;
    // The pull destination filter walks forward out-neighbors of a
    // changed node: the forward topology has them for every pull
    // context (the unit-weight copy only rewrites weights, and pull
    // refuses UDT up front).
    return withProvider(ctx, [&](const auto &provider,
                                 const auto &forward) {
        auto run = [&](const auto &units) {
            return pull ? runPull<Semiring>(units, sim_, pushOptions(),
                                            seeds, &forward)
                        : runPush<Semiring>(units, sim_, pushOptions(),
                                            seeds, all_active);
        };
        if (ctx.unitWeights)
            return run(UnitWeightProvider(provider));
        return run(provider);
    });
}

template <typename Semiring, typename Result>
Result
GraphEngine::runValues(
    Algorithm algorithm, ContextKind kind,
    std::span<const std::pair<NodeId, typename Semiring::Value>> seeds,
    bool all_active)
{
    const auto host_start = std::chrono::steady_clock::now();
    Context &ctx = context(kind);
    traceRunBegin(algorithm, ctx);
    auto outcome = runSemiring<Semiring>(ctx, seeds, all_active);

    Result result;
    outcome.values.resize(numNodes()); // drop split-node slots
    result.values = std::move(outcome.values);
    result.info.iterations = outcome.iterations;
    result.info.converged = outcome.converged;
    result.info.cancelled = outcome.cancelled;
    result.info.stats = outcome.stats;
    result.info.peakFrontier = outcome.peakFrontier;
    result.info.sparseIterations = outcome.sparseIterations;
    fillRunInfo(result.info, ctx, algorithm);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

std::size_t
GraphEngine::footprint(const Context &ctx, Algorithm algorithm) const
{
    // Dynamic mapping stores no virtual node array (numUnits is 0):
    // that memory simply never exists on the device.
    if (arena_)
        return modeledFootprintBytes(options_.strategy, algorithm,
                                     arena_->numNodes(),
                                     arena_->numEdges(), ctx.numUnits);
    return modeledFootprintBytes(options_.strategy, algorithm,
                                 *ctx.scheduled, ctx.numUnits);
}

void
GraphEngine::fillRunInfo(RunInfo &info, const Context &ctx,
                         Algorithm algorithm) const
{
    info.transformMs = ctx.buildMs;
    info.transformCached = ctx.reusedFromCache;
    info.degraded = options_.degraded;
    info.footprintBytes = footprint(ctx, algorithm);
}

DistancesResult
GraphEngine::sssp(NodeId source)
{
    const std::pair<NodeId, Dist> seeds[] = {{source, 0}};
    return runValues<algorithms::SsspSemiring, DistancesResult>(
        Algorithm::Sssp,
        options_.direction == Direction::Pull ? ContextKind::PullReversed
                                              : ContextKind::WeightedZero,
        seeds, false);
}

DistancesResult
GraphEngine::bfs(NodeId source)
{
    const std::pair<NodeId, Dist> seeds[] = {{source, 0}};
    return runValues<algorithms::SsspSemiring, DistancesResult>(
        Algorithm::Bfs,
        options_.direction == Direction::Pull
            ? ContextKind::PullReversedUnit
            : ContextKind::UnitZero,
        seeds, false);
}

WidthsResult
GraphEngine::sswp(NodeId source)
{
    const std::pair<NodeId, Weight> seeds[] = {{source, kInfWeight}};
    return runValues<algorithms::SswpSemiring, WidthsResult>(
        Algorithm::Sswp,
        options_.direction == Direction::Pull ? ContextKind::PullReversed
                                              : ContextKind::WeightedInf,
        seeds, false);
}

LabelsResult
GraphEngine::cc()
{
    std::vector<std::pair<NodeId, NodeId>> seeds;
    seeds.reserve(numNodes());
    for (NodeId v = 0; v < numNodes(); ++v)
        seeds.emplace_back(v, v);
    return runValues<algorithms::CcSemiring, LabelsResult>(
        Algorithm::Cc,
        options_.direction == Direction::Pull ? ContextKind::PullReversed
                                              : ContextKind::WeightedZero,
        seeds, true);
}

RanksResult
GraphEngine::pagerank(const PageRankOptions &pr_options)
{
    if (options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: PageRank is unsupported under the physical UDT "
            "strategy (it changes outdegrees; see Corollary 4)");
    }
    // CuSha's shard engine is inherently pull-based (Section 6.2 of
    // the paper explains its PR advantage with exactly this); the
    // other engines, like the paper's Tigr implementation, push.
    const bool pull = pr_options.pull ||
                      options_.strategy == Strategy::Cusha ||
                      options_.direction == Direction::Pull;
    const auto host_start = std::chrono::steady_clock::now();
    Context &ctx = context(pull ? ContextKind::PullReversed
                                : ContextKind::WeightedZero);
    const NodeId n = numNodes();

    RanksResult result;
    result.values.assign(n, n == 0 ? 0.0 : 1.0 / n);
    if (n == 0)
        return result;
    traceRunBegin(Algorithm::Pr, ctx);

    std::vector<Rank> next(n);
    const Rank base = (1.0 - pr_options.damping) / n;
    const CostModel cost = costModelFor(options_.strategy);
    // All-active push PR needs no frontier machinery, so even
    // Gunrock's advance does one scattered atomicAdd per edge. CuSha
    // reads source values from sequential shard entries and writes
    // windows sequentially: no scattered traffic at all. Other pull
    // engines still gather ranks from scattered slots.
    const std::uint32_t scatter =
        pull && options_.strategy == Strategy::Cusha ? 0 : 1;

    withProvider(ctx, [&](const auto &provider, const auto &forward) {
        std::vector<WorkUnit> units;
        provider.forEachUnit(
            [&](const WorkUnit &unit) { units.push_back(unit); });

        // Per-chunk add logs: push records every (target, share)
        // contribution; pull accumulates each unit's sum locally in
        // edge order and logs one addition into the unit's own slot.
        // The serial chunk-order replay below then performs the exact
        // same float additions in the exact same order as a sequential
        // unit-order sweep — ranks are bit-identical at any thread
        // count and on either topology.
        std::vector<std::vector<std::pair<NodeId, Rank>>> chunk_adds(
            par::chunkCount(units.size(), par::kDefaultGrain));

        for (unsigned iter = 0; iter < pr_options.iterations; ++iter) {
            if (options_.cancel &&
                options_.cancel(result.info.iterations,
                                result.info.stats.cycles)) {
                result.info.cancelled = true;
                result.info.converged = false;
                break;
            }
            const sim::KernelStats trace_before = result.info.stats;
            std::fill(next.begin(), next.end(), base);
            par::forEachChunk(
                pool_.get(), units.size(), par::kDefaultGrain,
                [&](std::uint64_t chunk, std::uint64_t begin,
                    std::uint64_t end, unsigned) {
                    auto &adds = chunk_adds[chunk];
                    adds.clear();
                    for (std::uint64_t tid = begin; tid < end; ++tid) {
                        const WorkUnit &unit = units[tid];
                        if (pull) {
                            Rank sum = 0.0;
                            for (std::uint32_t j = 0; j < unit.count;
                                 ++j) {
                                const EdgeIndex e = unit.start +
                                    static_cast<EdgeIndex>(unit.stride) *
                                        j;
                                const NodeId u = provider.edgeTarget(e);
                                sum += result.values[u] /
                                       static_cast<Rank>(
                                           forward.degree(u));
                            }
                            adds.emplace_back(unit.valueNode,
                                              pr_options.damping * sum);
                            continue;
                        }
                        const EdgeIndex d =
                            forward.degree(unit.valueNode);
                        const Rank share =
                            d == 0 ? 0.0
                                   : pr_options.damping *
                                         result.values[unit.valueNode] /
                                         static_cast<Rank>(d);
                        for (std::uint32_t j = 0; j < unit.count; ++j) {
                            const EdgeIndex e = unit.start +
                                static_cast<EdgeIndex>(unit.stride) * j;
                            adds.emplace_back(provider.edgeTarget(e),
                                              share);
                        }
                    }
                });
            for (const auto &adds : chunk_adds)
                for (const auto &[target, add] : adds)
                    next[target] += add;
            result.info.stats += sim_.launch(
                units.size(),
                [&](std::uint64_t tid) {
                    sim::ThreadWork work =
                        detail::describeUnit(units[tid], cost);
                    work.scatterAccessesPerEdge = scatter;
                    return work;
                },
                pool_.get());
            result.values.swap(next);
            ++result.info.iterations;
            if (options_.trace)
                detail::traceIteration(pushOptions(),
                                       result.info.iterations, n, false,
                                       units.size(), trace_before,
                                       result.info.stats);
            // Optional early convergence: `next` now holds the previous
            // ranks, so the round's L1 change is directly computable.
            if (pr_options.epsilon > 0.0) {
                double change = 0.0;
                for (NodeId v = 0; v < n; ++v)
                    change += std::abs(result.values[v] - next[v]);
                if (change < pr_options.epsilon)
                    break;
            }
        }
    });
    fillRunInfo(result.info, ctx, Algorithm::Pr);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

CentralityResult
GraphEngine::bc(std::span<const NodeId> sources)
{
    const auto host_start = std::chrono::steady_clock::now();
    if (options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: BC is unsupported under the physical UDT strategy "
            "(hop-count Brandes does not survive node splitting)");
    }
    Context &ctx = context(ContextKind::WeightedZero);
    const NodeId n = numNodes();
    const CostModel cost = costModelFor(options_.strategy);
    traceRunBegin(Algorithm::Bc, ctx);

    CentralityResult result;
    result.values.assign(n, 0.0);

    std::vector<Dist> depth(n);
    std::vector<double> sigma(n);
    std::vector<double> delta(n);

    withProvider(ctx, [&](const auto &provider, const auto &) {
        // Launch the units of a node set, running `body` per owned
        // edge.
        auto launch_nodes = [&](std::span<const NodeId> nodes,
                                auto body) {
            std::vector<WorkUnit> launch_units;
            for (NodeId v : nodes)
                provider.forEachUnitOf(v, [&](const WorkUnit &unit) {
                    launch_units.push_back(unit);
                });
            result.info.stats += sim_.launch(
                launch_units.size(), [&](std::uint64_t tid) {
                    const WorkUnit &unit = launch_units[tid];
                    for (std::uint32_t j = 0; j < unit.count; ++j) {
                        const EdgeIndex e = unit.start +
                            static_cast<EdgeIndex>(unit.stride) * j;
                        body(unit.valueNode, provider.edgeTarget(e));
                    }
                    return detail::describeUnit(unit, cost);
                });
            ++result.info.iterations;
        };

        for (NodeId source : sources) {
            // Cancellation boundary: completed sources stay
            // accumulated, the remaining ones are skipped (the source
            // list order is fixed, so which sources completed is
            // deterministic).
            if (options_.cancel &&
                options_.cancel(result.info.iterations,
                                result.info.stats.cycles)) {
                result.info.cancelled = true;
                result.info.converged = false;
                break;
            }
            std::fill(depth.begin(), depth.end(), kInfDist);
            std::fill(sigma.begin(), sigma.end(), 0.0);
            std::fill(delta.begin(), delta.end(), 0.0);
            depth[source] = 0;
            sigma[source] = 1.0;

            // Forward: level-synchronous BFS accumulating path counts.
            std::vector<std::vector<NodeId>> levels{{source}};
            while (!levels.back().empty()) {
                const Dist level = levels.size() - 1;
                std::vector<NodeId> next_level;
                launch_nodes(levels.back(), [&](NodeId v, NodeId dst) {
                    if (depth[dst] == kInfDist) {
                        depth[dst] = level + 1;
                        next_level.push_back(dst);
                    }
                    if (depth[dst] == level + 1)
                        sigma[dst] += sigma[v];
                });
                levels.push_back(std::move(next_level));
            }

            // Backward: dependency accumulation, deepest level first.
            for (std::size_t l = levels.size(); l-- > 1;) {
                const std::vector<NodeId> &level_nodes = levels[l - 1];
                if (level_nodes.empty())
                    continue;
                const Dist level = l - 1;
                launch_nodes(level_nodes, [&](NodeId v, NodeId dst) {
                    if (depth[dst] == level + 1 && sigma[dst] > 0.0) {
                        delta[v] += sigma[v] / sigma[dst] *
                                    (1.0 + delta[dst]);
                    }
                });
            }

            for (NodeId v = 0; v < n; ++v)
                if (v != source)
                    result.values[v] += delta[v];
        }
    });
    fillRunInfo(result.info, ctx, Algorithm::Bc);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

TrianglesResult
GraphEngine::triangles()
{
    const auto host_start = std::chrono::steady_clock::now();
    if (arena_) {
        throw std::invalid_argument(
            "tigr: triangle counting intersects row-sorted neighbor "
            "lists, which only a dense graph has; run it on an engine "
            "over toCsr()");
    }
    if (options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: triangle counting is a neighborhood analysis and "
            "does not survive physical split transformations (see the "
            "paper's applicability discussion); use a virtual "
            "strategy, whose physical graph is untouched");
    }
    Context &ctx = context(ContextKind::SortedRows);
    traceRunBegin(Algorithm::Cc, ctx);
    const graph::Csr &g = *ctx.scheduled;
    const NodeId n = numNodes();
    const CostModel cost = costModelFor(options_.strategy);

    TrianglesResult result;
    result.perNode.assign(n, 0);

    std::vector<WorkUnit> units;
    withProvider(ctx, [&](const auto &provider, const auto &) {
        provider.forEachUnit(
            [&](const WorkUnit &unit) { units.push_back(unit); });
    });

    // Chunked counting pass: per-chunk triangle totals and per-node
    // increment logs merge serially in chunk order (integer counters,
    // so any order yields the serial result), and each unit's
    // intersection step count lands in its private slot to keep the
    // subsequent simulator launch pure.
    const std::uint64_t num_chunks =
        par::chunkCount(units.size(), par::kDefaultGrain);
    std::vector<std::uint64_t> chunk_totals(num_chunks, 0);
    std::vector<std::vector<NodeId>> chunk_incs(num_chunks);
    std::vector<std::uint32_t> unit_steps(units.size(), 0);
    par::forEachChunk(
        pool_.get(), units.size(), par::kDefaultGrain,
        [&](std::uint64_t chunk, std::uint64_t begin, std::uint64_t end,
            unsigned) {
            for (std::uint64_t tid = begin; tid < end; ++tid) {
                const WorkUnit &unit = units[tid];
                const NodeId u = unit.valueNode;
                std::uint32_t intersect_steps = 0;
                for (std::uint32_t j = 0; j < unit.count; ++j) {
                    const EdgeIndex e = unit.start +
                        static_cast<EdgeIndex>(unit.stride) * j;
                    const NodeId v = g.edgeTarget(e);
                    if (v <= u)
                        continue;
                    // Two-pointer intersection of u's and v's sorted
                    // rows, restricted to w > v so each triangle counts
                    // once at its smallest vertex ordering.
                    auto row_u = g.outNeighbors(u);
                    auto row_v = g.outNeighbors(v);
                    auto iu = std::lower_bound(row_u.begin(),
                                               row_u.end(), v + 1);
                    auto iv = std::lower_bound(row_v.begin(),
                                               row_v.end(), v + 1);
                    while (iu != row_u.end() && iv != row_v.end()) {
                        ++intersect_steps;
                        if (*iu < *iv) {
                            ++iu;
                        } else if (*iv < *iu) {
                            ++iv;
                        } else {
                            ++chunk_totals[chunk];
                            auto &incs = chunk_incs[chunk];
                            incs.push_back(u);
                            incs.push_back(v);
                            incs.push_back(*iu);
                            ++iu;
                            ++iv;
                        }
                    }
                }
                unit_steps[tid] = intersect_steps;
            }
        });
    for (std::uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
        result.total += chunk_totals[chunk];
        for (NodeId v : chunk_incs[chunk])
            ++result.perNode[v];
    }

    result.info.stats += sim_.launch(
        units.size(),
        [&](std::uint64_t tid) {
            sim::ThreadWork work = detail::describeUnit(units[tid], cost);
            work.instructions += 2 * unit_steps[tid];
            return work;
        },
        pool_.get());
    result.info.iterations = 1;
    fillRunInfo(result.info, ctx, Algorithm::Cc);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

std::size_t
GraphEngine::footprintBytes(Algorithm algorithm)
{
    return footprint(context(algorithm == Algorithm::Pr
                                 ? ContextKind::PullReversed
                                 : ContextKind::WeightedZero),
                     algorithm);
}

} // namespace tigr::engine
