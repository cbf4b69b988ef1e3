/**
 * @file
 * GraphEngine: the public entry point of the Tigr library.
 *
 * Construct one over a CSR graph with an EngineOptions (which picks the
 * scheduling strategy — baseline, Tigr physical/virtual, or one of the
 * modeled competing frameworks) and call the analysis you need. The
 * engine lazily builds and caches at most one schedule per graph side
 * (forward for push, reverse for pull; TigrUdt adds transformed graphs
 * for BFS and SSWP) and reports per-run simulator counters alongside
 * the results.
 *
 * The same engine also runs straight off a mutated DynamicGraph: push
 * over the forward slack arena, pull over the mirrored reverse arena,
 * with no dense toCsr()/reversed() materialization. Each analysis is
 * written once over a work-unit provider chosen once per run —
 * Schedule, DynamicVirtualProvider (CSR rows or an arena side) or
 * ArenaVirtualProvider (a maintained virtualizer) — so the dense and
 * arena topologies compute bit-identical values by construction: both
 * enumerate the same units in the same order (a family is a pure
 * function of (segment begin, degree, K, layout)), and every merge —
 * per-chunk improvement logs, PageRank's additions — runs serially in
 * unit order.
 * Only arena slot numbers differ, which the warp simulator's
 * coalescing counters may observe but values, digests, iteration
 * counts and convergence never do.
 */
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "engine/push_engine.hpp"
#include "engine/schedule.hpp"
#include "engine/strategy.hpp"
#include "graph/csr.hpp"
#include "par/thread_pool.hpp"

namespace tigr::dynamic {
class DynamicGraph;
class IncrementalVirtualizer;
} // namespace tigr::dynamic

namespace tigr::engine {

/** Execution metadata attached to every analysis result. */
struct RunInfo
{
    /** BSP iterations (or rounds/levels for PR/BC) executed. */
    unsigned iterations = 0;
    /** True when the analysis converged before the iteration cap. */
    bool converged = true;
    /** True when EngineOptions::cancel stopped the analysis early (the
     *  service layer's deadline-exceeded signal); the values are the
     *  well-defined state after the completed iterations. */
    bool cancelled = false;
    /** Aggregated simulator counters. */
    sim::KernelStats stats;
    /** Host milliseconds spent building the strategy's structures
     *  (UDT graph or virtual node array); 0 for the baseline. Cached
     *  structures report their original build time — check
     *  transformCached before charging it to a run. */
    double transformMs = 0.0;
    /** True when this run reused structures built by an earlier run
     *  (transformMs then repeats the original build cost and must not
     *  be double-counted). */
    bool transformCached = false;
    /** Host wall-clock milliseconds of this analysis call: semantic
     *  passes + simulation, plus the transform build when this call
     *  was the one that triggered it (transformCached == false). */
    double hostMs = 0.0;
    /** Modeled device-memory footprint (see modeledFootprintBytes). */
    std::size_t footprintBytes = 0;
    /** Largest per-iteration active-node count the run observed (= n
     *  every iteration when the worklist is off); 0 for analyses that
     *  do not track a frontier (PR, BC, triangles). */
    std::uint64_t peakFrontier = 0;
    /** True when this run executed on a degradation fallback (copied
     *  from EngineOptions::degraded by the service layer's resilience
     *  ladder — e.g. a dense run with on-the-fly family enumeration,
     *  DynamicVirtualProvider over CSR rows, after a transform-cache
     *  failure). Degraded runs compute values bit-identical to their
     *  non-degraded counterparts; only the enumeration cost differs. */
    bool degraded = false;
    /** Iterations that ran with the sparse (compacted) frontier — or,
     *  in pull direction, with the active-destination filter. Each
     *  charged one extra compaction launch, so stats.launches =
     *  iterations + sparseIterations (+ extra per-iteration kernels)
     *  for the worklist analyses. */
    unsigned sparseIterations = 0;

    /** Simulated kernel time in milliseconds. */
    double simulatedMs() const { return cyclesToMs(stats.cycles); }
};

/** Result of a distance analysis (BFS hop counts or SSSP distances),
 *  one value per node of the *original* graph; kInfDist = unreached. */
struct DistancesResult
{
    std::vector<Dist> values;
    RunInfo info;
};

/** Result of SSWP: widest-path width per node; 0 = unreached,
 *  kInfWeight = the source itself. */
struct WidthsResult
{
    std::vector<Weight> values;
    RunInfo info;
};

/** Result of CC: smallest reachable node id per node. */
struct LabelsResult
{
    std::vector<NodeId> values;
    RunInfo info;
};

/** Result of PageRank. */
struct RanksResult
{
    std::vector<Rank> values;
    RunInfo info;
};

/** Result of betweenness centrality. */
struct CentralityResult
{
    std::vector<double> values;
    RunInfo info;
};

/** Result of triangle counting. */
struct TrianglesResult
{
    /** Total number of distinct triangles {u, v, w}. */
    std::uint64_t total = 0;
    /** Number of triangles each node participates in. */
    std::vector<std::uint64_t> perNode;
    RunInfo info;
};

/** PageRank iteration parameters. */
struct PageRankOptions
{
    double damping = 0.85;     ///< Damping factor.
    unsigned iterations = 20;  ///< Synchronous rounds.
    /** Force the pull-based (gather over incoming edges) formulation;
     *  by default only CuSha pulls (its shard engine is pull by
     *  construction) and every other strategy pushes, matching the
     *  implementations the paper compares. Both formulations compute
     *  identical ranks (Theorems 2 and 3). */
    bool pull = false;
    /** When positive, stop as soon as the L1 rank change of a round
     *  drops below this threshold (still capped by `iterations`);
     *  0 runs exactly `iterations` rounds. */
    double epsilon = 0.0;
};

/**
 * A work-unit schedule shared across engines, with the host cost of
 * its original build. The service layer's TransformCache hands these
 * to every engine it creates over the same (graph, strategy, K)
 * triple, so repeated queries reuse the virtual-node decomposition
 * instead of rebuilding it (the amortization Table 7 of the paper is
 * about). The schedule must have been built over the exact Csr object
 * the engine is constructed with; the engine verifies this plus the
 * strategy/K/warp parameters and silently builds its own schedule on
 * any mismatch — a stale injection can cost time, never correctness.
 */
struct SharedSchedule
{
    Schedule schedule;
    /** Host milliseconds of the original Schedule::build. */
    double buildMs = 0.0;
};

/**
 * Vertex-centric graph analytics engine over the simulated GPU.
 *
 * The referenced graph (and any maintained virtualizer) must outlive
 * the engine. All analyses are deterministic: the same graph and
 * options produce bit-identical results and identical simulator
 * counters.
 */
class GraphEngine
{
  public:
    /**
     * @param graph Input graph (kept by reference).
     * @param options Strategy and tuning; see EngineOptions.
     * @param shared Optional externally cached forward schedule (see
     *        SharedSchedule); engines use it for analyses scheduled
     *        directly over @p graph when it matches the options.
     */
    explicit GraphEngine(const graph::Csr &graph,
                         EngineOptions options = {},
                         std::shared_ptr<const SharedSchedule> shared =
                             nullptr);

    /**
     * An engine over a DynamicGraph's slack arenas. Only the virtual
     * strategies (TigrV / TigrV+) are supported — they are the ones
     * whose decomposition is recomputable from arena geometry alone —
     * so any other strategy throws std::invalid_argument, as do
     * triangles(). A maintained virtualizer serves a side when its
     * (K, layout, side) matches the options and dynamic mapping is
     * off (the incremental O(touched) repair the arena exists for);
     * otherwise the side's families are enumerated on the fly — the
     * two are unobservable-identical, simulator counters included.
     * With a maintained view there is no transform to charge: runs
     * report transformMs = 0 and transformCached = true.
     *
     * @param graph Mutated dynamic graph (kept by reference).
     * @param forward Maintained Out-side arena virtualizer, or nullptr
     *        to enumerate forward families on the fly.
     * @param reverse Maintained In-side arena virtualizer, or nullptr
     *        to enumerate reverse families on the fly.
     * @param options Strategy and tuning; must be TigrV or TigrV+.
     */
    GraphEngine(const dynamic::DynamicGraph &graph,
                const dynamic::IncrementalVirtualizer *forward,
                const dynamic::IncrementalVirtualizer *reverse,
                EngineOptions options = {});

    ~GraphEngine();
    GraphEngine(const GraphEngine &) = delete;
    GraphEngine &operator=(const GraphEngine &) = delete;

    /** The options the engine was built with. */
    const EngineOptions &options() const { return options_; }

    /** True when an algorithm under a strategy and direction runs on
     *  the input graph's forward schedule, the only one a
     *  SharedSchedule can serve (PageRankOptions::pull aside). */
    static bool usesForwardSchedule(Strategy, Direction, Algorithm);

    /** Host threads the engine actually runs with (after resolving
     *  EngineOptions::threads through TIGR_THREADS / hardware). */
    unsigned hostThreads() const
    {
        return pool_ ? pool_->threads() : 1;
    }

    /**
     * Single-source shortest paths over the graph's edge weights.
     * Under TigrUdt the graph is physically transformed with zero dumb
     * weights (Corollary 2), so results match the original graph.
     */
    DistancesResult sssp(NodeId source);

    /** Breadth-first search hop counts (SSSP over unit weights). */
    DistancesResult bfs(NodeId source);

    /** Single-source widest paths; under TigrUdt the transformation
     *  uses infinite dumb weights (Corollary 3). */
    WidthsResult sswp(NodeId source);

    /**
     * Connected components by min-label propagation. Labels propagate
     * along directed edges, so pass a symmetrized graph to compute the
     * usual weak connectivity (the evaluation datasets are loaded
     * undirected, as in the paper).
     */
    LabelsResult cc();

    /**
     * PageRank. Pushes rank shares along forward units (the paper's
     * Tigr PR) by default; pull mode (PageRankOptions::pull, a pull
     * engine, or CuSha) gathers over the reversed graph with the
     * original outdegrees (Corollary 4), the vertex function being
     * associative as Theorem 3 requires. Unsupported under TigrUdt
     * (the physical transformation changes outdegrees) — throws
     * std::invalid_argument.
     */
    RanksResult pagerank(const PageRankOptions &pr_options = {});

    /**
     * Betweenness centrality accumulated from @p sources (Brandes
     * forward/backward over hop-count shortest paths). Unsupported
     * under TigrUdt — throws std::invalid_argument.
     */
    CentralityResult bc(std::span<const NodeId> sources);

    /**
     * Count triangles (pass a symmetric, deduplicated graph). This is
     * a *neighborhood* analysis: physical split transformations
     * destroy it (the paper's applicability discussion), so TigrUdt
     * throws std::invalid_argument; every other strategy — including
     * the virtual ones, whose physical graph is untouched — computes
     * the exact count. Dense engines only: an arena engine throws
     * std::invalid_argument.
     */
    TrianglesResult triangles();

    /** Modeled device footprint for running @p algorithm under the
     *  engine's strategy. */
    std::size_t footprintBytes(Algorithm algorithm);

  private:
    struct Context;

    /** The graph a schedule context indexes: outside TigrUdt, at most
     *  one per side (push analyses share Forward, pull ones Reverse).
     *  On an arena engine a context is one arena side. */
    enum class ContextKind
    {
        Forward,    ///< The input graph; under TigrUdt its
                    ///< zero-dumb-weight transform (SSSP, CC).
        Reverse,    ///< Reversed graph (pull analyses, pull PR).
        SortedRows, ///< Row-sorted copy (triangle counting).
        UdtUnit,    ///< TigrUdt BFS: transform of a unit-weight copy.
        UdtInf,     ///< TigrUdt SSWP: infinite dumb weights.
    };

    /** The context of @p kind: cached on a dense engine, re-derived
     *  from the live arena on every call of an arena engine. */
    Context &context(ContextKind kind);
    Context &arenaContext(ContextKind kind);
    /** The context @p algorithm runs over (PageRankOptions::pull aside). */
    ContextKind contextFor(Algorithm algorithm) const;
    PushOptions pushOptions() const;
    NodeId numNodes() const;

    /** True when the injected shared schedule matches @p ctx (same
     *  scheduled graph object and build parameters). */
    bool sharedApplies(const Context &ctx) const;

    /** Invoke @p fn(provider, forward) with the unit provider serving
     *  @p ctx and the forward topology (graph::Csr or DynamicGraph,
     *  for outdegrees and the pull destination filter): one dispatch
     *  per run, so the per-edge loops see a concrete provider type. */
    template <typename Fn>
    decltype(auto) withProvider(const Context &ctx, Fn &&fn);

    /** Run a semiring analysis through the configured direction. */
    template <typename Semiring>
    PushOutcome<Semiring>
    runSemiring(const Context &ctx,
                std::span<const std::pair<
                    NodeId, typename Semiring::Value>> seeds,
                bool all_active, bool unit_weights);

    /** One worklist analysis end to end: context, trace, semiring run
     *  and the outcome's RunInfo. */
    template <typename Semiring, typename Result>
    Result runValues(Algorithm algorithm,
                     std::span<const std::pair<
                         NodeId, typename Semiring::Value>> seeds,
                     bool all_active);

    /** Modeled footprint of @p algorithm over @p ctx. */
    std::size_t footprint(const Context &ctx,
                          Algorithm algorithm) const;

    /** Fill the strategy/transform metadata of @p info from @p ctx. */
    void fillRunInfo(RunInfo &info, const Context &ctx,
                     Algorithm algorithm) const;

    /** Record RunBegin + Transform trace events for an analysis over
     *  @p ctx (no-op when tracing is off). */
    void traceRunBegin(Algorithm algorithm, const Context &ctx);
    /** Record a RunEnd trace event and advance the engine's tick base
     *  by the run's simulated cycles, keeping traces of consecutive
     *  analyses on one sink monotonic. */
    void traceRunEnd(const RunInfo &info);

    /** Exactly one topology is set: the dense input graph or the
     *  arena graph. */
    const graph::Csr *dense_ = nullptr;
    const dynamic::DynamicGraph *arena_ = nullptr;
    /** Maintained arena virtualizers (arena engines; may be null). */
    const dynamic::IncrementalVirtualizer *forwardVirt_ = nullptr;
    const dynamic::IncrementalVirtualizer *reverseVirt_ = nullptr;
    EngineOptions options_;
    /** Externally cached forward schedule (may be null). */
    std::shared_ptr<const SharedSchedule> shared_;
    sim::WarpSimulator sim_;
    /** Host worker pool shared by every analysis; null when the engine
     *  resolved to a single thread. */
    std::unique_ptr<par::ThreadPool> pool_;
    std::map<ContextKind, std::unique_ptr<Context>> contexts_;
    /** Simulated cycles of all completed traced runs: the tick base of
     *  the next analysis recorded on the sink. */
    std::uint64_t tracedCycles_ = 0;
};

} // namespace tigr::engine
