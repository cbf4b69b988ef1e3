/**
 * @file
 * Shared helpers for the table/figure reproduction benchmarks: dataset
 * loading at the configured scale, aligned table printing, the
 * paper-scale OOM oracle, and uniform algorithm dispatch.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/graph_engine.hpp"
#include "graph/datasets.hpp"

namespace tigr::bench {

/** Benchmark graph scale from $TIGR_BENCH_SCALE (default 1.0 — the
 *  stand-in sizes of Table 3; smaller values smoke-test faster). */
double benchScale();

/** Largest host thread count the scaling benchmarks sweep to, from
 *  $TIGR_BENCH_THREADS (default min(8, hardware concurrency)). */
unsigned benchMaxThreads();

/**
 * Delivered parallelism: how many cores' worth of integer work
 * @p threads concurrent threads actually get, which
 * hardware_concurrency() cannot tell (a shared or throttled virtual
 * machine may report 4 threads and run them at the speed of one). A
 * serial integer burn is calibrated to take at least 20 ms; then
 * @p threads threads each run the same burn at once. The result is
 * threads x serial time / concurrent wall time, each the best of three
 * trials: close to @p threads when every thread gets its own core,
 * close to 1 when they all share one.
 */
double deliveredParallelism(unsigned threads);

/** Aligned plain-text table printer used by every bench binary. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> header);

    /** Append one row; must have as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with right-aligned numeric columns to @p out. */
    void print(std::ostream &out) const;

  private:
    std::vector<std::vector<std::string>> rows_;
};

/** Format @p value with @p precision fraction digits. */
std::string fmt(double value, int precision = 2);

/** Generate the directed weighted/unweighted stand-in for @p spec at
 *  the bench scale. */
graph::Csr loadGraph(const graph::DatasetSpec &spec, bool weighted);

/** Generate the symmetrized unweighted stand-in (for CC). */
graph::Csr loadSymmetricGraph(const graph::DatasetSpec &spec);

/** The node with the largest outdegree — the deterministic traversal
 *  source every benchmark uses (hubs reach most of a power-law graph). */
NodeId hubNode(const graph::Csr &graph);

/**
 * Would running @p algorithm on the *paper-scale* dataset under
 * @p strategy exceed the paper's 8 GB GPU? Computed from the Table 3
 * reference sizes, so the OOM cells of Table 4 reproduce regardless of
 * the local bench scale.
 */
bool paperOom(engine::Strategy strategy, engine::Algorithm algorithm,
              const graph::DatasetSpec &spec);

/**
 * Run @p algorithm once through @p engine (BFS/SSSP/SSWP from
 * @p source; CC/PR/BC ignore it — BC uses @p source as its single
 * sample source) and return the RunInfo.
 */
engine::RunInfo runAlgorithm(engine::GraphEngine &engine,
                             engine::Algorithm algorithm, NodeId source);

/** All six evaluation algorithms in Table 4 row order. */
inline constexpr engine::Algorithm kAllAlgorithms[] = {
    engine::Algorithm::Bfs, engine::Algorithm::Sssp,
    engine::Algorithm::Pr,  engine::Algorithm::Cc,
    engine::Algorithm::Sswp, engine::Algorithm::Bc,
};

} // namespace tigr::bench
