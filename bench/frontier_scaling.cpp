/**
 * @file
 * Frontier-mode scaling sweep: BFS and SSSP under the dense, sparse,
 * and adaptive frontier representations on two topology extremes —
 * a power-law RMAT graph (few, wide frontiers) and a road-like 2D grid
 * (hundreds of narrow frontiers). Reports host wall-clock and simulated
 * kernel time per mode and verifies the cross-mode half of the
 * determinism contract on the way: every mode must reproduce the dense
 * mode's values and iteration counts bit-exactly, and every mode must
 * be thread-count-invariant at 1, 2, and 8 host threads.
 *
 * The grid rows are where the tentpole earns its keep: a corner-seeded
 * grid traversal has peak |frontier| well under 5% of n, so the dense
 * mode's O(n)-per-iteration bitmap scans dominate its runtime while
 * sparse/adaptive enumerate O(|frontier|) — the adaptive hostMs should
 * sit several times below dense there. On the RMAT rows the frontier
 * saturates after a couple of hops and adaptive tracks dense instead.
 */
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

using namespace tigr;

namespace {

struct ModeSample
{
    std::vector<Dist> values;
    unsigned iterations = 0;
    unsigned sparseIterations = 0;
    std::uint64_t peakFrontier = 0;
    double hostMs = 0.0;
    double simulatedMs = 0.0;
};

ModeSample
runOne(const graph::Csr &g, NodeId source, engine::Algorithm algorithm,
       engine::FrontierMode mode, unsigned threads)
{
    engine::EngineOptions options;
    options.strategy = engine::Strategy::TigrVPlus;
    options.frontier = mode;
    options.threads = threads;
    engine::GraphEngine engine(g, options);
    // Warm the transform so hostMs measures the traversal, not the
    // virtual-node build the modes share.
    (void)engine.footprintBytes(algorithm);

    auto run = algorithm == engine::Algorithm::Bfs ? engine.bfs(source)
                                                   : engine.sssp(source);
    ModeSample sample;
    sample.values = std::move(run.values);
    sample.iterations = run.info.iterations;
    sample.sparseIterations = run.info.sparseIterations;
    sample.peakFrontier = run.info.peakFrontier;
    sample.hostMs = run.info.hostMs;
    sample.simulatedMs = run.info.simulatedMs();
    return sample;
}

/** Road-like mesh: a square 4-neighbor grid scaled with the bench
 *  scale, traversed from corner node 0 (hundreds of narrow wavefront
 *  iterations — the high-diameter regime of the paper's road graphs). */
graph::Csr
gridGraph()
{
    const double scale = bench::benchScale();
    NodeId side = static_cast<NodeId>(256 * (scale < 1.0 ? 0.5 : 1.0) *
                                      (scale < 0.2 ? 0.5 : 1.0));
    if (side < 16)
        side = 16;
    graph::BuildOptions build;
    build.randomizeWeights = true;
    build.maxWeight = 8;
    build.weightSeed = 7;
    return graph::GraphBuilder(build).build(
        graph::grid2d(side, side));
}

bool
runCase(const std::string &label, const graph::Csr &g, NodeId source,
        engine::Algorithm algorithm, bench::TablePrinter &table,
        bool &identical)
{
    const ModeSample dense = runOne(g, source, algorithm,
                                    engine::FrontierMode::Dense, 1);
    bool case_ok = true;
    for (engine::FrontierMode mode : engine::kAllFrontierModes) {
        const ModeSample sample = runOne(g, source, algorithm, mode, 1);
        bool mode_ok = sample.values == dense.values &&
                       sample.iterations == dense.iterations &&
                       sample.peakFrontier == dense.peakFrontier;
        // Thread-count invariance per mode, against the 1-thread run.
        for (unsigned threads : {2u, 8u}) {
            const ModeSample at =
                runOne(g, source, algorithm, mode, threads);
            mode_ok = mode_ok && at.values == sample.values &&
                      at.iterations == sample.iterations &&
                      at.sparseIterations == sample.sparseIterations;
        }
        case_ok = case_ok && mode_ok;
        table.addRow(
            {label, algorithmName(algorithm) == "BFS" ? "bfs" : "sssp",
             std::string(engine::frontierModeName(mode)),
             std::to_string(sample.iterations),
             std::to_string(sample.sparseIterations),
             bench::fmt(100.0 * static_cast<double>(sample.peakFrontier) /
                            static_cast<double>(g.numNodes()),
                        1) + "%",
             bench::fmt(sample.hostMs, 2),
             bench::fmt(dense.hostMs / sample.hostMs, 2),
             bench::fmt(sample.simulatedMs, 3),
             mode_ok ? "yes" : "NO"});
    }
    identical = identical && case_ok;
    return case_ok;
}

} // namespace

int
main()
{
    std::cout << "=== Tigr bench: frontier scaling (tigr-v+, scale "
              << bench::fmt(bench::benchScale(), 2) << ") ===\n\n";

    const graph::DatasetSpec spec{.name = "rmat-bench",
                                  .generator = graph::DatasetGenerator::Rmat,
                                  .nodes = 65536,
                                  .edges = 1u << 20,
                                  .rmatA = 0.57,
                                  .baEdgesPerNode = 0,
                                  .seed = 424242};
    graph::Csr rmat = bench::loadGraph(spec, true);
    const NodeId rmat_source = bench::hubNode(rmat);
    graph::Csr grid = gridGraph();

    std::cout << "rmat: " << rmat.numNodes() << " nodes, "
              << rmat.numEdges() << " edges, source " << rmat_source
              << "\n"
              << "grid: " << grid.numNodes() << " nodes, "
              << grid.numEdges() << " edges, source 0\n\n";

    bench::TablePrinter table({"graph", "algo", "frontier", "iters",
                               "sparse", "peak |F|/n", "host ms",
                               "speedup vs dense", "simulated ms",
                               "identical"});
    bool identical = true;
    runCase("rmat", rmat, rmat_source, engine::Algorithm::Bfs, table,
            identical);
    runCase("rmat", rmat, rmat_source, engine::Algorithm::Sssp, table,
            identical);
    runCase("grid", grid, 0, engine::Algorithm::Bfs, table, identical);
    runCase("grid", grid, 0, engine::Algorithm::Sssp, table, identical);
    table.print(std::cout);

    if (!identical) {
        std::cout << "\nerror: results varied across frontier modes or "
                     "thread counts\n";
        return EXIT_FAILURE;
    }
    std::cout << "\nall frontier modes and thread counts reproduced the "
                 "dense 1-thread results bit-exactly\n";
    return EXIT_SUCCESS;
}
