/**
 * @file
 * Host-parallelism scaling sweep: SSSP and PageRank on an RMAT graph
 * at 1, 2, 4, ... benchMaxThreads() host threads. Reports host
 * wall-clock next to the (thread-count-independent) simulated time and
 * verifies the determinism contract on the way: every thread count
 * must reproduce the 1-thread results and iteration counts exactly.
 *
 * Speedups depend on the machine; a single-core container reports ~1x
 * throughout (the sweep still proves determinism there).
 */
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.hpp"

using namespace tigr;

namespace {

struct Sample
{
    std::vector<Dist> sssp;
    std::vector<Rank> pr;
    unsigned ssspIters = 0;
    double ssspHostMs = 0.0;
    double prHostMs = 0.0;
    double simulatedMs = 0.0;
};

Sample
runAt(const graph::Csr &g, NodeId source, unsigned threads)
{
    engine::EngineOptions options;
    options.strategy = engine::Strategy::TigrVPlus;
    options.threads = threads;
    engine::GraphEngine engine(g, options);

    Sample sample;
    auto sssp = engine.sssp(source);
    sample.sssp = std::move(sssp.values);
    sample.ssspIters = sssp.info.iterations;
    sample.ssspHostMs = sssp.info.hostMs;
    sample.simulatedMs = sssp.info.simulatedMs();
    auto pr = engine.pagerank({.iterations = 10});
    sample.pr = std::move(pr.values);
    sample.prHostMs = pr.info.hostMs;
    return sample;
}

} // namespace

int
main()
{
    std::cout << "=== Tigr bench: host-parallel scaling (tigr-v+, "
                 "RMAT, scale "
              << bench::fmt(bench::benchScale(), 2) << ") ===\n\n";

    const graph::DatasetSpec spec{.name = "rmat-bench",
                                  .generator = graph::DatasetGenerator::Rmat,
                                  .nodes = 65536,
                                  .edges = 1u << 20,
                                  .rmatA = 0.57,
                                  .baEdgesPerNode = 0,
                                  .seed = 424242};
    graph::Csr g = bench::loadGraph(spec, true);
    const NodeId source = bench::hubNode(g);
    std::cout << "graph: " << g.numNodes() << " nodes, " << g.numEdges()
              << " edges, source " << source << "\n\n";

    const Sample baseline = runAt(g, source, 1);

    bench::TablePrinter table({"threads", "sssp host ms", "sssp speedup",
                               "pr host ms", "pr speedup",
                               "simulated ms", "identical"});
    bool all_identical = true;
    for (unsigned threads = 1; threads <= bench::benchMaxThreads();
         threads *= 2) {
        const Sample sample = runAt(g, source, threads);
        const bool identical = sample.sssp == baseline.sssp &&
                               sample.pr == baseline.pr &&
                               sample.ssspIters == baseline.ssspIters;
        all_identical = all_identical && identical;
        table.addRow(
            {std::to_string(threads),
             bench::fmt(sample.ssspHostMs, 2),
             bench::fmt(baseline.ssspHostMs / sample.ssspHostMs, 2),
             bench::fmt(sample.prHostMs, 2),
             bench::fmt(baseline.prHostMs / sample.prHostMs, 2),
             bench::fmt(sample.simulatedMs, 3),
             identical ? "yes" : "NO"});
    }
    table.print(std::cout);

    if (!all_identical) {
        std::cout << "\nerror: results varied with the thread count\n";
        return EXIT_FAILURE;
    }
    std::cout << "\nall thread counts reproduced the 1-thread results "
                 "bit-exactly\n";
    return EXIT_SUCCESS;
}
