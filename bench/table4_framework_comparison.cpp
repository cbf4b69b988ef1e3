/**
 * @file
 * Reproduces Table 4: execution time of MW, CuSha, Gunrock, and
 * Tigr-V+ for the six analyses on the six datasets.
 *
 * Times are simulated-GPU milliseconds (see DESIGN.md's substitution
 * note); the paper's OOM cells are reproduced from the paper-scale
 * memory model, and its missing primitives ("-") are kept: Gunrock has
 * no SSWP, MW and CuSha have no BC. The best cell per row is starred.
 */
#include <array>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>

#include "bench_util.hpp"

using namespace tigr;
using engine::Algorithm;
using engine::Strategy;

namespace {

constexpr Strategy kColumns[] = {Strategy::MaximumWarp, Strategy::Cusha,
                                 Strategy::Gunrock, Strategy::TigrVPlus};

bool
hasPrimitive(Strategy strategy, Algorithm algorithm)
{
    if (algorithm == Algorithm::Sswp)
        return strategy != Strategy::Gunrock;
    if (algorithm == Algorithm::Bc) {
        return strategy == Strategy::Gunrock ||
               strategy == Strategy::TigrVPlus;
    }
    return true;
}

engine::EngineOptions
optionsFor(Strategy strategy, unsigned mw_warp)
{
    engine::EngineOptions options;
    options.strategy = strategy;
    options.degreeBound = 10; // paper: Kv = 10
    options.udtBound = 0;     // heuristic (unused here)
    options.mwVirtualWarp = mw_warp;
    return options;
}

/** One dataset's engines (per strategy, MW per warp width), reused
 *  across algorithms so transformed structures are built once. */
struct DatasetEngines
{
    graph::Csr weighted;
    graph::Csr symmetric;
    // engines[strategy column][mw variant]; non-MW columns use slot 0.
    std::array<std::vector<std::unique_ptr<engine::GraphEngine>>, 4>
        directed;
    std::array<std::vector<std::unique_ptr<engine::GraphEngine>>, 4>
        undirected;
};

std::optional<double>
runCell(DatasetEngines &engines, std::size_t column,
        Algorithm algorithm, NodeId source, NodeId cc_source)
{
    auto &pool = algorithm == Algorithm::Cc ? engines.undirected
                                            : engines.directed;
    double best = std::numeric_limits<double>::infinity();
    for (auto &eng : pool[column]) {
        engine::RunInfo info = bench::runAlgorithm(
            *eng, algorithm,
            algorithm == Algorithm::Cc ? cc_source : source);
        best = std::min(best, info.simulatedMs());
    }
    if (!std::isfinite(best))
        return std::nullopt;
    return best;
}

} // namespace

int
main()
{
    std::cout << "=== Tigr bench: Table 4 — framework comparison "
                 "(simulated ms, scale "
              << bench::fmt(bench::benchScale(), 2) << ") ===\n\n";

    const unsigned mw_warps[] = {4, 8, 16};

    bench::TablePrinter table({"alg.", "dataset", "MW", "CuSha",
                               "Gunrock", "Tigr-V+"});

    for (Algorithm algorithm : bench::kAllAlgorithms) {
        for (const auto &spec : graph::standardDatasets()) {
            DatasetEngines engines;
            engines.weighted = bench::loadGraph(spec, true);
            engines.symmetric = bench::loadSymmetricGraph(spec);
            for (std::size_t c = 0; c < 4; ++c) {
                Strategy strategy = kColumns[c];
                if (strategy == Strategy::MaximumWarp) {
                    for (unsigned w : mw_warps) {
                        engines.directed[c].push_back(
                            std::make_unique<engine::GraphEngine>(
                                engines.weighted,
                                optionsFor(strategy, w)));
                        engines.undirected[c].push_back(
                            std::make_unique<engine::GraphEngine>(
                                engines.symmetric,
                                optionsFor(strategy, w)));
                    }
                } else {
                    engines.directed[c].push_back(
                        std::make_unique<engine::GraphEngine>(
                            engines.weighted, optionsFor(strategy, 8)));
                    engines.undirected[c].push_back(
                        std::make_unique<engine::GraphEngine>(
                            engines.symmetric, optionsFor(strategy, 8)));
                }
            }

            const NodeId source = bench::hubNode(engines.weighted);
            const NodeId cc_source = bench::hubNode(engines.symmetric);

            // "-" marks a cell the framework has no primitive for.
            std::array<std::string, 4> cells{"-", "-", "-", "-"};
            std::array<double, 4> ms;
            ms.fill(std::numeric_limits<double>::infinity());
            for (std::size_t c = 0; c < 4; ++c) {
                Strategy strategy = kColumns[c];
                if (!hasPrimitive(strategy, algorithm))
                    continue;
                if (bench::paperOom(strategy, algorithm, spec)) {
                    cells[c] = "OOM";
                    continue;
                }
                auto cell = runCell(engines, c, algorithm, source,
                                    cc_source);
                if (!cell)
                    continue;
                ms[c] = *cell;
                cells[c] = bench::fmt(*cell, 2);
            }
            // Star the fastest available cell (the paper bolds it).
            std::size_t best = 0;
            for (std::size_t c = 1; c < 4; ++c)
                if (ms[c] < ms[best])
                    best = c;
            if (std::isfinite(ms[best]))
                cells[best] += " *";

            table.addRow({std::string(
                              engine::algorithmName(algorithm)),
                          spec.name, cells[0], cells[1], cells[2],
                          cells[3]});
        }
    }
    table.print(std::cout);
    std::cout << "\n'*' marks the fastest framework per row; OOM cells "
                 "are derived from the paper-scale 8 GB memory model; "
                 "'-' marks primitives a framework lacks.\n";
    return 0;
}
