#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"

namespace tigr::bench {

double
benchScale()
{
    if (const char *env = std::getenv("TIGR_BENCH_SCALE")) {
        double scale = std::atof(env);
        if (scale > 0.0)
            return scale;
    }
    return 1.0;
}

unsigned
benchMaxThreads()
{
    if (const char *env = std::getenv("TIGR_BENCH_THREADS")) {
        long threads = std::atol(env);
        if (threads >= 1 && threads <= 1024)
            return static_cast<unsigned>(threads);
    }
    return std::min(8u, par::defaultThreads());
}

namespace {

/** A dependent chain of 64-bit multiply-adds: integer work with no
 *  memory traffic that the optimizer cannot shorten. */
std::uint64_t
burn(std::uint64_t rounds, std::uint64_t x)
{
    for (std::uint64_t i = 0; i < rounds; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

std::atomic<std::uint64_t> burnSink{0};

/** Wall milliseconds for @p threads threads each burning @p rounds. */
double
timedBurn(unsigned threads, std::uint64_t rounds)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back(
            [rounds, t] { burnSink += burn(rounds, t + 1); });
    for (std::thread &worker : workers)
        worker.join();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

double
deliveredParallelism(unsigned threads)
{
    std::uint64_t rounds = 1 << 16;
    while (timedBurn(1, rounds) < 20.0)
        rounds *= 2;
    double one = timedBurn(1, rounds);
    double many = timedBurn(threads, rounds);
    for (int trial = 1; trial < 3; ++trial) {
        one = std::min(one, timedBurn(1, rounds));
        many = std::min(many, timedBurn(threads, rounds));
    }
    return threads * one / many;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
{
    rows_.push_back(std::move(header));
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    if (row.size() != rows_.front().size())
        throw std::logic_error("bench: row width mismatch");
    rows_.push_back(std::move(row));
}

void
TablePrinter::print(std::ostream &out) const
{
    std::vector<std::size_t> width(rows_.front().size(), 0);
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    for (std::size_t r = 0; r < rows_.size(); ++r) {
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            if (c)
                out << "  ";
            // First column left-aligned (labels), others right.
            if (c == 0)
                out << std::left;
            else
                out << std::right;
            out << std::setw(static_cast<int>(width[c])) << rows_[r][c];
        }
        out << '\n';
        if (r == 0) {
            std::size_t total = 0;
            for (std::size_t c = 0; c < width.size(); ++c)
                total += width[c] + (c ? 2 : 0);
            out << std::string(total, '-') << '\n';
        }
    }
}

std::string
fmt(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

graph::Csr
loadGraph(const graph::DatasetSpec &spec, bool weighted)
{
    return graph::makeDataset(spec, benchScale(), weighted);
}

graph::Csr
loadSymmetricGraph(const graph::DatasetSpec &spec)
{
    graph::Csr directed = graph::makeDataset(spec, benchScale(), false);
    graph::CooEdges coo = directed.toCoo();
    coo.symmetrize();
    return graph::GraphBuilder().build(std::move(coo));
}

NodeId
hubNode(const graph::Csr &graph)
{
    NodeId hub = 0;
    EdgeIndex best = 0;
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        if (graph.degree(v) > best) {
            best = graph.degree(v);
            hub = v;
        }
    }
    return hub;
}

bool
paperOom(engine::Strategy strategy, engine::Algorithm algorithm,
         const graph::DatasetSpec &spec)
{
    constexpr std::uint64_t kDeviceBytes = 8ULL << 30; // paper's 8 GB
    // Virtual node array at the paper's K = 10.
    const std::uint64_t virtual_nodes =
        spec.paperNodes + spec.paperEdges / 10;
    return engine::modeledFootprintBytes(strategy, algorithm,
                                         spec.paperNodes,
                                         spec.paperEdges,
                                         virtual_nodes) > kDeviceBytes;
}

engine::RunInfo
runAlgorithm(engine::GraphEngine &engine, engine::Algorithm algorithm,
             NodeId source)
{
    switch (algorithm) {
      case engine::Algorithm::Bfs:
        return engine.bfs(source).info;
      case engine::Algorithm::Sssp:
        return engine.sssp(source).info;
      case engine::Algorithm::Sswp:
        return engine.sswp(source).info;
      case engine::Algorithm::Cc:
        return engine.cc().info;
      case engine::Algorithm::Pr:
        return engine.pagerank().info;
      case engine::Algorithm::Bc: {
        const NodeId sources[] = {source};
        return engine.bc(sources).info;
      }
    }
    return {};
}

} // namespace tigr::bench
