#include "inputs.hpp"

#include <algorithm>
#include <random>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/journal.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::perfbench {

Sizes
Sizes::full()
{
    Sizes s;
    s.analyticsNodes = 1 << 16;
    s.analyticsDraws = 1 << 19;
    s.socialNodes = 1 << 15;
    s.socialEdges = 1 << 18;
    s.roadSide = 128;
    s.mutateNodes = 1 << 15;
    s.mutateEdges = 1 << 18;
    s.journalTail = 32;
    return s;
}

Sizes
Sizes::tiny()
{
    Sizes s;
    s.analyticsNodes = 1 << 9;
    s.analyticsDraws = 1 << 12;
    s.socialNodes = 1 << 9;
    s.socialEdges = 1 << 12;
    s.roadSide = 16;
    s.mutateNodes = 1 << 9;
    s.mutateEdges = 1 << 12;
    s.journalTail = 4;
    return s;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace {

graph::Csr
buildWeighted(graph::CooEdges coo, std::uint64_t seed)
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.weightSeed = subSeed(seed, 99);
    return graph::GraphBuilder(options).build(std::move(coo));
}

} // namespace

graph::Csr
rmatGraph(NodeId nodes, EdgeIndex edges, std::uint64_t seed, bool symmetric)
{
    graph::RmatParams params;
    params.nodes = nodes;
    params.edges = edges;
    params.seed = seed;
    graph::CooEdges coo = graph::rmat(params);
    if (symmetric)
        coo.symmetrize();
    return buildWeighted(std::move(coo), seed);
}

graph::Csr
gridGraph(NodeId side, std::uint64_t seed)
{
    return buildWeighted(graph::grid2d(side, side), seed);
}

std::vector<NodeId>
pickSources(const graph::Csr &graph, std::size_t count, std::uint64_t seed)
{
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < graph.numNodes(); ++v) {
        if (graph.degree(v) >= 2)
            candidates.push_back(v);
    }
    if (candidates.empty())
        return {0};
    std::mt19937_64 rng(seed);
    std::shuffle(candidates.begin(), candidates.end(), rng);
    candidates.resize(std::min(count, candidates.size()));
    return candidates;
}

NodeId
quietNode(const graph::Csr &graph)
{
    NodeId best = 0;
    for (NodeId v = 1; v < graph.numNodes(); ++v) {
        if (graph.degree(v) < graph.degree(best))
            best = v;
    }
    return best;
}

std::filesystem::path
writeAnalyticsInputs(const std::filesystem::path &dir, const Sizes &sizes,
                     std::uint64_t seed)
{
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = dir / "analytics.tgs";
    service::saveSnapshotFile(rmatGraph(sizes.analyticsNodes,
                                        sizes.analyticsDraws,
                                        subSeed(seed, 1), true),
                              path);
    return path;
}

ServeInputs
writeServeInputs(const std::filesystem::path &dir, const Sizes &sizes,
                 std::uint64_t seed)
{
    std::filesystem::create_directories(dir);
    ServeInputs inputs{dir / "social.tgs", dir / "road.tgs"};
    service::saveSnapshotFile(rmatGraph(sizes.socialNodes,
                                        sizes.socialEdges,
                                        subSeed(seed, 2), false),
                              inputs.social);
    service::saveSnapshotFile(gridGraph(sizes.roadSide, subSeed(seed, 3)),
                              inputs.road);
    return inputs;
}

dynamic::GeneratorSpec
commitSpec(const graph::Csr &graph, std::uint64_t seed)
{
    dynamic::GeneratorSpec spec;
    spec.seed = seed;
    // Three kinds of m/4096 each: 0.073% of the edges per batch.
    const std::size_t each =
        std::max<std::size_t>(1, graph.numEdges() / 4096);
    spec.inserts = each;
    spec.deletes = each;
    spec.reweights = each;
    spec.hotSpan = std::max<NodeId>(16, graph.numNodes() / 32);
    return spec;
}

dynamic::MutationBatch
nextCommit(dynamic::DynamicGraph &replica, std::uint64_t seed)
{
    const graph::Csr current = replica.toCsr();
    dynamic::MutationBatch batch =
        dynamic::generateBatch(current, commitSpec(current, seed));
    replica.apply(batch);
    return batch;
}

MutateInputs
writeMutateInputs(const std::filesystem::path &dir, const Sizes &sizes,
                  std::uint64_t seed)
{
    MutateInputs inputs;
    inputs.templateDir = dir / "durable-template";
    std::filesystem::create_directories(inputs.templateDir);
    inputs.base = rmatGraph(sizes.mutateNodes, sizes.mutateEdges,
                            subSeed(seed, 4), false);
    const std::filesystem::path snapshot =
        inputs.templateDir /
        (std::string(kDurableGraph) +
         std::string(service::kSnapshotExtension));
    service::saveSnapshotFile(
        transform::VirtualGraph(inputs.base, 10,
                                transform::EdgeLayout::Coalesced),
        snapshot);

    // The tail a crashed writer would leave: records for epochs
    // 1..journalTail on top of the epoch-0 snapshot.
    inputs.replica = dynamic::DynamicGraph(inputs.base);
    service::JournalWriter journal = service::JournalWriter::create(
        service::journalPathFor(snapshot), 0,
        service::SyncPolicy::GroupCommit);
    for (std::size_t i = 0; i < sizes.journalTail; ++i) {
        journal.append(i + 1,
                       nextCommit(inputs.replica, subSeed(seed, 1000 + i)));
    }
    journal.sync();
    return inputs;
}

} // namespace tigr::perfbench
