/**
 * @file
 * Seeded inputs of the three workloads. Every file and batch here is a
 * pure function of (sizes, seed): the same seed writes byte-identical
 * snapshots, journal tails and mutation batches. Input generation is
 * never timed.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation.hpp"
#include "graph/csr.hpp"

namespace tigr::perfbench {

/** Graph and stream sizes of one scale. */
struct Sizes
{
    /** analytics-skewed: RMAT nodes and undirected edge draws (each is
     *  stored in both directions, so about twice as many CSR edges). */
    NodeId analyticsNodes = 0;
    EdgeIndex analyticsDraws = 0;
    /** serve-mixed: the RMAT "social" graph and the grid side of the
     *  "road" graph. */
    NodeId socialNodes = 0;
    EdgeIndex socialEdges = 0;
    NodeId roadSide = 0;
    /** mutate-durable: the RMAT graph and the journal tail recovered at
     *  set-up, in records. */
    NodeId mutateNodes = 0;
    EdgeIndex mutateEdges = 0;
    std::size_t journalTail = 0;

    /** The sizes the benchmark is defined at. */
    static Sizes full();
    /** A seconds-long scale for smoke tests. */
    static Sizes tiny();
};

/** Independent seed stream @p stream of @p seed (splitmix64). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/** Weighted RMAT graph (weights uniform in [1, 64]); @p symmetric stores
 *  every drawn edge in both directions. */
graph::Csr rmatGraph(NodeId nodes, EdgeIndex edges, std::uint64_t seed,
                     bool symmetric);

/** Weighted side x side grid, both edge directions. */
graph::Csr gridGraph(NodeId side, std::uint64_t seed);

/** @p count distinct seeded nodes of outdegree >= 2 (fewer when the
 *  graph has fewer such nodes, at least one node). */
std::vector<NodeId> pickSources(const graph::Csr &graph, std::size_t count,
                                std::uint64_t seed);

/** The lowest-id node of smallest outdegree: a source whose traversal
 *  ends at once, used to build an engine's lazy structures. */
NodeId quietNode(const graph::Csr &graph);

/** analytics-skewed input: one plain snapshot. */
std::filesystem::path writeAnalyticsInputs(const std::filesystem::path &dir,
                                           const Sizes &sizes,
                                           std::uint64_t seed);

/** serve-mixed inputs: the "social" and "road" snapshots. */
struct ServeInputs
{
    std::filesystem::path social;
    std::filesystem::path road;
};
ServeInputs writeServeInputs(const std::filesystem::path &dir,
                             const Sizes &sizes, std::uint64_t seed);

/** Name of the mutated graph in the durable store. */
inline constexpr const char *kDurableGraph = "rmat";

/** mutate-durable inputs: a durable directory holding the graph's
 *  snapshot (with a tigr-v+ K=10 virtual section) and a journal tail,
 *  plus a replica of the graph at the tail's epoch from which the
 *  benchmark generates later batches. */
struct MutateInputs
{
    std::filesystem::path templateDir;
    graph::Csr base;
    dynamic::DynamicGraph replica;
};
MutateInputs writeMutateInputs(const std::filesystem::path &dir,
                               const Sizes &sizes, std::uint64_t seed);

/** Seeded batch shape for one commit against @p graph: inserts, deletes
 *  and reweights together under 0.1% of its edges, aimed at the hub
 *  head (the lowest 1/32 of the ids) through hotSpan. */
dynamic::GeneratorSpec commitSpec(const graph::Csr &graph,
                                  std::uint64_t seed);

/** Generate the next commit's batch against @p replica and apply it to
 *  the replica, which then matches the store after the commit. */
dynamic::MutationBatch nextCommit(dynamic::DynamicGraph &replica,
                                  std::uint64_t seed);

} // namespace tigr::perfbench
