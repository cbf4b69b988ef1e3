/**
 * @file
 * Synthetic stand-ins for the six real-world datasets of Table 3.
 *
 * The paper evaluates on SNAP/LAW crawls (Pokec, LiveJournal, Hollywood,
 * Orkut, Sinaweibo, Twitter2010) that are hundreds of millions of edges.
 * This repository regenerates graphs with the same *shape* — matched
 * average degree, power-law tail, and relative size ordering — scaled
 * down so the full benchmark suite runs in minutes on a workstation.
 * DESIGN.md Section 2 documents the substitution.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace tigr::graph {

/** Which generator family synthesizes a dataset stand-in. */
enum class DatasetGenerator
{
    Rmat,           ///< R-MAT with per-dataset skew parameters.
    BarabasiAlbert, ///< Preferential attachment (dense collaboration).
};

/** Recipe for one Table 3 stand-in plus the paper's reference numbers. */
struct DatasetSpec
{
    std::string name;             ///< Dataset key, e.g. "pokec".
    DatasetGenerator generator;   ///< Generator family.
    NodeId nodes;                 ///< Stand-in node count (scale = 1).
    EdgeIndex edges;              ///< Stand-in edge count (scale = 1).
    double rmatA;                 ///< R-MAT a parameter (skew knob).
    unsigned baEdgesPerNode;      ///< BA attachment count.
    std::uint64_t seed;           ///< Generator seed.

    // Reference values from Table 3 of the paper, used by EXPERIMENTS.md
    // and the table3_datasets benchmark for side-by-side reporting.
    // Zero for ad-hoc specs that have no paper counterpart.
    std::uint64_t paperNodes = 0;     ///< #Nodes in the paper.
    std::uint64_t paperEdges = 0;     ///< #Edges in the paper.
    std::uint64_t paperMaxDegree = 0; ///< dmax in the paper.
    unsigned paperDiameter = 0;       ///< d in the paper.
    NodeId paperKudt = 0; ///< Degree bound the paper used for UDT.
    NodeId paperKv = 0;   ///< Degree bound the paper used for virtual
                          ///< transformation (always 10).
};

/** The six stand-ins, ordered as in Table 3 (smallest to largest). */
const std::vector<DatasetSpec> &standardDatasets();

/** Look up a spec by name; std::nullopt when unknown. */
std::optional<DatasetSpec> findDataset(const std::string &name);

/**
 * Generate the stand-in graph for @p spec.
 *
 * @param spec Dataset recipe.
 * @param scale Multiplier on nodes/edges (0.1 = ten times smaller);
 *        useful for quick smoke runs of the benchmark suite.
 * @param weighted When true, assign deterministic random weights in
 *        [1, 64] (needed by SSSP/SSWP); otherwise all weights are 1.
 */
Csr makeDataset(const DatasetSpec &spec, double scale = 1.0,
                bool weighted = true);

/**
 * The paper's Section 5 heuristic: pick the UDT degree bound from the
 * graph's maximum outdegree. Larger tails get larger K so that value
 * propagation stays fast (Table 3's Kudt column follows dmax/16 rounded
 * to a power of ten; we reproduce the same staircase).
 */
NodeId chooseUdtK(EdgeIndex max_degree);

} // namespace tigr::graph
