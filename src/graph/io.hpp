/**
 * @file
 * Graph persistence: SNAP-style text edge lists and a compact binary CSR
 * container. Both formats round-trip exactly.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "graph/coo.hpp"
#include "graph/csr.hpp"

namespace tigr::graph {

/** FNV-1a 64-bit offset basis: the seed of an unchained hash. */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * FNV-1a 64-bit hash of @p size bytes at @p data. Pass a previous
 * digest as @p seed to chain ranges (hashing ranges A then B chained
 * equals hashing their concatenation). This is the checksum the
 * versioned snapshot container (service/snapshot) protects its header
 * and payload with: cheap, streaming, and byte-order-stable on the
 * little-endian targets the binary formats assume.
 */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed = kFnv1aBasis);

/** A text edge list that does not parse, or whose body contradicts
 *  its `# nodes N edges M` header. */
class EdgeListError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse a text edge list: one "src dst [weight]" triple per line,
 * whitespace separated; lines starting with '#' or '%' are comments.
 * Missing weights default to 1. This accepts the SNAP dataset format the
 * paper's inputs ship in.
 *
 * The comment line `# nodes N edges M` is a header: the graph then has
 * exactly N nodes (so trailing isolated vertices survive a round trip)
 * and the body must hold exactly M edges with every endpoint below N.
 * Without a header the node count is one past the largest endpoint.
 *
 * @throws EdgeListError on a malformed line, a second header, or a body
 *         that contradicts the header.
 */
CooEdges loadEdgeList(std::istream &in);

/** Load a text edge list from @p path. @throws std::runtime_error. */
CooEdges loadEdgeListFile(const std::filesystem::path &path);

/** Write @p coo as a text edge list: the `# nodes N edges M` header,
 *  then "src dst weight" per line. */
void saveEdgeList(const CooEdges &coo, std::ostream &out);

/** Write @p coo as a text edge list to @p path. */
void saveEdgeListFile(const CooEdges &coo,
                      const std::filesystem::path &path);

/**
 * Serialize a CSR to the compact binary container (magic "TIGRCSR1",
 * little-endian arrays). Loading is O(read) with no rebuild.
 */
void saveCsrBinary(const Csr &graph, std::ostream &out);

/** Serialize @p graph to @p path in the binary container. */
void saveCsrBinaryFile(const Csr &graph,
                       const std::filesystem::path &path);

/** Load a binary CSR container. @throws std::runtime_error. */
Csr loadCsrBinary(std::istream &in);

/** Load a binary CSR container from @p path. */
Csr loadCsrBinaryFile(const std::filesystem::path &path);

/**
 * Parse a Matrix Market coordinate file (the format most public graph
 * collections, e.g. SuiteSparse, distribute):
 * `%%MatrixMarket matrix coordinate <field> <symmetry>` with field in
 * {pattern, integer, real} and symmetry in {general, symmetric}.
 * Entries are 1-based (row, col[, value]); symmetric files emit both
 * directions (off-diagonal). Pattern entries and non-positive values
 * load as weight 1; real values are rounded.
 *
 * @throws std::runtime_error on malformed headers or entries.
 */
CooEdges loadMatrixMarket(std::istream &in);

/** Load a Matrix Market file from @p path. */
CooEdges loadMatrixMarketFile(const std::filesystem::path &path);

} // namespace tigr::graph
