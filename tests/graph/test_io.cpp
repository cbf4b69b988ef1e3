/**
 * @file
 * Tests for graph IO: text edge lists (SNAP style) and the binary CSR
 * container, including malformed-input handling.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace tigr::graph {
namespace {

TEST(IoText, ParsesSnapStyleEdgeList)
{
    std::istringstream in(
        "# comment line\n"
        "% another comment\n"
        "0 1\n"
        "1 2 7\n"
        "\n"
        "2 0 3\n");
    CooEdges coo = loadEdgeList(in);
    ASSERT_EQ(coo.numEdges(), 3u);
    EXPECT_EQ(coo.edges()[0], (Edge{0, 1, 1}));
    EXPECT_EQ(coo.edges()[1], (Edge{1, 2, 7}));
    EXPECT_EQ(coo.edges()[2], (Edge{2, 0, 3}));
    EXPECT_EQ(coo.numNodes(), 3u);
}

TEST(IoText, ThrowsOnMalformedLine)
{
    std::istringstream in("0 1\nnot an edge\n");
    EXPECT_THROW(loadEdgeList(in), std::runtime_error);
}

TEST(IoText, RoundTrip)
{
    CooEdges original = erdosRenyi(50, 200, 13);
    std::stringstream buffer;
    saveEdgeList(original, buffer);
    CooEdges loaded = loadEdgeList(buffer);
    EXPECT_EQ(original.edges(), loaded.edges());
}

TEST(IoText, RoundTripKeepsTrailingIsolatedVertices)
{
    // Nodes 5..9 have no edges; only the header can carry them.
    CooEdges original(10);
    original.add(0, 1, 3);
    original.add(4, 2, 1);
    std::stringstream buffer;
    saveEdgeList(original, buffer);
    EXPECT_EQ(buffer.str().rfind("# nodes 10 edges 2\n", 0), 0u);
    CooEdges loaded = loadEdgeList(buffer);
    EXPECT_EQ(loaded.numNodes(), 10u);
    EXPECT_EQ(loaded.edges(), original.edges());
    EXPECT_EQ(Csr::fromCoo(loaded), Csr::fromCoo(original));
}

TEST(IoText, HeaderlessListKeepsLargestEndpointRule)
{
    std::istringstream in("# Nodes: 10 Edges: 1\n0 3\n");
    CooEdges coo = loadEdgeList(in);
    EXPECT_EQ(coo.numNodes(), 4u);
    EXPECT_EQ(coo.numEdges(), 1u);
}

TEST(IoText, HeaderContradictionsThrowTypedError)
{
    const char *bodies[] = {
        "# nodes 3 edges 1\n0 3\n",                  // endpoint >= N
        "# nodes 5 edges 2\n0 1\n",                  // too few edges
        "# nodes 5 edges 1\n0 1\n1 2\n",            // too many edges
        "# nodes 5 edges 1\n# nodes 5 edges 1\n0 1\n", // two headers
        "# nodes 4294967296 edges 0\n",              // N beyond NodeId
    };
    for (const char *body : bodies) {
        std::istringstream in(body);
        EXPECT_THROW(loadEdgeList(in), EdgeListError) << body;
    }
}

TEST(IoText, HeaderAnywhereAmongCommentsIsHonored)
{
    std::istringstream in("0 1\n# nodes 7 edges 2\n1 2 5\n");
    CooEdges coo = loadEdgeList(in);
    EXPECT_EQ(coo.numNodes(), 7u);
    EXPECT_EQ(coo.numEdges(), 2u);
}

TEST(IoBinary, RoundTripExact)
{
    Csr g = GraphBuilder().build(
        rmat({.nodes = 200, .edges = 3000, .seed = 4}));
    std::stringstream buffer;
    saveCsrBinary(g, buffer);
    Csr h = loadCsrBinary(buffer);
    EXPECT_EQ(g, h);
}

TEST(IoBinary, RejectsBadMagic)
{
    std::stringstream buffer;
    buffer << "NOTAGRPH" << std::string(64, '\0');
    EXPECT_THROW(loadCsrBinary(buffer), std::runtime_error);
}

TEST(IoBinary, RejectsTruncatedStream)
{
    Csr g = GraphBuilder().build(erdosRenyi(40, 100, 2));
    std::stringstream buffer;
    saveCsrBinary(g, buffer);
    std::string bytes = buffer.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(loadCsrBinary(truncated), std::runtime_error);
}

TEST(IoBinary, FileRoundTrip)
{
    Csr g = GraphBuilder().build(erdosRenyi(64, 256, 8));
    auto dir = std::filesystem::temp_directory_path();
    auto file = dir / "tigr_io_test.csr";
    saveCsrBinaryFile(g, file);
    Csr h = loadCsrBinaryFile(file);
    std::filesystem::remove(file);
    EXPECT_EQ(g, h);
}

TEST(IoBinary, MissingFileThrows)
{
    EXPECT_THROW(loadCsrBinaryFile("/nonexistent/tigr.csr"),
                 std::runtime_error);
}

} // namespace
} // namespace tigr::graph
