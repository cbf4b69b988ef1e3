#include "graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tigr::graph {

namespace {

constexpr char kMagic[8] = {'T', 'I', 'G', 'R', 'C', 'S', 'R', '1'};

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    if (!in)
        throw std::runtime_error("tigr: truncated binary graph stream");
    return value;
}

template <typename T>
void
writeVec(std::ostream &out, const std::vector<T> &vec)
{
    writePod<std::uint64_t>(out, vec.size());
    out.write(reinterpret_cast<const char *>(vec.data()),
              static_cast<std::streamsize>(vec.size() * sizeof(T)));
}

template <typename T>
std::vector<T>
readVec(std::istream &in)
{
    auto count = readPod<std::uint64_t>(in);
    std::vector<T> vec(count);
    in.read(reinterpret_cast<char *>(vec.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
    if (!in)
        throw std::runtime_error("tigr: truncated binary graph stream");
    return vec;
}

std::ifstream
openInput(const std::filesystem::path &path, std::ios::openmode mode)
{
    std::ifstream in(path, mode);
    if (!in)
        throw std::runtime_error("tigr: cannot open " + path.string());
    return in;
}

std::ofstream
openOutput(const std::filesystem::path &path, std::ios::openmode mode)
{
    std::ofstream out(path, mode);
    if (!out)
        throw std::runtime_error("tigr: cannot open " + path.string());
    return out;
}

/** Parse @p line as the `# nodes N edges M` header; false for any
 *  other comment. */
bool
parseEdgeListHeader(const std::string &line, std::uint64_t &nodes,
                    std::uint64_t &edges)
{
    std::istringstream fields(line.substr(1));
    std::string nodes_key;
    std::string edges_key;
    std::string extra;
    return fields >> nodes_key >> nodes >> edges_key >> edges &&
           nodes_key == "nodes" && edges_key == "edges" &&
           !(fields >> extra);
}

} // namespace

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull; // FNV-1a 64 prime
    }
    return hash;
}

CooEdges
loadEdgeList(std::istream &in)
{
    CooEdges coo;
    std::string line;
    std::size_t line_no = 0;
    bool has_header = false;
    std::uint64_t header_nodes = 0;
    std::uint64_t header_edges = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '%')
            continue;
        if (line[0] == '#') {
            std::uint64_t nodes = 0;
            std::uint64_t edges = 0;
            if (!parseEdgeListHeader(line, nodes, edges))
                continue;
            if (has_header) {
                throw EdgeListError("tigr: second edge list header on line " +
                                    std::to_string(line_no));
            }
            if (nodes > std::numeric_limits<NodeId>::max()) {
                throw EdgeListError("tigr: edge list header on line " +
                                    std::to_string(line_no) +
                                    " declares too many nodes");
            }
            has_header = true;
            header_nodes = nodes;
            header_edges = edges;
            continue;
        }
        std::istringstream fields(line);
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        std::uint64_t weight = 1;
        if (!(fields >> src >> dst)) {
            throw EdgeListError(
                "tigr: malformed edge list line " + std::to_string(line_no));
        }
        fields >> weight; // optional third column
        coo.add(static_cast<NodeId>(src), static_cast<NodeId>(dst),
                static_cast<Weight>(weight));
    }
    if (has_header) {
        if (coo.numNodes() > header_nodes) {
            throw EdgeListError("tigr: edge list endpoint " +
                                std::to_string(coo.numNodes() - 1) +
                                " is outside the header's " +
                                std::to_string(header_nodes) + " nodes");
        }
        if (coo.numEdges() != header_edges) {
            throw EdgeListError("tigr: edge list holds " +
                                std::to_string(coo.numEdges()) +
                                " edges, header declares " +
                                std::to_string(header_edges));
        }
        coo.ensureNodes(static_cast<NodeId>(header_nodes));
    }
    return coo;
}

CooEdges
loadEdgeListFile(const std::filesystem::path &path)
{
    auto in = openInput(path, std::ios::in);
    return loadEdgeList(in);
}

void
saveEdgeList(const CooEdges &coo, std::ostream &out)
{
    out << "# nodes " << coo.numNodes() << " edges " << coo.numEdges()
        << '\n';
    for (const Edge &e : coo.edges())
        out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
}

void
saveEdgeListFile(const CooEdges &coo, const std::filesystem::path &path)
{
    auto out = openOutput(path, std::ios::out);
    saveEdgeList(coo, out);
}

CooEdges
loadMatrixMarket(std::istream &in)
{
    std::string header;
    if (!std::getline(in, header))
        throw std::runtime_error("tigr: empty MatrixMarket stream");

    std::istringstream head(header);
    std::string banner, object, format, field, symmetry;
    head >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket" || object != "matrix" ||
        format != "coordinate") {
        throw std::runtime_error(
            "tigr: not a MatrixMarket coordinate header");
    }
    const bool has_value = field == "integer" || field == "real";
    if (!has_value && field != "pattern")
        throw std::runtime_error("tigr: unsupported MatrixMarket field "
                                 + field);
    const bool symmetric = symmetry == "symmetric";
    if (!symmetric && symmetry != "general")
        throw std::runtime_error(
            "tigr: unsupported MatrixMarket symmetry " + symmetry);

    // Skip comments, read the size line.
    std::string line;
    std::uint64_t rows = 0, cols = 0, nnz = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '%')
            continue;
        std::istringstream sizes(line);
        if (!(sizes >> rows >> cols >> nnz))
            throw std::runtime_error("tigr: bad MatrixMarket size line");
        break;
    }
    if (rows == 0 && cols == 0)
        throw std::runtime_error("tigr: missing MatrixMarket size line");

    CooEdges coo(static_cast<NodeId>(std::max(rows, cols)));
    coo.reserve(symmetric ? 2 * nnz : nnz);
    std::uint64_t seen = 0;
    while (seen < nnz && std::getline(in, line)) {
        if (line.empty() || line[0] == '%')
            continue;
        std::istringstream fields(line);
        std::uint64_t row = 0, col = 0;
        double value = 1.0;
        if (!(fields >> row >> col))
            throw std::runtime_error("tigr: bad MatrixMarket entry");
        if (has_value)
            fields >> value;
        if (row == 0 || col == 0 || row > rows || col > cols)
            throw std::runtime_error(
                "tigr: MatrixMarket entry out of range");
        Weight weight =
            value >= 1.0
                ? static_cast<Weight>(value + 0.5)
                : 1; // pattern / non-positive values load as 1
        NodeId src = static_cast<NodeId>(row - 1);
        NodeId dst = static_cast<NodeId>(col - 1);
        coo.add(src, dst, weight);
        if (symmetric && src != dst)
            coo.add(dst, src, weight);
        ++seen;
    }
    if (seen != nnz)
        throw std::runtime_error("tigr: truncated MatrixMarket stream");
    return coo;
}

CooEdges
loadMatrixMarketFile(const std::filesystem::path &path)
{
    auto in = openInput(path, std::ios::in);
    return loadMatrixMarket(in);
}

void
saveCsrBinary(const Csr &graph, std::ostream &out)
{
    out.write(kMagic, sizeof(kMagic));
    writeVec(out, graph.rowOffsets());
    writeVec(out, graph.colIndices());
    writeVec(out, graph.weights());
}

void
saveCsrBinaryFile(const Csr &graph, const std::filesystem::path &path)
{
    auto out = openOutput(path, std::ios::binary);
    saveCsrBinary(graph, out);
}

Csr
loadCsrBinary(std::istream &in)
{
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    if (!in || !std::equal(magic, magic + 8, kMagic))
        throw std::runtime_error("tigr: not a TIGRCSR1 stream");
    auto offsets = readVec<EdgeIndex>(in);
    auto cols = readVec<NodeId>(in);
    auto weights = readVec<Weight>(in);
    if (offsets.empty() || offsets.front() != 0 ||
        offsets.back() != cols.size() || cols.size() != weights.size()) {
        throw std::runtime_error("tigr: inconsistent TIGRCSR1 arrays");
    }
    return Csr(std::move(offsets), std::move(cols), std::move(weights));
}

Csr
loadCsrBinaryFile(const std::filesystem::path &path)
{
    auto in = openInput(path, std::ios::binary);
    return loadCsrBinary(in);
}

} // namespace tigr::graph
