/**
 * @file
 * Snapshot container robustness: bit-exact round-trips for graphs with
 * and without virtual sections, and typed rejection of every corruption
 * mode — truncation, foreign magic, wrong version, flipped payload
 * bytes — with no undefined behavior on the way.
 */
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/mutation.hpp"
#include "fault/fault.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/graph_store.hpp"
#include "service/journal.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

namespace fs = std::filesystem;

class TempDir : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tigr_snapshot_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path path(const std::string &name) const { return dir_ / name; }

    fs::path dir_;
};

using SnapshotRoundTrip = TempDir;
using SnapshotRejection = TempDir;

graph::Csr
rmatGraph()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 30;
    options.weightSeed = 11;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 500, .edges = 5000, .seed = 11}));
}

graph::Csr
starGraph()
{
    graph::CooEdges coo(600);
    for (NodeId v = 1; v < 600; ++v)
        coo.add(0, v, v % 9 + 1);
    coo.add(5, 0, 3);
    return graph::Csr::fromCoo(coo);
}

/** Expect @p mutate to make loading @p file fail with @p kind, via
 *  both the stream and the mmap loaders. */
void
expectRejected(const fs::path &file, SnapshotErrorKind kind)
{
    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        try {
            (void)loadSnapshotFile(file, mode);
            FAIL() << "expected " << snapshotErrorKindName(kind)
                   << " rejection";
        } catch (const SnapshotError &e) {
            EXPECT_EQ(e.kind(), kind)
                << "mode " << static_cast<int>(mode) << ": "
                << e.what();
        }
    }
}

std::vector<char>
readAll(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const fs::path &file, const std::vector<char> &bytes)
{
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST_F(SnapshotRoundTrip, EmptyGraph)
{
    const auto file = path("empty.tgs");
    saveSnapshotFile(graph::Csr{}, file);
    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        Snapshot loaded = loadSnapshotFile(file, mode);
        EXPECT_EQ(loaded.graph, graph::Csr{});
        EXPECT_FALSE(loaded.hasVirtual);
    }
}

TEST_F(SnapshotRoundTrip, StarGraphBitIdentical)
{
    const graph::Csr g = starGraph();
    const auto file = path("star.tgs");
    saveSnapshotFile(g, file);
    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        Snapshot loaded = loadSnapshotFile(file, mode);
        EXPECT_EQ(loaded.graph, g);
    }
}

TEST_F(SnapshotRoundTrip, RmatWithVirtualSection)
{
    const graph::Csr g = rmatGraph();
    const transform::VirtualGraph vg(
        g, 8, transform::EdgeLayout::Coalesced);
    const auto file = path("rmat.tgs");
    saveSnapshotFile(vg, file);

    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        Snapshot loaded = loadSnapshotFile(file, mode);
        EXPECT_EQ(loaded.graph, g);
        ASSERT_TRUE(loaded.hasVirtual);
        EXPECT_EQ(loaded.virtualDegreeBound, 8u);
        EXPECT_EQ(loaded.virtualLayout,
                  transform::EdgeLayout::Coalesced);
        ASSERT_EQ(loaded.virtualNodes.size(),
                  vg.virtualNodes().size());
        for (std::size_t i = 0; i < loaded.virtualNodes.size(); ++i) {
            const auto &a = loaded.virtualNodes[i];
            const auto &b = vg.virtualNodes()[i];
            EXPECT_EQ(a.physicalId, b.physicalId);
            EXPECT_EQ(a.start, b.start);
            EXPECT_EQ(a.stride, b.stride);
            EXPECT_EQ(a.count, b.count);
        }
        // The persisted array rebinds into a working VirtualGraph.
        auto rebound = transform::VirtualGraph::fromArrays(
            loaded.graph, loaded.virtualDegreeBound,
            loaded.virtualLayout, loaded.virtualNodes);
        EXPECT_EQ(rebound.numVirtualNodes(), vg.numVirtualNodes());
    }
}

TEST_F(SnapshotRoundTrip, StreamRoundTripThroughMemory)
{
    const graph::Csr g = rmatGraph();
    Snapshot snapshot;
    snapshot.graph = g;
    std::ostringstream out(std::ios::binary);
    saveSnapshot(snapshot, out);
    const std::string bytes = out.str();

    std::istringstream in(bytes, std::ios::binary);
    EXPECT_EQ(loadSnapshot(in).graph, g);
    EXPECT_EQ(parseSnapshot(bytes.data(), bytes.size()).graph, g);
}

TEST_F(SnapshotRoundTrip, WriteIsDeterministic)
{
    const graph::Csr g = rmatGraph();
    const auto a = path("a.tgs");
    const auto b = path("b.tgs");
    saveSnapshotFile(g, a);
    saveSnapshotFile(g, b);
    EXPECT_EQ(readAll(a), readAll(b));
}

TEST_F(SnapshotRejection, TruncatedFile)
{
    const auto file = path("t.tgs");
    saveSnapshotFile(starGraph(), file);
    auto bytes = readAll(file);
    ASSERT_GT(bytes.size(), 100u);

    // Cut mid-payload and mid-header.
    for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                             std::size_t{100}, std::size_t{40}}) {
        std::vector<char> cut(bytes.begin(),
                              bytes.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        writeAll(file, cut);
        expectRejected(file, SnapshotErrorKind::Truncated);
    }
}

TEST_F(SnapshotRejection, BadMagic)
{
    const auto file = path("m.tgs");
    saveSnapshotFile(starGraph(), file);
    auto bytes = readAll(file);
    bytes[0] = 'X';
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::BadMagic);

    // A TIGRCSR1 binary graph is not a snapshot either.
    const auto csr = path("g.csr");
    graph::saveCsrBinaryFile(starGraph(), csr);
    expectRejected(csr, SnapshotErrorKind::BadMagic);
}

TEST_F(SnapshotRejection, WrongVersion)
{
    const auto file = path("v.tgs");
    saveSnapshotFile(starGraph(), file);
    auto bytes = readAll(file);
    bytes[8] = 99; // version field follows the 8-byte magic
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::BadVersion);
}

TEST_F(SnapshotRejection, CorruptedPayloadChecksum)
{
    const auto file = path("c.tgs");
    saveSnapshotFile(rmatGraph(), file);
    auto bytes = readAll(file);
    bytes[bytes.size() - 5] ^= 0x40; // flip one payload bit
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::ChecksumMismatch);
}

TEST_F(SnapshotRejection, CorruptedHeaderChecksum)
{
    const auto file = path("h.tgs");
    saveSnapshotFile(rmatGraph(), file);
    auto bytes = readAll(file);
    bytes[20] ^= 0x01; // flip a bit inside the node count
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::ChecksumMismatch);
}

TEST_F(SnapshotRejection, TrailingBytes)
{
    const auto file = path("x.tgs");
    saveSnapshotFile(starGraph(), file);
    auto bytes = readAll(file);
    bytes.push_back('z');
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::Inconsistent);
}

TEST_F(SnapshotRejection, MissingFileIsIoError)
{
    try {
        (void)loadSnapshotFile(path("nope.tgs"));
        FAIL() << "expected io error";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::Io);
    }
}

TEST(SnapshotWriter, RejectsInconsistentVirtualArray)
{
    const graph::Csr g = graph::Csr::fromCoo([] {
        graph::CooEdges coo(4);
        coo.add(0, 1, 1);
        coo.add(1, 2, 1);
        return coo;
    }());
    Snapshot snapshot;
    snapshot.graph = g;
    snapshot.hasVirtual = true;
    snapshot.virtualDegreeBound = 4;
    snapshot.virtualNodes = {
        transform::VirtualNode{99, 0, 1, 1}}; // bad physical id
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(saveSnapshot(snapshot, out), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Crash-consistent writes, directory audit, and hostile-byte hardening.

using SnapshotDurability = TempDir;
using SnapshotAudit = TempDir;
using SnapshotHostileBytes = TempDir;

/** A tiny graph whose node 0 splits into exactly two virtual nodes at
 *  degree bound 2 — small enough to patch by hand. */
graph::Csr
splitGraph()
{
    graph::CooEdges coo(5);
    for (NodeId v = 1; v < 5; ++v)
        coo.add(0, v, 1);
    return graph::Csr::fromCoo(coo);
}

/** Recompute both checksums after a deliberate payload patch, so the
 *  file is "what a sane-looking writer wrote" and only the structural
 *  validators can reject it. Offsets mirror the TIGRSNP2 header; the
 *  payload checksum is the v4 CRC-32C, zero-extended. */
void
rewriteChecksums(std::vector<char> &bytes)
{
    constexpr std::size_t kHeaderBytes = 88;
    constexpr std::size_t kPayloadChecksumAt = 72;
    constexpr std::size_t kHeaderChecksumAt = 80;
    ASSERT_GE(bytes.size(), kHeaderBytes);
    const std::uint64_t payload = crc32c(
        bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
    std::memcpy(bytes.data() + kPayloadChecksumAt, &payload,
                sizeof(payload));
    const std::uint64_t header =
        graph::fnv1a64(bytes.data(), kHeaderChecksumAt);
    std::memcpy(bytes.data() + kHeaderChecksumAt, &header,
                sizeof(header));
}

/** Byte offset of the virtual-node `starts` array in a splitGraph()
 *  snapshot: header, row offsets, columns, weights, physical ids. */
std::size_t
splitGraphStartsOffset(std::size_t num_virtual)
{
    return 88 + 6 * sizeof(EdgeIndex) + 4 * sizeof(NodeId) +
           4 * sizeof(Weight) + num_virtual * sizeof(NodeId);
}

TEST_F(SnapshotDurability, NoTempFileSurvivesASuccessfulWrite)
{
    const auto file = path("g.tgs");
    saveSnapshotFile(starGraph(), file);
    EXPECT_TRUE(fs::exists(file));
    EXPECT_FALSE(fs::exists(path("g.tgs.tmp")));

    // Overwriting an existing snapshot goes through the same rename.
    const graph::Csr replacement = rmatGraph();
    saveSnapshotFile(replacement, file);
    EXPECT_FALSE(fs::exists(path("g.tgs.tmp")));
    EXPECT_EQ(loadSnapshotFile(file).graph, replacement);
}

TEST_F(SnapshotDurability, FailedWriteLeavesNoTempFile)
{
    Snapshot bad;
    bad.graph = splitGraph();
    bad.hasVirtual = true;
    bad.virtualDegreeBound = 2;
    bad.virtualNodes = {transform::VirtualNode{99, 0, 1, 2}};
    const auto file = path("bad.tgs");
    EXPECT_THROW(saveSnapshotFile(bad, file), std::invalid_argument);
    EXPECT_FALSE(fs::exists(file));
    EXPECT_FALSE(fs::exists(path("bad.tgs.tmp")));
}

TEST_F(SnapshotAudit, QuarantinesPartialAndCorruptFiles)
{
    saveSnapshotFile(starGraph(), path("good.tgs"));

    // A corrupt snapshot (as after a torn in-place write).
    saveSnapshotFile(rmatGraph(), path("torn.tgs"));
    auto bytes = readAll(path("torn.tgs"));
    bytes[bytes.size() - 9] ^= 0x10;
    writeAll(path("torn.tgs"), bytes);

    // A leftover temp file (as after a crash mid-save).
    writeAll(path("crash.tgs.tmp"), {'p', 'a', 'r', 't'});

    // An unrelated file the audit must leave alone.
    writeAll(path("notes.txt"), {'h', 'i'});

    const SnapshotAuditReport report = auditSnapshotDirectory(dir_);
    ASSERT_EQ(report.intact.size(), 1u);
    EXPECT_EQ(report.intact[0], path("good.tgs"));
    ASSERT_EQ(report.quarantined.size(), 2u);

    EXPECT_FALSE(fs::exists(path("torn.tgs")));
    EXPECT_TRUE(fs::exists(path("torn.tgs.quarantined")));
    EXPECT_FALSE(fs::exists(path("crash.tgs.tmp")));
    EXPECT_TRUE(fs::exists(path("crash.tgs.tmp.quarantined")));
    EXPECT_TRUE(fs::exists(path("notes.txt")));

    // A second audit finds a clean directory.
    const SnapshotAuditReport again = auditSnapshotDirectory(dir_);
    EXPECT_EQ(again.intact.size(), 1u);
    EXPECT_TRUE(again.quarantined.empty());
}

TEST_F(SnapshotAudit, GraphStoreRegistersOnlyIntactSnapshots)
{
    saveSnapshotFile(starGraph(), path("star.tgs"));
    saveSnapshotFile(rmatGraph(), path("rmat.tgs"));
    auto bytes = readAll(path("rmat.tgs"));
    bytes[90] ^= 0x02;
    writeAll(path("rmat.tgs"), bytes);

    GraphStore store;
    const SnapshotAuditReport report = store.addSnapshotDirectory(dir_);
    EXPECT_EQ(report.intact.size(), 1u);
    EXPECT_EQ(report.quarantined.size(), 1u);
    ASSERT_NE(store.find("star"), nullptr);
    EXPECT_EQ(store.find("star")->graph, starGraph());
    EXPECT_EQ(store.find("rmat"), nullptr);
}

TEST(MutationLogPath, SidecarPathEdgeCases)
{
    EXPECT_EQ(mutationLogPathFor("dir/g.tgs"), fs::path("dir/g.tml"));
    // Extensionless names get the extension appended, not substituted.
    EXPECT_EQ(mutationLogPathFor("g"), fs::path("g.tml"));
    // A dotfile counts as extensionless: ".hidden" is a stem, not an
    // extension, so the sidecar is ".hidden.tml" — never ".tml".
    EXPECT_EQ(mutationLogPathFor(".hidden"), fs::path(".hidden.tml"));
    // Multi-dot names replace only the final extension.
    EXPECT_EQ(mutationLogPathFor("a.b.tgs"), fs::path("a.b.tml"));
    // A trailing separator names a directory — there is no snapshot to
    // derive a sidecar from.
    EXPECT_THROW(mutationLogPathFor("dir/"), std::invalid_argument);
    EXPECT_THROW(mutationLogPathFor(""), std::invalid_argument);
}

TEST_F(SnapshotAudit, SidecarsShareTheirSnapshotsVerdict)
{
    // A valid mutation log beside an intact snapshot is admitted; the
    // same bytes under a stem with no intact snapshot are an orphan.
    saveSnapshotFile(starGraph(), path("star.tgs"));
    dynamic::MutationLog log;
    log.append({{dynamic::MutationKind::InsertEdge, 1, 2, 3}});
    {
        std::ofstream out(path("star.tml"));
        log.save(out);
    }
    {
        std::ofstream out(path("ghost.tml"));
        log.save(out);
    }
    // A journal beside an intact snapshot with a healthy header is
    // admitted even though it is empty of records.
    JournalWriter::create(path("star.twj"), 0, SyncPolicy::Unsynced);

    const SnapshotAuditReport report = auditSnapshotDirectory(dir_);
    ASSERT_EQ(report.intact.size(), 1u);
    ASSERT_EQ(report.mutationLogs.size(), 1u);
    EXPECT_EQ(report.mutationLogs[0], path("star.tml"));
    ASSERT_EQ(report.journals.size(), 1u);
    EXPECT_EQ(report.journals[0], path("star.twj"));
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_TRUE(fs::exists(path("ghost.tml.quarantined")));
    EXPECT_TRUE(fs::exists(path("star.tml")));
}

TEST_F(SnapshotRejection, EverySingleBitFlipIsCaught)
{
    const graph::Csr g = rmatGraph();
    const transform::VirtualGraph vg(
        g, 8, transform::EdgeLayout::Coalesced);
    const auto file = path("flip.tgs");
    saveSnapshotFile(vg, file);
    const std::vector<char> pristine = readAll(file);

    // Every header byte, plus a stride through the payload.
    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < 88; ++i)
        offsets.push_back(i);
    for (std::size_t i = 88; i < pristine.size(); i += 97)
        offsets.push_back(i);

    for (std::size_t offset : offsets) {
        SCOPED_TRACE("bit flip at byte " + std::to_string(offset));
        std::vector<char> bytes = pristine;
        bytes[offset] ^= 0x08;
        writeAll(file, bytes);
        for (auto mode :
             {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
            EXPECT_THROW((void)loadSnapshotFile(file, mode),
                         SnapshotError);
        }
    }

    writeAll(file, pristine);
    EXPECT_EQ(loadSnapshotFile(file).graph, g);
}

TEST_F(SnapshotHostileBytes, OverlappingVirtualSlotsAreRejected)
{
    const graph::Csr g = splitGraph();
    const transform::VirtualGraph vg(
        g, 2, transform::EdgeLayout::Consecutive);
    // One virtual node per low-degree physical node plus the split of
    // node 0 into two.
    ASSERT_EQ(vg.numVirtualNodes(), 6u);
    ASSERT_EQ(vg.virtualNodes()[1].physicalId, 0u);
    const auto file = path("overlap.tgs");
    saveSnapshotFile(vg, file);
    auto bytes = readAll(file);

    // Point the second virtual node's start at the first one's slots.
    const std::size_t starts = splitGraphStartsOffset(6);
    const EdgeIndex zero = 0;
    std::memcpy(bytes.data() + starts + sizeof(EdgeIndex), &zero,
                sizeof(zero));
    rewriteChecksums(bytes);
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::Inconsistent);
}

TEST_F(SnapshotHostileBytes, WrappingStrideIsRejected)
{
    const graph::Csr g = splitGraph();
    const transform::VirtualGraph vg(
        g, 2, transform::EdgeLayout::Consecutive);
    const auto file = path("stride.tgs");
    saveSnapshotFile(vg, file);
    auto bytes = readAll(file);

    // A stride that wraps start + stride * (count - 1) back inside the
    // segment must not pass containment via uint64 overflow.
    const std::size_t strides =
        splitGraphStartsOffset(6) + 6 * sizeof(EdgeIndex);
    const EdgeIndex huge = std::numeric_limits<EdgeIndex>::max();
    std::memcpy(bytes.data() + strides + sizeof(EdgeIndex), &huge,
                sizeof(huge));
    rewriteChecksums(bytes);
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::Inconsistent);
}

TEST_F(SnapshotHostileBytes, FromArraysRejectsWrappingStride)
{
    const graph::Csr g = splitGraph();
    const transform::VirtualGraph vg(
        g, 2, transform::EdgeLayout::Consecutive);
    std::vector<transform::VirtualNode> nodes(
        vg.virtualNodes().begin(), vg.virtualNodes().end());
    ASSERT_EQ(nodes.size(), 6u);
    ASSERT_EQ(nodes[1].physicalId, 0u);
    ASSERT_EQ(nodes[1].count, 2u);
    nodes[1].stride = std::numeric_limits<EdgeIndex>::max();
    EXPECT_THROW((void)transform::VirtualGraph::fromArrays(
                     g, 2, transform::EdgeLayout::Consecutive, nodes),
                 std::invalid_argument);
}

TEST_F(SnapshotRejection, InjectedReadFaultsSurfaceAsIoErrors)
{
    const auto file = path("fault.tgs");
    saveSnapshotFile(starGraph(), file);

    fault::FaultPlan plan(31);
    plan.site(fault::Site::SnapshotRead, 1.0);
    plan.site(fault::Site::SnapshotMmap, 1.0);
    {
        fault::FaultScope scope(plan, /*scope=*/1);
        for (auto mode :
             {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
            try {
                (void)loadSnapshotFile(file, mode);
                FAIL() << "expected an injected io error";
            } catch (const SnapshotError &e) {
                EXPECT_EQ(e.kind(), SnapshotErrorKind::Io);
                EXPECT_NE(std::string(e.what()).find("injected"),
                          std::string::npos);
            }
        }
    }
    // Disarmed again: the same file loads cleanly.
    EXPECT_EQ(loadSnapshotFile(file).graph, starGraph());
}

// ---------------------------------------------------------------------
// Legacy-format compatibility: v2 snapshots (80-byte header, no epoch
// field) predate the dynamic subsystem and must keep loading, with
// epoch defaulting to 0.

using SnapshotLegacy = TempDir;

/** Serialize @p snapshot in the legacy v2 container format, exactly as
 *  a pre-epoch build's saveSnapshot() wrote it. */
std::vector<char>
legacyV2Bytes(const Snapshot &snapshot)
{
    struct V2Header
    {
        char magic[8];
        std::uint32_t version;
        std::uint32_t flags;
        std::uint64_t numNodes;
        std::uint64_t numEdges;
        std::uint64_t numVirtualNodes;
        std::uint32_t virtualDegreeBound;
        std::uint32_t virtualLayout;
        std::uint64_t payloadOffset;
        std::uint64_t payloadBytes;
        std::uint64_t payloadChecksum;
        std::uint64_t headerChecksum;
    };
    static_assert(sizeof(V2Header) == 80);

    const graph::Csr &g = snapshot.graph;
    const std::size_t nv =
        snapshot.hasVirtual ? snapshot.virtualNodes.size() : 0;
    std::vector<NodeId> phys(nv);
    std::vector<EdgeIndex> starts(nv);
    std::vector<EdgeIndex> strides(nv);
    std::vector<std::uint32_t> counts(nv);
    for (std::size_t i = 0; i < nv; ++i) {
        phys[i] = snapshot.virtualNodes[i].physicalId;
        starts[i] = snapshot.virtualNodes[i].start;
        strides[i] = snapshot.virtualNodes[i].stride;
        counts[i] = snapshot.virtualNodes[i].count;
    }

    V2Header h{};
    std::memcpy(h.magic, "TIGRSNP2", 8);
    h.version = 2;
    h.flags = snapshot.hasVirtual ? 1u : 0u;
    h.numNodes = g.numNodes();
    h.numEdges = g.numEdges();
    h.numVirtualNodes = nv;
    h.virtualDegreeBound = snapshot.virtualDegreeBound;
    h.virtualLayout =
        snapshot.virtualLayout == transform::EdgeLayout::Coalesced ? 1
                                                                   : 0;
    h.payloadOffset = sizeof(V2Header);
    h.payloadBytes = (h.numNodes + 1) * sizeof(EdgeIndex) +
                     h.numEdges * (sizeof(NodeId) + sizeof(Weight)) +
                     nv * (sizeof(NodeId) + 2 * sizeof(EdgeIndex) +
                           sizeof(std::uint32_t));

    auto hash = [](std::uint64_t seed, const auto &vec) {
        using T = typename std::decay_t<decltype(vec)>::value_type;
        return graph::fnv1a64(vec.data(), vec.size() * sizeof(T), seed);
    };
    std::uint64_t checksum = graph::kFnv1aBasis;
    checksum = hash(checksum, g.rowOffsets());
    checksum = hash(checksum, g.colIndices());
    checksum = hash(checksum, g.weights());
    if (snapshot.hasVirtual) {
        checksum = hash(checksum, phys);
        checksum = hash(checksum, starts);
        checksum = hash(checksum, strides);
        checksum = hash(checksum, counts);
    }
    h.payloadChecksum = checksum;
    h.headerChecksum =
        graph::fnv1a64(&h, sizeof(V2Header) - sizeof(std::uint64_t));

    std::vector<char> bytes;
    auto append = [&](const void *data, std::size_t n) {
        const char *p = static_cast<const char *>(data);
        bytes.insert(bytes.end(), p, p + n);
    };
    auto appendVec = [&](const auto &vec) {
        using T = typename std::decay_t<decltype(vec)>::value_type;
        append(vec.data(), vec.size() * sizeof(T));
    };
    append(&h, sizeof(V2Header));
    appendVec(g.rowOffsets());
    appendVec(g.colIndices());
    appendVec(g.weights());
    if (snapshot.hasVirtual) {
        appendVec(phys);
        appendVec(starts);
        appendVec(strides);
        appendVec(counts);
    }
    return bytes;
}

TEST_F(SnapshotLegacy, V2BytesLoadWithEpochZero)
{
    const graph::Csr g = rmatGraph();
    const transform::VirtualGraph vg(
        g, 8, transform::EdgeLayout::Coalesced);
    Snapshot snapshot;
    snapshot.graph = g;
    snapshot.hasVirtual = true;
    snapshot.virtualDegreeBound = 8;
    snapshot.virtualLayout = transform::EdgeLayout::Coalesced;
    snapshot.virtualNodes.assign(vg.virtualNodes().begin(),
                                 vg.virtualNodes().end());
    const std::vector<char> bytes = legacyV2Bytes(snapshot);

    const auto file = path("legacy.tgs");
    writeAll(file, bytes);
    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        Snapshot loaded = loadSnapshotFile(file, mode);
        EXPECT_EQ(loaded.graph, g);
        EXPECT_EQ(loaded.epoch, 0u);
        ASSERT_TRUE(loaded.hasVirtual);
        ASSERT_EQ(loaded.virtualNodes.size(), vg.virtualNodes().size());
        for (std::size_t i = 0; i < loaded.virtualNodes.size(); ++i)
            EXPECT_TRUE(loaded.virtualNodes[i] == vg.virtualNodes()[i]);
    }
}

TEST_F(SnapshotLegacy, V2CorruptionIsStillRejected)
{
    Snapshot snapshot;
    snapshot.graph = starGraph();
    std::vector<char> bytes = legacyV2Bytes(snapshot);

    auto flipped = bytes;
    flipped[20] ^= 0x01; // node count: header checksum must catch it
    const auto file = path("l.tgs");
    writeAll(file, flipped);
    expectRejected(file, SnapshotErrorKind::ChecksumMismatch);

    flipped = bytes;
    flipped[flipped.size() - 5] ^= 0x40; // payload bit
    writeAll(file, flipped);
    expectRejected(file, SnapshotErrorKind::ChecksumMismatch);

    bytes.resize(70); // mid-header cut
    writeAll(file, bytes);
    expectRejected(file, SnapshotErrorKind::Truncated);
}

TEST(SnapshotLegacyFixture, CheckedInV2FileLoads)
{
    // tests/graph/fixtures/legacy_v2.tgs holds splitGraph() plus its
    // K=2 consecutive virtual array, serialized by a pre-epoch build.
    const fs::path file =
        fs::path(TIGR_SNAPSHOT_FIXTURE_DIR) / "legacy_v2.tgs";
    ASSERT_TRUE(fs::exists(file)) << file;
    const graph::Csr expect = splitGraph();
    const transform::VirtualGraph vg(
        expect, 2, transform::EdgeLayout::Consecutive);
    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        Snapshot loaded = loadSnapshotFile(file, mode);
        EXPECT_EQ(loaded.graph, expect);
        EXPECT_EQ(loaded.epoch, 0u);
        ASSERT_TRUE(loaded.hasVirtual);
        EXPECT_EQ(loaded.virtualDegreeBound, 2u);
        EXPECT_EQ(loaded.virtualLayout,
                  transform::EdgeLayout::Consecutive);
        ASSERT_EQ(loaded.virtualNodes.size(),
                  static_cast<std::size_t>(vg.numVirtualNodes()));
        for (std::size_t i = 0; i < loaded.virtualNodes.size(); ++i)
            EXPECT_TRUE(loaded.virtualNodes[i] == vg.virtualNodes()[i]);
    }
}

TEST_F(SnapshotLegacy, EpochRoundTripsThroughV3)
{
    Snapshot snapshot;
    snapshot.graph = starGraph();
    snapshot.epoch = 42;
    const auto file = path("epoch.tgs");
    saveSnapshotFile(snapshot, file);
    for (auto mode :
         {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap})
        EXPECT_EQ(loadSnapshotFile(file, mode).epoch, 42u);
}

TEST(SnapshotChecksum, Fnv1a64KnownVectorsAndChaining)
{
    // Published FNV-1a 64 test vectors.
    EXPECT_EQ(graph::fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(graph::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(graph::fnv1a64("foobar", 6), 0x85944171f73967e8ull);
    // Chaining ranges equals hashing the concatenation.
    const std::uint64_t part = graph::fnv1a64("foo", 3);
    EXPECT_EQ(graph::fnv1a64("bar", 3, part),
              graph::fnv1a64("foobar", 6));
}

} // namespace
} // namespace tigr::service
