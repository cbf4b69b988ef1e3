/**
 * @file
 * Format v4 changed only the payload checksum (CRC-32C in place of
 * FNV-1a 64), so v3 files must keep loading. tests/graph/fixtures/
 * legacy_v3.tgs was written by the last v3 writer: legacyV3Graph()
 * below, its K=4 coalesced virtual array, and epoch 9. It must load
 * bit-exactly through both loaders, and a flip of any single bit in it
 * must be rejected.
 */
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

namespace fs = std::filesystem;

/** The fixture's graph: node 0 splits at K=4, a self loop, and
 *  zero-degree nodes. */
graph::Csr
legacyV3Graph()
{
    graph::CooEdges coo(7);
    for (NodeId v = 1; v < 7; ++v)
        coo.add(0, v, 3 * v);
    coo.add(2, 0, 5);
    coo.add(2, 3, 7);
    coo.add(4, 6, 11);
    coo.add(6, 6, 2);
    return graph::Csr::fromCoo(coo);
}

fs::path
fixturePath()
{
    return fs::path(TIGR_SNAPSHOT_FIXTURE_DIR) / "legacy_v3.tgs";
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
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotLegacyV3, CheckedInFileLoadsBitExactly)
{
    const std::vector<char> bytes = readAll(fixturePath());
    ASSERT_GE(bytes.size(), 88u) << fixturePath();
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 8, sizeof(version));
    ASSERT_EQ(version, 3u);

    const graph::Csr expect = legacyV3Graph();
    const transform::VirtualGraph vg(expect, 4,
                                     transform::EdgeLayout::Coalesced);
    for (auto mode : {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
        SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
        const Snapshot loaded = loadSnapshotFile(fixturePath(), mode);
        EXPECT_EQ(loaded.graph, expect);
        EXPECT_EQ(loaded.epoch, 9u);
        ASSERT_TRUE(loaded.hasVirtual);
        EXPECT_EQ(loaded.virtualDegreeBound, 4u);
        EXPECT_EQ(loaded.virtualLayout, transform::EdgeLayout::Coalesced);
        ASSERT_EQ(loaded.virtualNodes.size(), vg.virtualNodes().size());
        for (std::size_t i = 0; i < loaded.virtualNodes.size(); ++i)
            EXPECT_TRUE(loaded.virtualNodes[i] == vg.virtualNodes()[i])
                << "entry " << i;
    }

    // Re-saving writes v4: the same arrays under the new checksum.
    Snapshot resaved = loadSnapshotFile(fixturePath());
    const fs::path file =
        fs::temp_directory_path() /
        ("tigr_legacy_v3_resave_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         ".tgs");
    saveSnapshotFile(resaved, file);
    const std::vector<char> v4 = readAll(file);
    fs::remove(file);
    ASSERT_EQ(v4.size(), bytes.size());
    std::memcpy(&version, v4.data() + 8, sizeof(version));
    EXPECT_EQ(version, 4u);
    // Only the version, the payload checksum and the header checksum
    // differ; the payload bytes are identical.
    EXPECT_TRUE(std::equal(v4.begin() + 88, v4.end(), bytes.begin() + 88));
    EXPECT_TRUE(std::equal(v4.begin() + 12, v4.begin() + 72,
                           bytes.begin() + 12));
}

TEST(SnapshotLegacyV3, EverySingleBitFlipIsRejected)
{
    const std::vector<char> pristine = readAll(fixturePath());
    ASSERT_FALSE(pristine.empty()) << fixturePath();
    const fs::path file =
        fs::temp_directory_path() /
        ("tigr_legacy_v3_flip_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         ".tgs");
    std::size_t accepted = 0;
    std::string first;
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<char> bytes = pristine;
            bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
            writeAll(file, bytes);
            for (auto mode :
                 {SnapshotLoadMode::Stream, SnapshotLoadMode::Mmap}) {
                try {
                    (void)loadSnapshotFile(file, mode);
                    if (accepted++ == 0)
                        first = "byte " + std::to_string(byte) + " bit " +
                                std::to_string(bit);
                } catch (const SnapshotError &) {
                }
            }
        }
    }
    fs::remove(file);
    EXPECT_EQ(accepted, 0u) << "first accepted flip: " << first;
}

} // namespace
} // namespace tigr::service
