/**
 * @file
 * The shared CRC-32C against a byte-at-a-time table reference: the
 * dispatched path (SSE4.2 where the CPU has it) and the slicing-by-8
 * fallback must agree with it on every length from 0 to 4096, at every
 * alignment, chained across arbitrary splits, and on the RFC 3720
 * vectors. Also: the v4 snapshot writer, which streams the file
 * through a fixed buffer, produces the same bytes as a one-shot write
 * to memory, with the CRC-32C of its payload in the header.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/crc32c.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

namespace fs = std::filesystem;

/** The journal's original byte-table CRC-32C, kept as the reference
 *  the faster paths are held to. */
std::uint32_t
referenceCrc32c(const void *data, std::size_t size, std::uint32_t crc = 0)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c >> 1) ^ ((c & 1u) ? 0x82f63b78u : 0u);
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = ~crc;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        c = (c >> 8) ^ table[(c ^ p[i]) & 0xffu];
    return ~c;
}

std::vector<unsigned char>
seededBytes(std::size_t size, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<unsigned char> bytes(size);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng());
    return bytes;
}

TEST(Crc32cDifferential, Rfc3720Vectors)
{
    std::array<unsigned char, 32> buf{};
    const auto both = [&](std::uint32_t expect) {
        EXPECT_EQ(crc32c(buf.data(), buf.size()), expect);
        EXPECT_EQ(crc32cSlicing8(buf.data(), buf.size()), expect);
        EXPECT_EQ(referenceCrc32c(buf.data(), buf.size()), expect);
    };
    both(0x8a9136aau); // 32 zero bytes
    buf.fill(0xff);
    both(0x62a8ab43u);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i);
    both(0x46dd794eu);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(31 - i);
    both(0x113fdb5cu);
    EXPECT_EQ(crc32cSlicing8("123456789", 9), 0xe3069283u);
    EXPECT_EQ(crc32c("123456789", 9), 0xe3069283u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
    EXPECT_EQ(crc32cSlicing8(nullptr, 0, 0x1234u), 0x1234u);
}

TEST(Crc32cDifferential, EveryLengthAtEveryAlignment)
{
    constexpr std::size_t kMaxLength = 4096;
    const std::vector<unsigned char> bytes =
        seededBytes(kMaxLength + 8, 17);
    std::size_t mismatches = 0;
    std::string first;
    for (std::size_t align = 0; align < 8; ++align) {
        const unsigned char *base = bytes.data() + align;
        for (std::size_t length = 0; length <= kMaxLength; ++length) {
            // A nonzero seed on odd lengths covers the chaining input.
            const std::uint32_t seed =
                length % 2 ? static_cast<std::uint32_t>(length * 2654435761u)
                           : 0u;
            const std::uint32_t expect =
                referenceCrc32c(base, length, seed);
            const std::uint32_t fast = crc32c(base, length, seed);
            const std::uint32_t sliced =
                crc32cSlicing8(base, length, seed);
            if (fast != expect || sliced != expect) {
                if (mismatches++ == 0)
                    first = "align " + std::to_string(align) +
                            " length " + std::to_string(length);
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first;
}

TEST(Crc32cDifferential, ChainedSplitsEqualOneCall)
{
    const std::vector<unsigned char> bytes = seededBytes(1031, 29);
    const std::uint32_t whole = referenceCrc32c(bytes.data(), bytes.size());
    // Every two-way split.
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        const std::size_t rest = bytes.size() - cut;
        ASSERT_EQ(crc32c(bytes.data() + cut, rest,
                         crc32c(bytes.data(), cut)),
                  whole)
            << "dispatched, cut " << cut;
        ASSERT_EQ(crc32cSlicing8(bytes.data() + cut, rest,
                                 crc32cSlicing8(bytes.data(), cut)),
                  whole)
            << "slicing-by-8, cut " << cut;
    }
    // Seeded many-way splits, alternating the two implementations.
    std::mt19937_64 rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint32_t crc = 0;
        std::size_t pos = 0;
        bool sliced = trial % 2 == 1;
        while (pos < bytes.size()) {
            const std::size_t take = std::min<std::size_t>(
                bytes.size() - pos, rng() % 97);
            crc = sliced ? crc32cSlicing8(bytes.data() + pos, take, crc)
                         : crc32c(bytes.data() + pos, take, crc);
            sliced = !sliced;
            pos += take;
        }
        ASSERT_EQ(crc, whole) << "trial " << trial;
    }
}

std::vector<char>
readAll(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(SnapshotStreamWriter, StreamedFileEqualsOneShotWriteToMemory)
{
    // Several MiB of payload: the file writer fills and flushes its
    // fixed buffer many times, with section and row boundaries falling
    // inside buffers.
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 1000;
    options.weightSeed = 3;
    const graph::Csr g = graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 30000, .edges = 240000, .seed = 3}));
    const transform::VirtualGraph vg(g, 8,
                                     transform::EdgeLayout::Consecutive);
    Snapshot snapshot;
    snapshot.graph = g;
    snapshot.hasVirtual = true;
    snapshot.virtualDegreeBound = 8;
    snapshot.virtualLayout = transform::EdgeLayout::Consecutive;
    snapshot.virtualNodes.assign(vg.virtualNodes().begin(),
                                 vg.virtualNodes().end());
    snapshot.epoch = 123456789;

    std::ostringstream out(std::ios::binary);
    saveSnapshot(snapshot, out);
    const std::string oneShot = std::move(out).str();
    ASSERT_GT(oneShot.size(), std::size_t{3} << 20);

    const fs::path file =
        fs::temp_directory_path() /
        ("tigr_crc32c_stream_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         ".tgs");
    saveSnapshotFile(snapshot, file);
    const std::vector<char> streamed = readAll(file);
    fs::remove(file);
    ASSERT_EQ(streamed.size(), oneShot.size());
    EXPECT_TRUE(std::equal(streamed.begin(), streamed.end(),
                           oneShot.begin()));

    // Header: version 4, payload checksum = CRC-32C of the payload.
    std::uint32_t version = 0;
    std::memcpy(&version, oneShot.data() + 8, sizeof(version));
    EXPECT_EQ(version, 4u);
    std::uint64_t payloadChecksum = 0;
    std::memcpy(&payloadChecksum, oneShot.data() + 72,
                sizeof(payloadChecksum));
    EXPECT_EQ(payloadChecksum,
              referenceCrc32c(oneShot.data() + 88, oneShot.size() - 88));

    const Snapshot loaded = parseSnapshot(oneShot.data(), oneShot.size());
    EXPECT_EQ(loaded.graph, g);
    EXPECT_EQ(loaded.epoch, 123456789u);
    ASSERT_EQ(loaded.virtualNodes.size(), vg.virtualNodes().size());
    for (std::size_t i = 0; i < loaded.virtualNodes.size(); ++i)
        ASSERT_TRUE(loaded.virtualNodes[i] == vg.virtualNodes()[i]) << i;
}

} // namespace
} // namespace tigr::service
