/**
 * @file
 * Checkpoints stream straight from the live arena. At every epoch of a
 * seeded mutation stream, the checkpoint file must equal, byte for
 * byte, the snapshot of the dense materialization
 * (`{toCsr(), canonicalNodes()}`), in both edge layouts, at several
 * degree bounds, with and without a virtual section, and across arena
 * compactions and virtual-array rebases. The checkpoint must also leave
 * the entry's dense copy stale: it no longer refreshes it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/graph_store.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

namespace fs = std::filesystem;

struct CheckpointCase
{
    bool withVirtual;
    NodeId degreeBound;
    transform::EdgeLayout layout;
};

std::string
caseName(const CheckpointCase &c)
{
    if (!c.withVirtual)
        return "plain";
    return std::string(c.layout == transform::EdgeLayout::Coalesced
                           ? "coalesced"
                           : "consecutive") +
           "_K" + std::to_string(c.degreeBound);
}

/** gtest prints parameters into the discovered test names; without
 *  this it would dump the struct's bytes, padding included. */
void
PrintTo(const CheckpointCase &c, std::ostream *os)
{
    *os << caseName(c);
}

std::vector<char>
readAll(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** A small skewed graph the delete-heavy stream below drives through
 *  segment relocations and at least one compaction. */
graph::Csr
baseGraph()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 40;
    options.weightSeed = 5;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 256, .edges = 3000, .seed = 5}));
}

class ArenaCheckpoint : public ::testing::TestWithParam<CheckpointCase>
{
  protected:
    void SetUp() override
    {
        std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::replace(name.begin(), name.end(), '/', '_');
        dir_ = fs::temp_directory_path() /
               ("tigr_checkpoint_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + name);
        fs::remove_all(dir_);
        fs::create_directories(dir_ / "durable");
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** Register "g" in @p store: from a snapshot with a virtual section
     *  when the case has one, else as a plain graph. */
    void
    addGraph(GraphStore &store) const
    {
        const CheckpointCase &c = GetParam();
        const graph::Csr g = baseGraph();
        if (!c.withVirtual) {
            store.add("g", g);
            return;
        }
        const fs::path base = dir_ / "base.tgs";
        saveSnapshotFile(transform::VirtualGraph(g, c.degreeBound,
                                                 c.layout),
                         base);
        store.addSnapshot("g", base);
    }

    /** The dense reference: saveSnapshotFile of the arena's dense
     *  materialization at the store's current epoch. */
    std::vector<char>
    referenceBytes(const GraphStore &store) const
    {
        const ArenaView view = store.arenaView("g");
        Snapshot snapshot;
        snapshot.graph = view.graph->toCsr();
        snapshot.epoch = view.epoch;
        if (view.forward) {
            snapshot.hasVirtual = true;
            snapshot.virtualDegreeBound = view.forward->degreeBound();
            snapshot.virtualLayout = view.forward->layout();
            snapshot.virtualNodes = view.forward->canonicalNodes();
        }
        const fs::path file = dir_ / "reference.tgs";
        saveSnapshotFile(snapshot, file);
        return readAll(file);
    }

    fs::path dir_;
};

TEST_P(ArenaCheckpoint, FileEqualsTheDenseSnapshotAtEveryEpoch)
{
    const CheckpointCase &c = GetParam();
    GraphStore store;
    store.openDurable(dir_ / "durable");
    addGraph(store);
    const std::uint64_t denseEpoch = store.peek("g")->epoch;
    const fs::path checkpointFile = dir_ / "durable" / "g.tgs";

    std::size_t compactions = 0;
    constexpr std::size_t kEpochs = 14;
    for (std::size_t round = 0; round < kEpochs; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const ArenaView before = store.arenaView("g");
        const graph::Csr current =
            before.graph ? before.graph->toCsr() : baseGraph();
        dynamic::GeneratorSpec spec;
        spec.seed = 700 + round;
        spec.inserts = 60;
        spec.deletes = 220;
        spec.reweights = 30;
        const MutateResult result =
            store.mutate("g", dynamic::generateBatch(current, spec));
        compactions += result.compacted ? 1 : 0;

        const CheckpointResult cp = store.checkpoint("g");
        EXPECT_EQ(cp.epoch, store.epochOf("g"));
        ASSERT_EQ(readAll(checkpointFile), referenceBytes(store));

        // The checkpoint streamed from the arena: the dense entry
        // keeps the epoch it had before the stream began.
        EXPECT_TRUE(store.arenaView("g").staleDense);
        EXPECT_EQ(store.peek("g")->epoch, denseEpoch);
        EXPECT_EQ(static_cast<bool>(store.arenaView("g").forward),
                  c.withVirtual);
    }
    EXPECT_GE(compactions, 1u)
        << "the stream must cross a compaction and rebase";

    // The checkpoint reloads as the live state.
    const Snapshot loaded = loadSnapshotFile(checkpointFile);
    EXPECT_EQ(loaded.graph, store.arenaView("g").graph->toCsr());
    EXPECT_EQ(loaded.epoch, store.epochOf("g"));
    EXPECT_EQ(loaded.hasVirtual, c.withVirtual);

    // A fresh dense entry takes the other write path: same bytes.
    const std::vector<char> streamed = readAll(checkpointFile);
    EXPECT_EQ(store.pin("g")->epoch, store.epochOf("g"));
    store.checkpoint("g");
    EXPECT_EQ(readAll(checkpointFile), streamed);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndBounds, ArenaCheckpoint,
    ::testing::Values(
        CheckpointCase{false, 0, transform::EdgeLayout::Coalesced},
        CheckpointCase{true, 2, transform::EdgeLayout::Coalesced},
        CheckpointCase{true, 8, transform::EdgeLayout::Coalesced},
        CheckpointCase{true, 32, transform::EdgeLayout::Coalesced},
        CheckpointCase{true, 2, transform::EdgeLayout::Consecutive},
        CheckpointCase{true, 8, transform::EdgeLayout::Consecutive},
        CheckpointCase{true, 32, transform::EdgeLayout::Consecutive}),
    [](const ::testing::TestParamInfo<CheckpointCase> &info) {
        return caseName(info.param);
    });

TEST(ArenaCheckpointWriter, RejectsAMismatchedVirtualizer)
{
    const graph::Csr g = baseGraph();
    dynamic::DynamicGraph arena(g);
    const dynamic::IncrementalVirtualizer reverse(
        arena, 4, transform::EdgeLayout::Coalesced, nullptr,
        dynamic::GraphSide::In);
    const fs::path file =
        fs::temp_directory_path() / "tigr_checkpoint_mismatch.tgs";
    EXPECT_THROW(saveSnapshotFile(arena, &reverse, 0, file),
                 std::invalid_argument);
    EXPECT_FALSE(fs::exists(file));
}

} // namespace
} // namespace tigr::service
