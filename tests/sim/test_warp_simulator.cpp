/**
 * @file
 * Tests of the GPU-SIMD cost model: lockstep lane accounting, warp
 * efficiency, coalescing transaction counting, SM load distribution,
 * counter aggregation, configuration validation, and a differential
 * test of the run-based coalescing count against a per-lane,
 * per-step reference model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/warp_simulator.hpp"

namespace tigr::sim {
namespace {

GpuConfig
smallGpu()
{
    GpuConfig config;
    config.warpSize = 4;
    config.numSms = 2;
    config.memSegmentBytes = 32;
    config.cyclesPerInstruction = 1;
    config.cyclesPerTransaction = 10;
    config.kernelLaunchCycles = 0;
    return config;
}

ThreadWork
uniformWork(std::uint32_t instructions)
{
    ThreadWork work;
    work.instructions = instructions;
    return work;
}

TEST(WarpSimulator, BalancedWarpIsFullyEfficient)
{
    WarpSimulator sim(smallGpu());
    KernelStats stats =
        sim.launch(4, [](std::uint64_t) { return uniformWork(10); });
    EXPECT_EQ(stats.warps, 1u);
    EXPECT_EQ(stats.instructions, 40u);
    EXPECT_EQ(stats.laneSlots, 40u);
    EXPECT_DOUBLE_EQ(stats.warpEfficiency(), 1.0);
}

TEST(WarpSimulator, OneHotLaneWastesTheWarp)
{
    // One lane with 100 instructions, three idle: the warp still issues
    // 100 steps on all four lanes.
    WarpSimulator sim(smallGpu());
    KernelStats stats = sim.launch(4, [](std::uint64_t tid) {
        return uniformWork(tid == 0 ? 100 : 0);
    });
    EXPECT_EQ(stats.instructions, 100u);
    EXPECT_EQ(stats.laneSlots, 400u);
    EXPECT_DOUBLE_EQ(stats.warpEfficiency(), 0.25);
}

TEST(WarpSimulator, PartialLastWarpStillChargesFullWidth)
{
    WarpSimulator sim(smallGpu());
    KernelStats stats =
        sim.launch(5, [](std::uint64_t) { return uniformWork(8); });
    EXPECT_EQ(stats.warps, 2u);
    EXPECT_EQ(stats.threads, 5u);
    // Warp 2 has one active lane but still occupies 4 lanes.
    EXPECT_EQ(stats.laneSlots, 2u * 4u * 8u);
}

TEST(WarpSimulator, CyclesAreMaxOverSms)
{
    // Two warps of different depth land on different SMs; the kernel
    // takes as long as the slower one (inter-warp imbalance).
    WarpSimulator sim(smallGpu());
    KernelStats stats = sim.launch(8, [](std::uint64_t tid) {
        return uniformWork(tid < 4 ? 100 : 10);
    });
    EXPECT_EQ(stats.cycles, 100u);
}

TEST(WarpSimulator, SameSmWorkloadsSerialize)
{
    // Three warps over two SMs: SM0 runs warps 0 and 2.
    WarpSimulator sim(smallGpu());
    KernelStats stats = sim.launch(12, [](std::uint64_t tid) {
        return uniformWork(tid < 4 ? 50 : (tid < 8 ? 30 : 20));
    });
    EXPECT_EQ(stats.cycles, 70u); // 50 + 20 on SM0 vs 30 on SM1
}

TEST(WarpSimulator, LaunchOverheadCharged)
{
    GpuConfig config = smallGpu();
    config.kernelLaunchCycles = 12345;
    WarpSimulator sim(config);
    KernelStats stats =
        sim.launch(0, [](std::uint64_t) { return ThreadWork{}; });
    EXPECT_EQ(stats.cycles, 12345u);
}

TEST(Coalescing, ConsecutiveLaneAccessesMerge)
{
    // 4 lanes read slots 0..3 of an 8-byte-record array in lockstep:
    // addresses 0,8,16,24 share one 32-byte segment -> 1 transaction
    // per step.
    WarpSimulator sim(smallGpu());
    KernelStats stats = sim.launch(4, [](std::uint64_t tid) {
        ThreadWork work;
        work.instructions = 3;
        work.edgeCount = 3;
        work.edgeStart = tid;     // lane-consecutive slots
        work.edgeStride = 4;      // family-size stride (coalesced)
        return work;
    });
    // Steps access slots {0,1,2,3}, {4,5,6,7}, {8,9,10,11}: each step's
    // 4 addresses span exactly one 32-byte segment.
    EXPECT_EQ(stats.memTransactions, 3u);
    EXPECT_EQ(stats.memAccesses, 12u);
    EXPECT_DOUBLE_EQ(stats.coalescingFactor(), 4.0);
}

TEST(Coalescing, StridedLaneAccessesDoNot)
{
    // The Figure 10 (consecutive/strided) pattern: lane t reads slots
    // t*K + j. With K=4 and 8-byte records, lanes are 32 bytes apart:
    // every lane touches its own segment -> 4 transactions per step.
    WarpSimulator sim(smallGpu());
    KernelStats stats = sim.launch(4, [](std::uint64_t tid) {
        ThreadWork work;
        work.instructions = 3;
        work.edgeCount = 3;
        work.edgeStart = tid * 4;
        work.edgeStride = 1;
        return work;
    });
    EXPECT_EQ(stats.memTransactions, 12u);
    EXPECT_DOUBLE_EQ(stats.coalescingFactor(), 1.0);
}

TEST(Coalescing, RaggedLanesOnlyChargeActiveOnes)
{
    WarpSimulator sim(smallGpu());
    KernelStats stats = sim.launch(2, [](std::uint64_t tid) {
        ThreadWork work;
        work.instructions = static_cast<std::uint32_t>(1 + tid);
        work.edgeCount = static_cast<std::uint32_t>(1 + tid);
        work.edgeStart = tid * 100; // far apart
        return work;
    });
    // Step 0: both lanes -> 2 segments. Step 1: lane 1 only -> 1.
    EXPECT_EQ(stats.memTransactions, 3u);
}

TEST(KernelStatsAggregation, PlusEqualsSumsAllCounters)
{
    WarpSimulator sim(smallGpu());
    KernelStats total;
    KernelStats a =
        sim.launch(4, [](std::uint64_t) { return uniformWork(10); });
    KernelStats b =
        sim.launch(8, [](std::uint64_t) { return uniformWork(5); });
    total += a;
    total += b;
    EXPECT_EQ(total.launches, 2u);
    EXPECT_EQ(total.threads, 12u);
    EXPECT_EQ(total.warps, 3u);
    EXPECT_EQ(total.instructions,
              a.instructions + b.instructions);
    EXPECT_EQ(total.cycles, a.cycles + b.cycles);
}

TEST(KernelStats, EmptyStatsAreNeutral)
{
    KernelStats stats;
    EXPECT_DOUBLE_EQ(stats.warpEfficiency(), 1.0);
    EXPECT_DOUBLE_EQ(stats.coalescingFactor(), 1.0);
}

TEST(SmImbalance, ZeroWhenSmsEquallyLoaded)
{
    WarpSimulator sim(smallGpu());
    // Two warps of equal depth on the two SMs.
    KernelStats stats =
        sim.launch(8, [](std::uint64_t) { return uniformWork(10); });
    EXPECT_DOUBLE_EQ(stats.smImbalance(), 0.0);
    EXPECT_EQ(stats.busiestSmCycles, 10u);
    EXPECT_EQ(stats.totalSmCycles, 20u);
}

TEST(SmImbalance, HighWhenOneSmDoesEverything)
{
    WarpSimulator sim(smallGpu());
    // Warp 0 (SM0) heavy, warp 1 (SM1) idle.
    KernelStats stats = sim.launch(8, [](std::uint64_t tid) {
        return uniformWork(tid < 4 ? 100 : 0);
    });
    EXPECT_NEAR(stats.smImbalance(), 0.5, 1e-12);
}

TEST(SmImbalance, NeutralOnEmptyStats)
{
    KernelStats stats;
    EXPECT_DOUBLE_EQ(stats.smImbalance(), 0.0);
}

TEST(WarpSimulator, DefaultConfigMatchesP4000Shape)
{
    WarpSimulator sim;
    EXPECT_EQ(sim.config().warpSize, 32u);
    EXPECT_EQ(sim.config().numSms, 14u);
}

TEST(WarpSimulatorConfig, RejectsZeroWarpSize)
{
    GpuConfig config;
    config.warpSize = 0;
    EXPECT_THROW(WarpSimulator{config}, std::invalid_argument);
}

TEST(WarpSimulatorConfig, RejectsZeroSms)
{
    GpuConfig config;
    config.numSms = 0;
    EXPECT_THROW(WarpSimulator{config}, std::invalid_argument);
}

TEST(WarpSimulatorConfig, RejectsZeroSegment)
{
    GpuConfig config;
    config.memSegmentBytes = 0;
    EXPECT_THROW(WarpSimulator{config}, std::invalid_argument);
}

TEST(Coalescing, NonPowerOfTwoSegment)
{
    // 96-byte segments, 8-byte records: slots 0..15 span bytes
    // [0, 128), i.e. segments 0 and 1.
    GpuConfig config = smallGpu();
    config.memSegmentBytes = 96;
    config.warpSize = 16;
    WarpSimulator sim(config);
    KernelStats stats = sim.launch(16, [](std::uint64_t tid) {
        ThreadWork work;
        work.edgeCount = 1;
        work.edgeStart = tid;
        return work;
    });
    EXPECT_EQ(stats.memTransactions, 2u);
}

TEST(Coalescing, RelocatedFamiliesDedupAcrossRuns)
{
    // Three two-lane families whose bases do not ascend, as in an
    // arena: slots {10,11}, {2,3}, {8,9} with 8-byte records and
    // 32-byte segments fall into segments 2, 0 and 2. Each step
    // touches 2 distinct segments; the third family shares one with
    // the first.
    GpuConfig config = smallGpu();
    config.warpSize = 6;
    WarpSimulator sim(config);
    const std::uint64_t starts[6] = {10, 11, 2, 3, 8, 9};
    KernelStats stats = sim.launch(6, [&](std::uint64_t tid) {
        ThreadWork work;
        work.edgeCount = 2;
        work.edgeStart = starts[tid];
        work.edgeStride = 64;
        return work;
    });
    EXPECT_EQ(stats.memTransactions, 4u);
}

// ---------------------------------------------------------------------
// Differential test. referenceLaunch is the original per-lane,
// per-step model: at every lockstep step it computes every active
// interleaved lane's segment and deduplicates them with a linear scan.
// WarpSimulator::launch must agree with it on every KernelStats field.

std::uint64_t
referenceWarp(const GpuConfig &config, const std::vector<ThreadWork> &lanes,
              KernelStats &stats)
{
    std::uint32_t max_instructions = 0;
    std::uint32_t max_edges = 0;
    std::uint64_t useful = 0;
    for (const ThreadWork &work : lanes) {
        max_instructions = std::max(max_instructions, work.instructions);
        max_edges = std::max(max_edges, work.edgeCount);
        useful += work.instructions;
        stats.memAccesses += work.edgeCount;
    }
    stats.instructions += useful;
    stats.laneSlots +=
        static_cast<std::uint64_t>(max_instructions) * config.warpSize;

    auto is_sequential = [](const ThreadWork &work) {
        return work.edgeStride == 1 && work.edgeCount > 1;
    };
    std::uint64_t transactions = 0;
    const std::uint64_t segment = config.memSegmentBytes;
    std::vector<std::uint64_t> segments;
    for (std::uint32_t j = 0; j < max_edges; ++j) {
        segments.clear();
        for (const ThreadWork &work : lanes) {
            if (j >= work.edgeCount || is_sequential(work))
                continue;
            const std::uint64_t address =
                (work.edgeStart + work.edgeStride * j) * work.bytesPerEdge;
            const std::uint64_t seg = address / segment;
            if (std::find(segments.begin(), segments.end(), seg) ==
                segments.end())
                segments.push_back(seg);
        }
        transactions += segments.size();
    }
    for (const ThreadWork &work : lanes) {
        if (!is_sequential(work))
            continue;
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(work.edgeCount) * work.bytesPerEdge;
        const std::uint64_t count = (bytes + segment - 1) / segment;
        transactions += std::min<std::uint64_t>(
            work.edgeCount, count * config.sequentialReloadFactor);
    }
    stats.memTransactions += transactions;

    std::uint64_t value_transactions = 0;
    if (config.modelValueScatter) {
        std::uint64_t windowed_bytes = 0;
        for (const ThreadWork &work : lanes) {
            if (work.scatterAccessesPerEdge > 0) {
                value_transactions +=
                    static_cast<std::uint64_t>(work.edgeCount) *
                    work.scatterAccessesPerEdge;
            } else {
                windowed_bytes +=
                    static_cast<std::uint64_t>(work.edgeCount) * 4;
            }
        }
        if (windowed_bytes > 0) {
            value_transactions +=
                (windowed_bytes * 2 + segment - 1) / segment;
        }
    }
    stats.valueTransactions += value_transactions;

    return static_cast<std::uint64_t>(max_instructions) *
               config.cyclesPerInstruction +
           (transactions + value_transactions) *
               config.cyclesPerTransaction;
}

KernelStats
referenceLaunch(const GpuConfig &config,
                const std::vector<ThreadWork> &threads)
{
    KernelStats stats;
    stats.launches = 1;
    stats.threads = threads.size();
    std::vector<std::uint64_t> sm_cycles(config.numSms, 0);
    std::uint64_t warp_index = 0;
    for (std::size_t base = 0; base < threads.size();
         base += config.warpSize, ++warp_index) {
        const std::size_t end =
            std::min<std::size_t>(base + config.warpSize, threads.size());
        const std::vector<ThreadWork> lanes(threads.begin() + base,
                                            threads.begin() + end);
        sm_cycles[warp_index % config.numSms] +=
            referenceWarp(config, lanes, stats);
        ++stats.warps;
    }
    stats.cycles = config.kernelLaunchCycles;
    stats.smCount = config.numSms;
    stats.busiestSmCycles =
        *std::max_element(sm_cycles.begin(), sm_cycles.end());
    stats.cycles += stats.busiestSmCycles;
    for (std::uint64_t sm : sm_cycles)
        stats.totalSmCycles += sm;
    return stats;
}

/**
 * Seeded generator of launches built from the access shapes the
 * engines produce, plus the corner cases the run-based count must get
 * right. Each lane group is appended whole, so groups straddle warp
 * boundaries the way real schedules do.
 */
class LaunchGenerator
{
  public:
    explicit LaunchGenerator(std::uint64_t seed) : rng_(seed) {}

    GpuConfig
    config()
    {
        static constexpr unsigned kWarps[] = {4, 32, 64};
        static constexpr unsigned kSegments[] = {32, 96, 128};
        GpuConfig config;
        config.warpSize = kWarps[pick(3)];
        config.numSms = 1 + pick(14);
        config.memSegmentBytes = kSegments[pick(3)];
        config.cyclesPerInstruction = 1 + pick(2);
        config.cyclesPerTransaction = 1 + pick(16);
        config.sequentialReloadFactor = 1 + pick(8);
        config.modelValueScatter = pick(4) != 0;
        config.kernelLaunchCycles = pick(100);
        return config;
    }

    /** About @p warps warps of threads; the count is rarely a multiple
     *  of the warp size, so most launches end in a partial warp. */
    std::vector<ThreadWork>
    threads(const GpuConfig &config, std::uint64_t warps)
    {
        std::vector<ThreadWork> out;
        const std::uint64_t target =
            warps * config.warpSize - pick(config.warpSize);
        while (out.size() < target)
            appendGroup(out, config);
        out.resize(target);
        return out;
    }

  private:
    std::uint64_t
    pick(std::uint64_t bound)
    {
        return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(
            rng_);
    }

    std::uint32_t
    small(std::uint32_t bound)
    {
        return static_cast<std::uint32_t>(pick(bound));
    }

    /** Record size: usually the engines' 8 bytes, sometimes odd or
     *  wider than a segment. */
    std::uint32_t
    recordBytes(const GpuConfig &config)
    {
        switch (pick(8)) {
        case 0:
            return 4;
        case 1:
            return 1 + small(24);
        case 2:
            return config.memSegmentBytes + 8 + small(64);
        case 3:
            return 0;
        default:
            return 8;
        }
    }

    /** A slot base: small and dense, large, or near the top of the
     *  64-bit address space so lane addresses wrap. */
    std::uint64_t
    slotBase()
    {
        switch (pick(10)) {
        case 0:
            return std::numeric_limits<std::uint64_t>::max() - pick(256);
        case 1:
            return (std::numeric_limits<std::uint64_t>::max() >> pick(8)) -
                   pick(1u << 12);
        case 2:
            return pick(std::uint64_t{1} << 40);
        default:
            return cursor_ + pick(4);
        }
    }

    ThreadWork
    lane(std::uint32_t count, std::uint64_t start, std::uint64_t stride,
         std::uint32_t bytes, std::uint32_t scatter)
    {
        ThreadWork work;
        work.instructions = 2 + 3 * count + small(3);
        work.edgeCount = count;
        work.edgeStart = start;
        work.edgeStride = stride;
        work.bytesPerEdge = bytes;
        work.scatterAccessesPerEdge = scatter;
        return work;
    }

    void
    appendGroup(std::vector<ThreadWork> &out, const GpuConfig &config)
    {
        const std::uint32_t bytes = recordBytes(config);
        const std::uint32_t scatter = pick(6) == 0 ? 0 : 1 + small(2);
        switch (pick(7)) {
        case 0:
        case 1: {
            // Tigr-V+ family: rank r reads slots base + r + f * j.
            const std::uint32_t bound = 1 + small(12);
            const std::uint32_t degree = 1 + small(bound * 40);
            const std::uint32_t family = (degree + bound - 1) / bound;
            const std::uint64_t base = slotBase();
            for (std::uint32_t r = 0; r < family; ++r) {
                out.push_back(lane((degree - r + family - 1) / family,
                                   base + r, family, bytes, scatter));
            }
            cursor_ = base + degree;
            break;
        }
        case 2: {
            // Edge-parallel launch: one edge per thread, consecutive.
            const std::uint64_t base = slotBase();
            const std::uint32_t edges = 1 + small(80);
            for (std::uint32_t e = 0; e < edges; ++e)
                out.push_back(lane(1, base + e, 1, bytes, scatter));
            cursor_ = base + edges;
            break;
        }
        case 3: {
            // Baseline rows: sequential lanes, some single-edge.
            const std::uint32_t rows = 1 + small(8);
            for (std::uint32_t v = 0; v < rows; ++v) {
                const std::uint32_t degree =
                    pick(4) == 0 ? small(3000) : small(6);
                out.push_back(lane(degree, cursor_, 1, bytes, scatter));
                cursor_ += degree;
            }
            break;
        }
        case 4: {
            // Arena-relocated families: shuffled bases, so runs start
            // below their predecessors and share segments out of order.
            const std::uint32_t families = 2 + small(10);
            for (std::uint32_t f = 0; f < families; ++f) {
                const std::uint32_t family = 1 + small(6);
                const std::uint32_t per_lane = 1 + small(5);
                const std::uint64_t base = pick(512);
                for (std::uint32_t r = 0; r < family; ++r) {
                    out.push_back(lane(per_lane - (r > 0 && pick(2)), base + r,
                                       family, bytes, scatter));
                }
            }
            break;
        }
        case 5: {
            // Degenerate lanes: zero counts, stride 0, random strides
            // and starts.
            const std::uint32_t count = 1 + small(6);
            for (std::uint32_t i = 0; i < count; ++i) {
                std::uint64_t stride = 2 + pick(8);
                if (pick(3) == 0)
                    stride = 0;
                else if (pick(3) == 0)
                    stride = pick(1u << 20);
                out.push_back(lane(small(7),
                                   pick(2) ? slotBase() : pick(1u << 16),
                                   stride, bytes, scatter));
            }
            break;
        }
        default: {
            // Frontier-pass lanes: no edge traffic at all.
            const std::uint32_t count = 1 + small(40);
            for (std::uint32_t i = 0; i < count; ++i)
                out.push_back(frontierPassWork());
            break;
        }
        }
    }

    std::mt19937_64 rng_;
    std::uint64_t cursor_ = 0;
};

void
expectSameStats(const KernelStats &got, const KernelStats &want,
                std::uint64_t seed)
{
    EXPECT_EQ(got.launches, want.launches) << "seed " << seed;
    EXPECT_EQ(got.threads, want.threads) << "seed " << seed;
    EXPECT_EQ(got.warps, want.warps) << "seed " << seed;
    EXPECT_EQ(got.cycles, want.cycles) << "seed " << seed;
    EXPECT_EQ(got.instructions, want.instructions) << "seed " << seed;
    EXPECT_EQ(got.laneSlots, want.laneSlots) << "seed " << seed;
    EXPECT_EQ(got.memTransactions, want.memTransactions) << "seed " << seed;
    EXPECT_EQ(got.memAccesses, want.memAccesses) << "seed " << seed;
    EXPECT_EQ(got.valueTransactions, want.valueTransactions)
        << "seed " << seed;
    EXPECT_EQ(got.busiestSmCycles, want.busiestSmCycles) << "seed " << seed;
    EXPECT_EQ(got.totalSmCycles, want.totalSmCycles) << "seed " << seed;
    EXPECT_EQ(got.smCount, want.smCount) << "seed " << seed;
}

TEST(CoalescingDifferential, SerialLaunchMatchesReferenceModel)
{
    std::uint64_t warps = 0;
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        LaunchGenerator gen(seed);
        const GpuConfig config = gen.config();
        const std::vector<ThreadWork> threads =
            gen.threads(config, 1 + seed % 40);
        WarpSimulator sim(config);
        const KernelStats got = sim.launch(
            threads.size(), [&](std::uint64_t tid) { return threads[tid]; });
        const KernelStats want = referenceLaunch(config, threads);
        expectSameStats(got, want, seed);
        warps += want.warps;
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GE(warps, 10000u);
}

TEST(CoalescingDifferential, PooledLaunchMatchesReferenceModel)
{
    // The pooled overload only fans out above 128 warps per launch.
    par::ThreadPool pool(4);
    std::uint64_t warps = 0;
    for (std::uint64_t seed = 1001; seed <= 1040; ++seed) {
        LaunchGenerator gen(seed);
        const GpuConfig config = gen.config();
        const std::vector<ThreadWork> threads =
            gen.threads(config, 200 + seed % 150);
        WarpSimulator sim(config);
        const KernelStats got = sim.launch(
            threads.size(), [&](std::uint64_t tid) { return threads[tid]; },
            &pool);
        const KernelStats want = referenceLaunch(config, threads);
        expectSameStats(got, want, seed);
        warps += want.warps;
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GE(warps, 10000u);
}

} // namespace
} // namespace tigr::sim
