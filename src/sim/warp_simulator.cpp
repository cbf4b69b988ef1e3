#include "sim/warp_simulator.hpp"

#include <bit>
#include <stdexcept>

namespace tigr::sim {

WarpSimulator::WarpSimulator(const GpuConfig &config) : config_(config)
{
    if (config_.warpSize == 0)
        throw std::invalid_argument("tigr: GpuConfig.warpSize must be > 0");
    if (config_.numSms == 0)
        throw std::invalid_argument("tigr: GpuConfig.numSms must be > 0");
    if (config_.memSegmentBytes == 0) {
        throw std::invalid_argument(
            "tigr: GpuConfig.memSegmentBytes must be > 0");
    }
    if (std::has_single_bit(config_.memSegmentBytes))
        segmentShift_ = std::countr_zero(config_.memSegmentBytes);
}

KernelStats &
KernelStats::operator+=(const KernelStats &other)
{
    launches += other.launches;
    threads += other.threads;
    warps += other.warps;
    cycles += other.cycles;
    instructions += other.instructions;
    laneSlots += other.laneSlots;
    memTransactions += other.memTransactions;
    memAccesses += other.memAccesses;
    valueTransactions += other.valueTransactions;
    busiestSmCycles += other.busiestSmCycles;
    totalSmCycles += other.totalSmCycles;
    smCount = std::max(smCount, other.smCount);
    return *this;
}

std::uint64_t
WarpSimulator::simulateWarp(unsigned lanes, unsigned warp_size,
                            KernelStats &stats,
                            WarpScratch &scratch) const
{
    using LaneRun = WarpScratch::LaneRun;
    const std::uint64_t segment = config_.memSegmentBytes;
    const int shift = segmentShift_;
    auto segment_of = [segment, shift](std::uint64_t address) {
        return shift >= 0 ? address >> shift : address / segment;
    };

    // Memory model. Lanes fall into two regimes:
    //  - Interleaved lanes (stride != 1, or a single access): what
    //    matters is cross-lane coalescing within each lockstep step —
    //    loads from different lanes falling into one aligned segment
    //    merge into a single transaction. This is the Tigr-V+ family
    //    pattern (lanes read adjacent slots each step) and the
    //    edge-parallel pattern (consecutive threads read consecutive
    //    edges).
    //  - Sequential lanes (stride == 1 with multiple accesses, i.e. a
    //    thread walking its own CSR row): each lane streams through
    //    ceil(count*record/segment) segments on its own, but
    //    inter-step eviction by other warps re-fetches each segment
    //    sequentialReloadFactor times on average (capped at one
    //    transaction per access).
    //
    // One pass over the lanes charges everything that is per lane —
    // instruction depth (SIMD lockstep: the warp issues for as many
    // steps as its deepest lane, and finished lanes keep their slots
    // occupied, Figure 3), accesses, sequential lanes and value
    // scatter — and groups the interleaved lanes into runs for the
    // per-step coalescing below.
    std::uint32_t max_instructions = 0;
    std::uint64_t useful = 0;
    std::uint64_t accesses = 0;
    std::uint64_t transactions = 0;
    std::uint64_t value_transactions = 0;
    std::uint64_t windowed_bytes = 0;
    std::uint32_t max_steps = 0;
    std::vector<LaneRun> &runs = scratch.runs;
    std::vector<std::uint32_t> &counts = scratch.counts;
    unsigned num_runs = 0;
    unsigned num_interleaved = 0;
    std::uint64_t last_address = 0;
    for (unsigned lane = 0; lane < lanes; ++lane) {
        const ThreadWork &work = scratch.lanes[lane];
        max_instructions = std::max(max_instructions, work.instructions);
        useful += work.instructions;
        accesses += work.edgeCount;
        // Scattered value-array traffic: Algorithm 2's update of
        // distance[edges[i].nbr] touches an effectively random segment
        // per edge regardless of how the edge array is laid out, so it
        // charges one transaction per lane-level edge access. This
        // bandwidth term is identical across strategies per edge and
        // keeps the modeled kernels memory-bound, as on real hardware.
        // Windowed updates (CuSha shards) land sequentially and
        // coalesce across the whole warp; their bytes are charged at
        // half-segment efficiency below.
        if (config_.modelValueScatter) {
            if (work.scatterAccessesPerEdge > 0) {
                value_transactions +=
                    static_cast<std::uint64_t>(work.edgeCount) *
                    work.scatterAccessesPerEdge;
            } else {
                windowed_bytes +=
                    static_cast<std::uint64_t>(work.edgeCount) * 4;
            }
        }
        if (work.edgeCount == 0)
            continue;
        if (work.edgeStride == 1 && work.edgeCount > 1) {
            const std::uint64_t bytes =
                static_cast<std::uint64_t>(work.edgeCount) *
                work.bytesPerEdge;
            const std::uint64_t segments = segment_of(bytes + segment - 1);
            transactions += std::min<std::uint64_t>(
                work.edgeCount, segments * config_.sequentialReloadFactor);
            continue;
        }
        // The lane's step-j address, (start + stride * j) * bytes
        // modulo 2^64, is address + j * step.
        const std::uint64_t address = work.edgeStart * work.bytesPerEdge;
        const std::uint64_t step = work.edgeStride * work.bytesPerEdge;
        max_steps = std::max(max_steps, work.edgeCount);
        if (num_runs > 0) {
            LaneRun &run = runs[num_runs - 1];
            if (work.bytesPerEdge == run.bytes && step == run.step &&
                work.bytesPerEdge <= segment &&
                address == last_address + work.bytesPerEdge &&
                work.edgeCount <= counts[num_interleaved - 1]) {
                counts[num_interleaved++] = work.edgeCount;
                run.end = num_interleaved;
                last_address = address;
                continue;
            }
        }
        runs[num_runs++] = LaneRun{address, step, work.bytesPerEdge,
                                   num_interleaved, num_interleaved + 1};
        counts[num_interleaved++] = work.edgeCount;
        last_address = address;
    }

    // Interleaved lanes, one lockstep step at a time. A run's lanes
    // still active at step j are a prefix (counts never rise along a
    // run) whose addresses lo, lo + bytes, ..., hi are contiguous with
    // bytes <= segment, so they touch exactly the segments
    // [seg(lo), seg(hi)]. While each run starts at or above the
    // previous run's last segment, the step's distinct segments are the
    // sum of those ranges less the one segment two neighbouring runs
    // may share. A step where that fails (arena-relocated families, a
    // run wrapping 2^64) is counted by deduplicating its lanes'
    // segments directly.
    std::vector<std::uint64_t> &seen = scratch.segments;
    for (std::uint32_t j = 0; j < max_steps && num_runs > 0; ++j) {
        std::uint64_t step_transactions = 0;
        std::uint64_t prev_hi = 0;
        bool ascending = true;
        unsigned live = 0;
        for (unsigned r = 0; r < num_runs; ++r) {
            LaneRun run = runs[r];
            while (run.end > run.first && counts[run.end - 1] <= j)
                --run.end;
            if (run.end == run.first)
                continue;
            runs[live++] = run;
            if (!ascending)
                continue;
            const std::uint64_t lo = run.base + j * run.step;
            const std::uint64_t hi =
                lo + static_cast<std::uint64_t>(run.end - run.first - 1) *
                         run.bytes;
            const std::uint64_t seg_lo = segment_of(lo);
            const std::uint64_t seg_hi = segment_of(hi);
            if (hi < lo || (live > 1 && seg_lo < prev_hi)) {
                ascending = false;
                continue;
            }
            step_transactions += seg_hi - seg_lo + 1;
            if (live > 1 && seg_lo == prev_hi)
                --step_transactions;
            prev_hi = seg_hi;
        }
        num_runs = live;
        if (!ascending) {
            unsigned distinct = 0;
            for (unsigned r = 0; r < num_runs; ++r) {
                const LaneRun &run = runs[r];
                std::uint64_t address = run.base + j * run.step;
                for (unsigned k = run.first; k < run.end;
                     ++k, address += run.bytes) {
                    const std::uint64_t seg = segment_of(address);
                    if (std::find(seen.begin(), seen.begin() + distinct,
                                  seg) == seen.begin() + distinct)
                        seen[distinct++] = seg;
                }
            }
            step_transactions = distinct;
        }
        transactions += step_transactions;
    }

    if (windowed_bytes > 0)
        value_transactions += segment_of(windowed_bytes * 2 + segment - 1);

    stats.instructions += useful;
    stats.laneSlots +=
        static_cast<std::uint64_t>(max_instructions) * warp_size;
    stats.memAccesses += accesses;
    stats.memTransactions += transactions;
    stats.valueTransactions += value_transactions;

    return static_cast<std::uint64_t>(max_instructions) *
               config_.cyclesPerInstruction +
           (transactions + value_transactions) *
               config_.cyclesPerTransaction;
}

} // namespace tigr::sim
