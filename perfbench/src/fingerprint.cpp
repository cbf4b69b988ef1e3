#include "fingerprint.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tigr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** The CPUs this thread may run on, ascending. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

std::string
cpuList(const std::vector<int> &cpus)
{
    std::string out;
    for (int cpu : cpus) {
        if (!out.empty())
            out += ',';
        out += std::to_string(cpu);
    }
    return out;
}

/** A dependent integer chain the optimizer cannot shorten. */
std::uint64_t
burn(std::uint64_t iterations, std::uint64_t x)
{
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 29;
    }
    return x;
}

std::atomic<std::uint64_t> burnSink{0};

/** Milliseconds for @p threads threads each burning @p iterations. */
double
timedBurn(unsigned threads, std::uint64_t iterations)
{
    std::vector<std::thread> workers;
    const auto start = Clock::now();
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([iterations, t] {
            burnSink += burn(iterations, t + 1);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    return msSince(start);
}

/** Delivered parallelism of 2 threads: 2 * t(1 thread) / t(2 threads)
 *  for the same per-thread work, calibrated to about 40 ms. */
double
deliveredParallelism(double *one_thread_ms)
{
    std::uint64_t iterations = 1 << 20;
    while (timedBurn(1, iterations) < 10.0 && iterations < (1ULL << 40))
        iterations *= 2;
    iterations *= 4;
    std::vector<double> one, two;
    for (int rep = 0; rep < 3; ++rep) {
        one.push_back(timedBurn(1, iterations));
        two.push_back(timedBurn(2, iterations));
    }
    *one_thread_ms = median(one);
    return 2.0 * median(one) / median(two);
}

std::string
filesystemName(const std::filesystem::path &dir)
{
    struct statfs info{};
    if (statfs(dir.c_str(), &info) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
        std::ostringstream hex;
        hex << "0x" << std::hex << info.f_type;
        return hex.str();
    }
    }
}

/** Median microseconds of a 4 KiB write + fsync in @p dir; -1 when the
 *  probe file cannot be written. */
double
fsyncMicros(const std::filesystem::path &dir)
{
    const std::filesystem::path probe = dir / "fsync-probe.tmp";
    const int fd = ::open(probe.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0)
        return -1.0;
    std::vector<char> block(4096, 'x');
    std::vector<double> samples;
    bool ok = true;
    for (int rep = 0; rep < 8 && ok; ++rep) {
        const auto start = Clock::now();
        ok = ::write(fd, block.data(), block.size()) ==
                 static_cast<ssize_t>(block.size()) &&
             ::fsync(fd) == 0;
        samples.push_back(msSince(start) * 1e3);
    }
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(probe, ec);
    return ok ? median(samples) : -1.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

void
pinToLastCpus(unsigned count)
{
    const std::vector<int> cpus = allowedCpus();
    if (cpus.size() <= count)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = cpus.size() - count; i < cpus.size(); ++i)
        CPU_SET(cpus[i], &set);
    sched_setaffinity(0, sizeof set, &set);
}

std::string
machineFingerprint(const std::filesystem::path &durable_dir,
                   const BuildIdentity &build)
{
    double one_thread_ms = 0.0;
    const double delivered = deliveredParallelism(&one_thread_ms);
    const double fsync_us = fsyncMicros(durable_dir);
    std::ostringstream out;
    out << "{\"cpu_model\": " << jsonString(cpuModel())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"pinned_cpus\": " << jsonString(cpuList(allowedCpus()))
        << ", \"delivered_parallelism_2t\": " << jsonNumber(delivered)
        << ", \"burn_ms_1t\": " << jsonNumber(one_thread_ms)
        << ", \"compiler\": " << jsonString(compilerName())
        << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"git_sha\": " << jsonString(build.gitSha)
        << ", \"source_digest\": " << jsonString(build.sourceDigest)
        << ", \"durable_fs\": " << jsonString(filesystemName(durable_dir))
        << ", \"fsync_us\": " << jsonNumber(fsync_us)
        << ", \"fsync_real\": " << (fsync_us >= 20.0 ? "true" : "false")
        << "}";
    return out.str();
}

} // namespace tigr::perfbench
