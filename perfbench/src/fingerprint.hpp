/**
 * @file
 * Machine fingerprint recorded with every benchmark run, so two sets of
 * numbers can be told apart by the machine and build that made them.
 */
#pragma once

#include <filesystem>
#include <string>

namespace tigr::perfbench {

/** Build identity handed in by the launcher (run.py). */
struct BuildIdentity
{
    /** Commit SHA, or "unknown" outside a git checkout. */
    std::string gitSha = "unknown";
    /** SHA-256 over the library sources, for checkouts without git. */
    std::string sourceDigest = "unknown";
};

/**
 * Restrict this thread, and every thread it starts later, to the last
 * @p count CPUs it may run on (no-op when it may run on no more). The
 * workloads keep at most 2 host threads busy; pinning them keeps the
 * guest scheduler from moving them across idle CPUs, which on a shared
 * virtual machine made run-to-run times swing by a fifth.
 */
void pinToLastCpus(unsigned count);

/**
 * Probe the machine and return the fingerprint as a JSON object:
 * CPU model, logical CPUs and the CPUs this process is pinned to, the
 * delivered parallelism of a calibrated 2-thread burn on them (2.0 =
 * two full cores), compiler, flags and build type, the build identity,
 * and the
 * filesystem of @p durable_dir with a measured fsync latency (below
 * 20 microseconds the fsync is not real: tmpfs or a volatile cache).
 * Takes about half a second.
 */
std::string machineFingerprint(const std::filesystem::path &durable_dir,
                               const BuildIdentity &build);

} // namespace tigr::perfbench
