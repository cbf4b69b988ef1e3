/**
 * @file
 * Versioned binary snapshots: the service layer's at-rest graph format.
 *
 * A snapshot persists a CSR graph — and optionally a materialized
 * virtual node array (Section 4 of the paper) — in one self-describing
 * container that loads in O(read) with no rebuild:
 *
 *   header  (88 bytes, fixed)
 *     magic            "TIGRSNP2"                       8 bytes
 *     version          u32  (currently 4)
 *     flags            u32  (bit 0: virtual section present)
 *     numNodes         u64
 *     numEdges         u64
 *     numVirtualNodes  u64  (0 without the virtual section)
 *     virtualDegreeBound  u32   }  build parameters of the
 *     virtualLayout       u32   }  persisted virtual array
 *     epoch            u64  (mutation epoch of the persisted state)
 *     payloadOffset    u64  (first payload byte; = 88)
 *     payloadBytes     u64  (total payload size)
 *     payloadChecksum  u64  (CRC-32C of the payload bytes,
 *                            zero-extended)
 *     headerChecksum   u64  (FNV-1a 64 of the preceding 80 bytes)
 *
 * Older versions still load. Version 3 has the same layout but an
 * FNV-1a 64 payload checksum. Version 2 files (80-byte header, no
 * epoch field, FNV-1a 64 payload checksum) predate the dynamic
 * subsystem; their epoch defaults to 0. The writer always emits
 * version 4, streaming the payload through a fixed buffer.
 *   payload (little-endian arrays, in this order)
 *     rowOffsets   (numNodes + 1) x u64
 *     colIndices   numEdges x u32
 *     weights      numEdges x u32
 *     [virtual section, when flags bit 0 is set]
 *     physicalIds  numVirtualNodes x u32
 *     starts       numVirtualNodes x u64
 *     strides      numVirtualNodes x u64
 *     counts       numVirtualNodes x u32
 *
 * Every field is written little-endian (the only byte order the repo's
 * binary formats target). All section offsets are 64-bit, so snapshots
 * scale past 4 GiB. Corrupt, truncated, or foreign files are rejected
 * with a typed SnapshotError — a snapshot load never exhibits
 * undefined behavior on bad input.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::dynamic {
class DynamicGraph;
class IncrementalVirtualizer;
} // namespace tigr::dynamic

namespace tigr::service {

/** Snapshot file extension the CLI dispatches on (".snap" already
 *  means a text edge list in this repo, so snapshots use ".tgs"). */
inline constexpr std::string_view kSnapshotExtension = ".tgs";

/** Mutation-log extension: the text MutationLog persisted beside a
 *  snapshot (see mutationLogPathFor). */
inline constexpr std::string_view kMutationLogExtension = ".tml";

/**
 * The conventional sidecar path for the mutation log of the snapshot at
 * @p snapshot_path: same directory and stem, extension swapped for
 * ".tml" (appended when the path has no extension; a dotfile like
 * ".hidden" counts as extensionless, yielding ".hidden.tml"). A store
 * that saves "g.tgs" at epoch E and the log of later batches to
 * "g.tml" can restore the snapshot and GraphStore::replayLog() its way
 * to any recorded epoch > E byte-identically.
 * @throws std::invalid_argument when the path has no filename (a
 *         trailing separator names a directory, not a snapshot).
 */
inline std::filesystem::path
mutationLogPathFor(const std::filesystem::path &snapshot_path)
{
    if (snapshot_path.filename().empty())
        throw std::invalid_argument(
            "tigr: cannot derive a mutation-log path from '" +
            snapshot_path.string() + "' (no filename)");
    std::filesystem::path out = snapshot_path;
    out.replace_extension(kMutationLogExtension);
    return out;
}

/** What went wrong loading a snapshot. */
enum class SnapshotErrorKind
{
    Io,               ///< File unopenable / unreadable / unwritable.
    BadMagic,         ///< Not a TIGRSNP container at all.
    BadVersion,       ///< A TIGRSNP container of an unsupported version.
    Truncated,        ///< File ends before the declared payload does.
    ChecksumMismatch, ///< Header or payload bytes fail their checksum.
    Inconsistent,     ///< Checksums pass but the arrays are invalid
                      ///< (non-monotone offsets, out-of-range ids, ...).
};

/** Display name of @p kind ("bad-magic", "truncated", ...). */
std::string_view snapshotErrorKindName(SnapshotErrorKind kind);

/** Typed snapshot failure: catch as SnapshotError to branch on kind(),
 *  or as std::runtime_error for a plain message. */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(SnapshotErrorKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {
    }

    SnapshotErrorKind kind() const { return kind_; }

  private:
    SnapshotErrorKind kind_;
};

/**
 * A loaded snapshot: the graph plus the optional persisted virtual
 * node array (as raw entries — bind them to the graph with
 * VirtualGraph::fromArrays once the Snapshot has a stable address).
 */
struct Snapshot
{
    graph::Csr graph;
    /** True when the container carried a virtual section. */
    bool hasVirtual = false;
    /** Degree bound K the persisted array was built with. */
    NodeId virtualDegreeBound = 0;
    /** Edge layout the persisted array was built with. */
    transform::EdgeLayout virtualLayout =
        transform::EdgeLayout::Coalesced;
    /** The persisted virtual node array (empty without the section). */
    std::vector<transform::VirtualNode> virtualNodes;
    /** Mutation epoch of the persisted state (0 for never-mutated
     *  graphs and for legacy v2 files, which predate the field). */
    std::uint64_t epoch = 0;
};

/** How loadSnapshotFile maps the file into memory. */
enum class SnapshotLoadMode
{
    Auto,   ///< Mmap when the platform supports it, else stream.
    Stream, ///< Buffered reads through an istream.
    Mmap,   ///< POSIX mmap of the whole file; throws Io if unavailable.
};

/** A snapshot's contents by reference: what the writers serialize,
 *  without first copying the arrays into a Snapshot. */
struct SnapshotView
{
    const graph::Csr &graph;
    bool hasVirtual = false;
    NodeId virtualDegreeBound = 0;
    transform::EdgeLayout virtualLayout =
        transform::EdgeLayout::Coalesced;
    /** Dense-addressed virtual node array (ignored without the
     *  section). */
    std::span<const transform::VirtualNode> virtualNodes = {};
    std::uint64_t epoch = 0;
};

/** Write @p snapshot to @p out. @throws SnapshotError (Io) on write
 *  failure, std::invalid_argument if virtualNodes is inconsistent with
 *  the graph. */
void saveSnapshot(const Snapshot &snapshot, std::ostream &out);

/**
 * Write @p view to @p path (conventionally "*.tgs"),
 * crash-consistently: the bytes go to "<path>.tmp" first, are flushed
 * and fsync'd, and the temp file is atomically renamed over @p path
 * (with the parent directory fsync'd after, where the platform
 * supports it). A crash at any point leaves either the old file intact
 * or a "*.tgs.tmp" leftover that auditSnapshotDirectory() quarantines
 * — never a partial snapshot under the real name. The temp file is
 * removed on any failure.
 */
void saveSnapshotFile(const SnapshotView &view,
                      const std::filesystem::path &path);

/** Convenience: saveSnapshotFile of @p snapshot's arrays. */
void saveSnapshotFile(const Snapshot &snapshot,
                      const std::filesystem::path &path);

/** Convenience: snapshot @p graph with no virtual section. */
void saveSnapshotFile(const graph::Csr &graph,
                      const std::filesystem::path &path);

/** Convenience: snapshot @p vg's physical graph plus its array. */
void saveSnapshotFile(const transform::VirtualGraph &vg,
                      const std::filesystem::path &path);

/**
 * Checkpoint a live slack-arena graph: write the same bytes as
 * saveSnapshotFile of `{graph.toCsr(), virtualizer->canonicalNodes()}`
 * at @p epoch, but stream the edge sections straight from @p graph's
 * segments in vertex order, with no dense CSR copy. @p virtualizer
 * (null for no virtual section) must be the Out-side array at the
 * graph's current epoch; its canonical entries are validated against
 * row offsets derived from the degrees, as fromArrays would.
 * @throws std::invalid_argument on a mismatched virtualizer, plus
 *         whatever the SnapshotView overload throws.
 */
void saveSnapshotFile(const dynamic::DynamicGraph &graph,
                      const dynamic::IncrementalVirtualizer *virtualizer,
                      std::uint64_t epoch,
                      const std::filesystem::path &path);

/** Load a snapshot from @p in. @throws SnapshotError. */
Snapshot loadSnapshot(std::istream &in);

/** Load a snapshot from @p path. @throws SnapshotError. */
Snapshot loadSnapshotFile(const std::filesystem::path &path,
                          SnapshotLoadMode mode = SnapshotLoadMode::Auto);

/** Parse a snapshot already in memory (the mmap path bottoms out
 *  here; also useful for in-memory round-trip tests).
 *  @throws SnapshotError. */
Snapshot parseSnapshot(const void *data, std::size_t size);

/** What auditSnapshotDirectory found, in sorted path order. */
struct SnapshotAuditReport
{
    /** Snapshots that load and validate cleanly. */
    std::vector<std::filesystem::path> intact;
    /** ".twj" journals beside an intact snapshot whose header checks
     *  out (a torn tail is fine — recovery truncates it). */
    std::vector<std::filesystem::path> journals;
    /** ".tml" mutation logs beside an intact snapshot that parse. */
    std::vector<std::filesystem::path> mutationLogs;
    /** Files renamed aside (to "<name>.quarantined"): corrupt ".tgs"
     *  files, "*.tgs.tmp" / "*.twj.tmp" leftovers of interrupted
     *  writes, and orphaned or corrupt ".tml"/".twj" sidecars. Holds
     *  the new (post-rename) paths. */
    std::vector<std::filesystem::path> quarantined;
};

/**
 * Scan @p dir (non-recursive, sorted order) for snapshot files and
 * their sidecars, and quarantine everything that cannot be trusted:
 *
 *  - "*.tgs.tmp" / "*.twj.tmp" leftovers of a crashed write or
 *    rotation — by construction never complete, always quarantined;
 *  - "*.tgs" files that fail to load (truncated, corrupted, foreign);
 *  - ".tml" / ".twj" sidecars with no intact snapshot under their stem
 *    (orphans — nothing to replay them onto);
 *  - ".tml" sidecars that fail to parse, and ".twj" sidecars whose
 *    32-byte header is corrupt (a torn record *tail* is NOT corruption
 *    — recovery truncates and preserves it).
 *
 * Quarantining renames to "<name>.quarantined" so a service never
 * repeatedly trips over a bad file at open. Intact files are left
 * untouched and listed. A file that cannot even be renamed is still
 * reported quarantined (under its original path).
 * @throws SnapshotError (Io) only when @p dir itself is unreadable.
 */
SnapshotAuditReport
auditSnapshotDirectory(const std::filesystem::path &dir);

} // namespace tigr::service
