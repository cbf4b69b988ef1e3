/**
 * @file
 * The write-ahead mutation journal: the service's durable record of
 * acknowledged mutation batches (docs/durability.md).
 *
 * A `.twj` file sits beside its graph's `.tgs` snapshot and holds one
 * binary record per applied batch:
 *
 *   header  (32 bytes, fixed)
 *     magic          "TIGRWJL1"                        8 bytes
 *     version        u32  (currently 1)
 *     flags          u32  (reserved, 0)
 *     baseEpoch      u64  (epoch of the snapshot this journal extends)
 *     headerChecksum u64  (FNV-1a 64 of the preceding 24 bytes)
 *   record, repeated
 *     payloadBytes   u32  (length prefix)
 *     payloadCrc     u32  (CRC-32C of the payload bytes)
 *     payload
 *       epoch        u64  (the epoch this batch produced)
 *       seq          u64  (record index within the file, from 0)
 *       count        u32  (mutations in the batch)
 *       count x { kind u8, src u32, dst u32, weight u32 }
 *
 * Everything is little-endian, like every binary format in this repo.
 * One append = one write() of the whole frame, so a crash can tear at
 * most the last record — scanJournal() walks the length prefixes,
 * verifies each CRC and the seq chain, and stops at the first frame
 * that does not check out: everything before it is intact, everything
 * from it on is the torn tail recovery truncates (and preserves
 * aside). Scanning never throws on hostile bytes; only an unreadable
 * file is an error.
 *
 * Sync policies order the ack against the disk: EveryRecord fsyncs
 * inside append() (strict WAL — nothing acknowledged that is not on
 * disk), GroupCommit batches the fsync into one sync() per scheduler
 * batch (the scheduler calls GraphStore::syncJournals() at the batch
 * boundary), Unsynced never fsyncs (bounded data loss, benchmarking
 * and bulk load only). bench/journal_overhead measures the gap.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dynamic/mutation.hpp"
#include "service/crc32c.hpp"
#include "service/fileio.hpp"

namespace tigr::obs {
class MetricsRegistry;
class TraceSink;
} // namespace tigr::obs

namespace tigr::service {

/** Journal file extension (sits beside ".tgs" / ".tml" sidecars). */
inline constexpr std::string_view kJournalExtension = ".twj";

/** The conventional journal sidecar path for the snapshot at
 *  @p snapshot_path: same directory and stem, extension swapped for
 *  ".twj". @throws std::invalid_argument when the path has no filename
 *  (a trailing separator names a directory, not a journal). */
std::filesystem::path
journalPathFor(const std::filesystem::path &snapshot_path);

/** When an append is ordered to disk relative to its acknowledgment. */
enum class SyncPolicy
{
    EveryRecord, ///< fsync inside append(): strict per-record WAL.
    GroupCommit, ///< fsync once per batch, at the sync() barrier.
    Unsynced,    ///< never fsync: bounded loss, bulk load only.
};

/** Display name ("every-record", "group-commit", "unsynced"). */
std::string_view syncPolicyName(SyncPolicy policy);

/** Parse a display name back to a policy. */
std::optional<SyncPolicy> parseSyncPolicy(std::string_view name);

/** What went wrong on the journal's non-recovery paths. */
enum class JournalErrorKind
{
    Io,         ///< File unopenable / unwritable.
    BadMagic,   ///< Not a TIGRWJL container (resume refuses it).
    BadVersion, ///< A TIGRWJL container of an unsupported version.
};

/** Typed journal failure. Never thrown for hostile record bytes —
 *  those are a torn tail, reported through JournalScan instead. */
class JournalError : public std::runtime_error
{
  public:
    JournalError(JournalErrorKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {
    }

    JournalErrorKind kind() const { return kind_; }

  private:
    JournalErrorKind kind_;
};

/** One intact journal record. */
struct JournalRecord
{
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    /** Byte offset of this record's frame in the file — where recovery
     *  truncates when the record turns out to be inapplicable. */
    std::uint64_t offset = 0;
    dynamic::MutationBatch batch;
};

/** What scanJournal() found. */
struct JournalScan
{
    /** False when the 32-byte header itself is missing, foreign, or
     *  corrupt — nothing in the file can be trusted then. */
    bool headerIntact = false;
    /** Header baseEpoch (0 when the header is not intact). */
    std::uint64_t baseEpoch = 0;
    /** Every intact record, in seq order. */
    std::vector<JournalRecord> records;
    /** First byte past the last intact record (= the torn tail's
     *  start; 0 when the header is not intact). */
    std::uint64_t intactBytes = 0;
    /** Total file size. */
    std::uint64_t fileBytes = 0;

    /** Bytes of torn tail (0 = the file is clean). */
    std::uint64_t tornBytes() const { return fileBytes - intactBytes; }
};

/**
 * Walk the journal at @p path: header check, then records until the
 * first frame whose length prefix, CRC, seq chain, or mutation
 * encoding does not check out. Hostile bytes are never an exception —
 * they are where the intact prefix ends.
 * @throws JournalError (Io) only when the file cannot be read at all.
 */
JournalScan scanJournal(const std::filesystem::path &path);

/**
 * The append half: owns the file handle, frames + checksums records,
 * and orders fsyncs per its SyncPolicy. All writes flow through the
 * io:: crash shim, so the torture harness can cut any append at any
 * byte offset. Single-writer by contract (the store mutates between
 * query batches); not internally synchronized.
 */
class JournalWriter
{
  public:
    /** Start a fresh journal at @p path (truncating any existing
     *  file): header written, synced, and the parent directory synced,
     *  so the journal exists durably before its first record.
     *  @throws JournalError (Io). */
    static JournalWriter create(const std::filesystem::path &path,
                                std::uint64_t base_epoch,
                                SyncPolicy policy);

    /** Resume appending to an existing journal: scan it, silently drop
     *  any torn tail (recovery has already preserved it aside), and
     *  position after the last intact record.
     *  @throws JournalError (Io / BadMagic / BadVersion) when the file
     *          is unreadable or its header cannot be trusted. */
    static JournalWriter resume(const std::filesystem::path &path,
                                SyncPolicy policy);

    JournalWriter(JournalWriter &&) = default;
    JournalWriter &operator=(JournalWriter &&) = default;
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Append one record (one frame, one write). Under EveryRecord the
     * record is fsync'd before returning — the WAL ack. Under
     * GroupCommit/Unsynced the frame is written but the caller must
     * not acknowledge until sync() (GroupCommit) or ever rely on
     * durability (Unsynced).
     * @throws JournalError (Io), fault::InjectedCrash under an armed
     *         crash scope or a fired journal.append/journal.sync site.
     */
    void append(std::uint64_t epoch,
                const dynamic::MutationBatch &batch);

    /** Group-commit barrier: fsync everything appended since the last
     *  sync (no-op when clean or Unsynced). @throws JournalError (Io),
     *  fault::InjectedCrash. */
    void sync();

    /**
     * Roll back the most recent append() (the store's apply rejected
     * the batch after the record was written): truncate the file to
     * the pre-append offset and reuse its seq. Only valid while that
     * record is the unacknowledged tail — i.e. immediately after the
     * append whose batch was rejected. @throws JournalError (Io),
     * std::logic_error when there is nothing to abort.
     */
    void abortLast();

    const std::filesystem::path &path() const { return path_; }
    std::uint64_t baseEpoch() const { return baseEpoch_; }
    /** Records currently in the file. */
    std::uint64_t records() const { return nextSeq_; }
    /** Bytes currently in the file (header + intact records). */
    std::uint64_t bytes() const { return bytes_; }
    SyncPolicy policy() const { return policy_; }

    /** Attach observability sinks (either may be null). Counters:
     *  journal.appends/bytes/syncs/aborts; trace: journal.append. */
    void observe(obs::MetricsRegistry *metrics, obs::TraceSink *trace);

    /** Checkpoint rotation: atomically rename this (freshly created)
     *  journal over @p target and track the new path. The caller syncs
     *  the directory after. @throws JournalError (Io),
     *  fault::InjectedCrash. */
    void rotateInto(const std::filesystem::path &target);

  private:
    JournalWriter(io::FileHandle file, std::filesystem::path path,
                  std::uint64_t base_epoch, SyncPolicy policy,
                  std::uint64_t next_seq);

    void syncNow();

    io::FileHandle file_;
    std::filesystem::path path_;
    std::uint64_t baseEpoch_ = 0;
    SyncPolicy policy_ = SyncPolicy::GroupCommit;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t bytes_ = 0;
    /** Offset before the most recent append (abortLast target);
     *  nullopt once synced or aborted. */
    std::optional<std::uint64_t> lastAppendOffset_;
    /** Appended-but-not-fsynced bytes exist. */
    bool dirty_ = false;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::TraceSink *trace_ = nullptr;
};

} // namespace tigr::service
