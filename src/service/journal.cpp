#include "service/journal.hpp"

#include <cstring>
#include <fstream>
#include <utility>

#include "fault/fault.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tigr::service {

namespace {

constexpr char kJournalMagic[8] = {'T', 'I', 'G', 'R',
                                   'W', 'J', 'L', '1'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderBytes = 32;
/** Header bytes covered by the trailing FNV-1a checksum. */
constexpr std::size_t kHeaderHashed = kHeaderBytes - sizeof(std::uint64_t);
/** Fixed payload prefix: epoch u64 + seq u64 + count u32. */
constexpr std::size_t kRecordFixed = 20;
/** Wire bytes per mutation: kind u8 + src/dst/weight u32. */
constexpr std::size_t kMutationBytes = 13;
/** Length-prefix sanity cap: nothing this repo writes comes close, so
 *  anything larger is hostile bytes, not a record. */
constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

[[noreturn]] void
fail(JournalErrorKind kind, const std::string &message)
{
    throw JournalError(kind, "tigr: " + message);
}

void
putU8(std::string &out, std::uint8_t value)
{
    out.push_back(static_cast<char>(value));
}

void
putU32(std::string &out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

void
putU64(std::string &out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
        value = (value << 8) | p[i];
    return value;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | p[i];
    return value;
}

std::string
encodeHeader(std::uint64_t base_epoch)
{
    std::string out;
    out.reserve(kHeaderBytes);
    out.append(kJournalMagic, sizeof(kJournalMagic));
    putU32(out, kJournalVersion);
    putU32(out, 0); // flags, reserved
    putU64(out, base_epoch);
    putU64(out, graph::fnv1a64(out.data(), kHeaderHashed));
    return out;
}

/** Payload of one record (everything the CRC covers). */
std::string
encodePayload(std::uint64_t epoch, std::uint64_t seq,
              const dynamic::MutationBatch &batch)
{
    std::string out;
    out.reserve(kRecordFixed + batch.size() * kMutationBytes);
    putU64(out, epoch);
    putU64(out, seq);
    putU32(out, static_cast<std::uint32_t>(batch.size()));
    for (const dynamic::Mutation &m : batch) {
        putU8(out, static_cast<std::uint8_t>(m.kind));
        putU32(out, m.src);
        putU32(out, m.dst);
        putU32(out, m.weight);
    }
    return out;
}

/** Decode one payload; nullopt on any inconsistency (the caller treats
 *  that as the torn tail, never as an exception). */
std::optional<JournalRecord>
decodePayload(const unsigned char *p, std::size_t size)
{
    if (size < kRecordFixed)
        return std::nullopt;
    JournalRecord record;
    record.epoch = getU64(p);
    record.seq = getU64(p + 8);
    const std::uint32_t count = getU32(p + 16);
    if (size != kRecordFixed + std::size_t{count} * kMutationBytes)
        return std::nullopt;
    record.batch.reserve(count);
    const unsigned char *cursor = p + kRecordFixed;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t kind = cursor[0];
        if (kind > static_cast<std::uint8_t>(
                       dynamic::MutationKind::UpdateWeight))
            return std::nullopt;
        dynamic::Mutation m;
        m.kind = static_cast<dynamic::MutationKind>(kind);
        m.src = getU32(cursor + 1);
        m.dst = getU32(cursor + 5);
        m.weight = getU32(cursor + 9);
        record.batch.push_back(m);
        cursor += kMutationBytes;
    }
    return record;
}

} // namespace

std::filesystem::path
journalPathFor(const std::filesystem::path &snapshot_path)
{
    if (snapshot_path.filename().empty())
        throw std::invalid_argument(
            "tigr: cannot derive a journal path from '" +
            snapshot_path.string() + "' (no filename)");
    std::filesystem::path out = snapshot_path;
    out.replace_extension(kJournalExtension);
    return out;
}

std::string_view
syncPolicyName(SyncPolicy policy)
{
    switch (policy) {
      case SyncPolicy::EveryRecord: return "every-record";
      case SyncPolicy::GroupCommit: return "group-commit";
      case SyncPolicy::Unsynced: return "unsynced";
    }
    return "unknown";
}

std::optional<SyncPolicy>
parseSyncPolicy(std::string_view name)
{
    for (SyncPolicy policy : {SyncPolicy::EveryRecord,
                              SyncPolicy::GroupCommit,
                              SyncPolicy::Unsynced})
        if (syncPolicyName(policy) == name)
            return policy;
    return std::nullopt;
}

JournalScan
scanJournal(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail(JournalErrorKind::Io,
             "cannot open journal " + path.string());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        fail(JournalErrorKind::Io,
             "cannot read journal " + path.string());

    JournalScan scan;
    scan.fileBytes = bytes.size();
    const unsigned char *base =
        reinterpret_cast<const unsigned char *>(bytes.data());

    // Header: magic + version + checksum, or nothing in the file can
    // be trusted.
    if (bytes.size() < kHeaderBytes ||
        std::memcmp(base, kJournalMagic, sizeof(kJournalMagic)) != 0 ||
        getU32(base + 8) != kJournalVersion ||
        getU64(base + kHeaderHashed) !=
            graph::fnv1a64(base, kHeaderHashed))
        return scan;
    scan.headerIntact = true;
    scan.baseEpoch = getU64(base + 16);
    scan.intactBytes = kHeaderBytes;

    // Records: stop at the first frame that fails the length prefix,
    // the CRC, the seq chain, or the mutation encoding — from there on
    // it is the torn tail.
    std::size_t pos = kHeaderBytes;
    while (pos + 8 <= bytes.size()) {
        const std::uint32_t payloadBytes = getU32(base + pos);
        const std::uint32_t payloadCrc = getU32(base + pos + 4);
        if (payloadBytes > kMaxPayloadBytes ||
            pos + 8 + payloadBytes > bytes.size())
            break;
        const unsigned char *payload = base + pos + 8;
        if (crc32c(payload, payloadBytes) != payloadCrc)
            break;
        std::optional<JournalRecord> record =
            decodePayload(payload, payloadBytes);
        if (!record || record->seq != scan.records.size())
            break;
        record->offset = pos;
        scan.records.push_back(std::move(*record));
        pos += 8 + payloadBytes;
        scan.intactBytes = pos;
    }
    return scan;
}

JournalWriter::JournalWriter(io::FileHandle file,
                             std::filesystem::path path,
                             std::uint64_t base_epoch,
                             SyncPolicy policy, std::uint64_t next_seq)
    : file_(std::move(file)), path_(std::move(path)),
      baseEpoch_(base_epoch), policy_(policy), nextSeq_(next_seq),
      bytes_(file_.offset())
{
}

JournalWriter
JournalWriter::create(const std::filesystem::path &path,
                      std::uint64_t base_epoch, SyncPolicy policy)
{
    try {
        io::FileHandle file = io::FileHandle::createTruncated(path);
        const std::string header = encodeHeader(base_epoch);
        file.writeAll(header.data(), header.size());
        // The header is synced unconditionally (even Unsynced): a
        // journal that exists must at least be identifiable.
        file.sync();
        const std::filesystem::path parent = path.parent_path();
        io::syncPath(parent.empty() ? "." : parent, /*directory=*/true);
        return JournalWriter(std::move(file), path, base_epoch, policy,
                             0);
    } catch (const io::IoError &error) {
        fail(JournalErrorKind::Io, error.what());
    }
}

JournalWriter
JournalWriter::resume(const std::filesystem::path &path,
                      SyncPolicy policy)
{
    JournalScan scan = scanJournal(path);
    if (!scan.headerIntact) {
        // Classify for the error message: a right-magic wrong-version
        // file is a version problem, anything else is foreign bytes.
        std::ifstream in(path, std::ios::binary);
        char head[12] = {};
        in.read(head, sizeof(head));
        if (in.gcount() == sizeof(head) &&
            std::memcmp(head, kJournalMagic,
                        sizeof(kJournalMagic)) == 0 &&
            getU32(reinterpret_cast<const unsigned char *>(head) + 8) !=
                kJournalVersion)
            fail(JournalErrorKind::BadVersion,
                 "journal " + path.string() +
                     " has an unsupported version");
        fail(JournalErrorKind::BadMagic,
             "journal " + path.string() + " has no intact header");
    }
    try {
        io::FileHandle file =
            io::FileHandle::openAt(path, scan.intactBytes);
        return JournalWriter(std::move(file), path, scan.baseEpoch,
                             policy, scan.records.size());
    } catch (const io::IoError &error) {
        fail(JournalErrorKind::Io, error.what());
    }
}

void
JournalWriter::append(std::uint64_t epoch,
                      const dynamic::MutationBatch &batch)
{
    TIGR_FAULT_POINT(fault::Site::JournalAppend);
    const std::string payload = encodePayload(epoch, nextSeq_, batch);
    std::string frame;
    frame.reserve(8 + payload.size());
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    putU32(frame, crc32c(payload.data(), payload.size()));
    frame += payload;

    lastAppendOffset_ = bytes_;
    try {
        // One write per frame: a crash tears at most this record.
        file_.writeAll(frame.data(), frame.size());
    } catch (const io::IoError &error) {
        fail(JournalErrorKind::Io, error.what());
    }
    bytes_ += frame.size();
    ++nextSeq_;
    dirty_ = true;

    if (metrics_) {
        metrics_->counter("journal.appends").add(1);
        metrics_->counter("journal.bytes").add(frame.size());
    }
    const bool syncedInline = policy_ == SyncPolicy::EveryRecord;
    if (trace_) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::JournalAppend;
        event.label[0] = syncPolicyName(policy_);
        event.arg[0] = epoch;
        event.arg[1] = nextSeq_ - 1;
        event.arg[2] = frame.size();
        event.arg[3] = syncedInline ? 1 : 0;
        trace_->record(event);
    }
    if (syncedInline)
        syncNow();
}

void
JournalWriter::sync()
{
    if (!dirty_ || policy_ == SyncPolicy::Unsynced)
        return;
    syncNow();
}

void
JournalWriter::syncNow()
{
    TIGR_FAULT_POINT(fault::Site::JournalSync);
    try {
        file_.sync();
    } catch (const io::IoError &error) {
        fail(JournalErrorKind::Io, error.what());
    }
    dirty_ = false;
    if (metrics_)
        metrics_->counter("journal.syncs").add(1);
}

void
JournalWriter::abortLast()
{
    if (!lastAppendOffset_)
        throw std::logic_error(
            "tigr: journal abortLast with no append to abort");
    try {
        file_.truncateTo(*lastAppendOffset_);
    } catch (const io::IoError &error) {
        fail(JournalErrorKind::Io, error.what());
    }
    bytes_ = *lastAppendOffset_;
    --nextSeq_;
    lastAppendOffset_.reset();
    if (metrics_)
        metrics_->counter("journal.aborts").add(1);
}

void
JournalWriter::observe(obs::MetricsRegistry *metrics,
                       obs::TraceSink *trace)
{
    metrics_ = metrics;
    trace_ = trace;
}

void
JournalWriter::rotateInto(const std::filesystem::path &target)
{
    try {
        // The fd survives the rename, so appends keep flowing to the
        // same (now renamed) file.
        io::renameFile(path_, target);
    } catch (const io::IoError &error) {
        fail(JournalErrorKind::Io, error.what());
    }
    path_ = target;
}

} // namespace tigr::service
