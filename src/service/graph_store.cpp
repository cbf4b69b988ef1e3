#include "service/graph_store.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tigr::service {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

std::optional<transform::VirtualGraph>
StoredGraph::virtualGraph() const
{
    if (!hasVirtual)
        return std::nullopt;
    return transform::VirtualGraph::fromArrays(
        graph, virtualDegreeBound, virtualLayout, virtualNodes);
}

const StoredGraph &
GraphStore::add(std::string name, graph::Csr graph, std::string source)
{
    if (name.empty())
        throw std::invalid_argument(
            "tigr: graph store names cannot be empty");
    if (entries_.count(name))
        throw std::invalid_argument("tigr: graph '" + name +
                                    "' is already registered");
    const auto start = std::chrono::steady_clock::now();
    auto entry = std::make_shared<StoredGraph>();
    entry->name = name;
    entry->graph = std::move(graph);
    entry->source = std::move(source);
    entry->loadMs = elapsedMs(start);
    StoredGraph &ref = *entry;
    entries_.emplace(std::move(name), Entry{std::move(entry), nullptr});
    return ref;
}

const StoredGraph &
GraphStore::addSnapshot(std::string name,
                        const std::filesystem::path &path,
                        SnapshotLoadMode mode)
{
    if (name.empty())
        throw std::invalid_argument(
            "tigr: graph store names cannot be empty");
    if (entries_.count(name))
        throw std::invalid_argument("tigr: graph '" + name +
                                    "' is already registered");
    const auto start = std::chrono::steady_clock::now();
    Snapshot snapshot = loadSnapshotFile(path, mode);
    auto entry = std::make_shared<StoredGraph>();
    entry->name = name;
    entry->graph = std::move(snapshot.graph);
    entry->hasVirtual = snapshot.hasVirtual;
    entry->virtualDegreeBound = snapshot.virtualDegreeBound;
    entry->virtualLayout = snapshot.virtualLayout;
    entry->virtualNodes = std::move(snapshot.virtualNodes);
    entry->source = path.string();
    entry->epoch = snapshot.epoch;
    entry->loadMs = elapsedMs(start);
    StoredGraph &ref = *entry;
    entries_.emplace(std::move(name), Entry{std::move(entry), nullptr});
    return ref;
}

SnapshotAuditReport
GraphStore::addSnapshotDirectory(const std::filesystem::path &dir,
                                 SnapshotLoadMode mode)
{
    SnapshotAuditReport report = auditSnapshotDirectory(dir);
    for (const std::filesystem::path &path : report.intact) {
        const std::string name = path.stem().string();
        if (name.empty() || entries_.count(name))
            continue; // keep the existing entry; the file is intact
        addSnapshot(name, path, mode);
    }
    return report;
}

MutateResult
GraphStore::mutate(std::string_view name,
                   const dynamic::MutationBatch &batch)
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    Entry &entry = it->second;
    const StoredGraph &current = *entry.stored;

    // Durable stores journal the batch BEFORE applying it (the WAL
    // invariant): the journal is the record of acknowledged history,
    // so nothing may change the graph without first reaching it. The
    // journal is opened lazily here — before any state changes.
    JournalWriter *journal = nullptr;
    if (durable_)
        journal = &ensureJournal(std::string(name));

    // First mutation of this entry: spin up the slack-arena graph and,
    // when the entry carries a virtual array, its incremental
    // virtualizer. Both start at relative epoch 0 == `current.epoch`.
    if (!entry.dynamic) {
        auto state = std::make_shared<DynamicState>();
        state->graph = dynamic::DynamicGraph(current.graph);
        if (current.hasVirtual) {
            state->virtualizer.emplace(state->graph,
                                       current.virtualDegreeBound,
                                       current.virtualLayout);
            state->reverseVirtualizer.emplace(
                state->graph, current.virtualDegreeBound,
                current.virtualLayout, nullptr, dynamic::GraphSide::In);
        }
        state->base = current.epoch;
        entry.dynamic = std::move(state);
    }
    DynamicState &state = *entry.dynamic;

    if (journal)
        journal->append(state.base + state.graph.epoch() + 1, batch);

    // Validation failures and injected mutation.apply faults throw out
    // of here with the arena — and therefore the entry — unchanged;
    // the journaled record of the rejected batch is rolled back so the
    // journal never acknowledges an epoch the graph refused.
    MutateResult result;
    try {
        result.delta = state.graph.apply(batch);
    } catch (...) {
        if (journal)
            journal->abortLast();
        throw;
    }
    if (state.virtualizer) {
        result.repair = state.virtualizer->applyDelta(result.delta);
        result.virtualRepaired = true;
    }
    if (state.reverseVirtualizer) {
        // Time the mirror's repair separately: it is the marginal cost
        // the reverse arena adds to the mutation path, surfaced as the
        // wall-clock `mutation.reverse_repair_us` counter (metrics
        // only; deterministic traces carry the repair counts instead).
        const auto reverse_start = std::chrono::steady_clock::now();
        result.reverseRepair =
            state.reverseVirtualizer->applyDelta(result.delta);
        result.reverseRepairUs =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - reverse_start)
                .count();
    }

    // Publish the next epoch by marking the dense StoredGraph stale —
    // O(1); the next find/at/pin materializes it. Pinned readers of the
    // old version keep it alive through their shared_ptr.
    state.staleDense.store(true, std::memory_order_release);

    result.epoch = state.base + result.delta.epoch;
    result.liveEdges = state.graph.numEdges();

    // Compact only after the epoch is published: an injected
    // mutation.compact fault then interrupts slack reclamation alone —
    // the arena (and the stale flag the next read materializes from)
    // is already consistent.
    if (state.graph.shouldCompact()) {
        result.reclaimed = state.graph.compact();
        result.compacted = true;
        // Compaction renumbers every arena slot (both sides); the
        // arena-addressed entries must be rebased before they are read
        // or repaired again. This is the one residual whole-array
        // sweep left on the mutation path.
        if (state.virtualizer)
            state.virtualizer->rebase();
        if (state.reverseVirtualizer)
            state.reverseVirtualizer->rebase();
    } else {
        if (state.virtualizer &&
            state.virtualizer->shouldCompactEntries())
            state.virtualizer->rebase();
        if (state.reverseVirtualizer &&
            state.reverseVirtualizer->shouldCompactEntries())
            state.reverseVirtualizer->rebase();
    }
    result.slackSlots = state.graph.slackSlots();
    return result;
}

const std::shared_ptr<StoredGraph> &
GraphStore::materialized(const Entry &entry) const
{
    if (!entry.dynamic ||
        !entry.dynamic->staleDense.load(std::memory_order_acquire))
        return entry.stored;

    std::lock_guard<std::mutex> lock(materializeMutex_);
    DynamicState &state = *entry.dynamic;
    if (!state.staleDense.load(std::memory_order_relaxed))
        return entry.stored; // another reader already materialized

    const StoredGraph &current = *entry.stored;
    const auto start = std::chrono::steady_clock::now();
    auto next = std::make_shared<StoredGraph>();
    next->name = current.name;
    next->graph = state.graph.toCsr();
    next->hasVirtual = current.hasVirtual;
    next->virtualDegreeBound = current.virtualDegreeBound;
    next->virtualLayout = current.virtualLayout;
    if (state.virtualizer)
        next->virtualNodes = state.virtualizer->canonicalNodes();
    next->source = current.source;
    next->epoch = state.base + state.graph.epoch();
    next->loadMs = elapsedMs(start);
    entry.stored = std::move(next);
    // Release pairs with the fast path's acquire: a reader that sees
    // the flag clear also sees the fully built StoredGraph.
    state.staleDense.store(false, std::memory_order_release);
    return entry.stored;
}

std::uint64_t
GraphStore::epochOf(std::string_view name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    const Entry &entry = it->second;
    if (entry.dynamic)
        return entry.dynamic->base + entry.dynamic->graph.epoch();
    return entry.stored->epoch;
}

std::size_t
GraphStore::replayLog(std::string_view name, std::istream &log,
                      std::optional<std::uint64_t> target_epoch)
{
    if (!contains(name))
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    dynamic::MutationLogReader reader(log);
    std::size_t applied = 0;
    while (!target_epoch || epochOf(name) < *target_epoch) {
        std::optional<dynamic::MutationBatch> batch = reader.next();
        if (!batch)
            break;
        mutate(name, *batch);
        ++applied;
    }
    return applied;
}

std::shared_ptr<const StoredGraph>
GraphStore::pin(std::string_view name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    return materialized(it->second);
}

const StoredGraph *
GraphStore::peek(std::string_view name) const
{
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.stored.get();
}

ArenaView
GraphStore::arenaView(std::string_view name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    ArenaView view;
    const Entry &entry = it->second;
    if (!entry.dynamic)
        return view;
    const DynamicState &state = *entry.dynamic;
    view.graph = &state.graph;
    if (state.virtualizer)
        view.forward = &*state.virtualizer;
    if (state.reverseVirtualizer)
        view.reverse = &*state.reverseVirtualizer;
    view.epoch = state.base + state.graph.epoch();
    view.staleDense = state.staleDense.load(std::memory_order_acquire);
    return view;
}

const StoredGraph *
GraphStore::find(std::string_view name) const
{
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr
                                : materialized(it->second).get();
}

const StoredGraph &
GraphStore::at(std::string_view name) const
{
    const StoredGraph *entry = find(name);
    if (!entry)
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    return *entry;
}

bool
GraphStore::remove(std::string_view name)
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        return false;
    entries_.erase(it);
    if (durable_) {
        auto jit = durable_->journals.find(name);
        if (jit != durable_->journals.end())
            durable_->journals.erase(jit);
    }
    return true;
}

RecoveryReport
GraphStore::openDurable(const std::filesystem::path &dir,
                        DurableOptions options)
{
    if (durable_)
        throw std::logic_error(
            "tigr: the store is already durable over '" +
            durable_->dir.string() + "'");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw SnapshotError(SnapshotErrorKind::Io,
                            "tigr: cannot create durable directory " +
                                dir.string() + ": " + ec.message());
    // Recover BEFORE arming the journal state: replayed batches flow
    // through mutate() and must not be re-journaled.
    RecoveryManager manager(dir, options);
    RecoveryReport report = manager.recover(*this);
    durable_.emplace();
    durable_->dir = dir;
    durable_->options = options;
    return report;
}

const std::filesystem::path &
GraphStore::durableDir() const
{
    if (!durable_)
        throw std::logic_error("tigr: the store is not durable");
    return durable_->dir;
}

void
GraphStore::writeSnapshot(std::string_view name,
                          const std::filesystem::path &path)
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    const Entry &entry = it->second;
    if (entry.dynamic &&
        entry.dynamic->staleDense.load(std::memory_order_acquire)) {
        // Stream the checkpoint straight from the arena; the dense
        // entry stays stale (no query needs it yet).
        const DynamicState &state = *entry.dynamic;
        saveSnapshotFile(state.graph,
                         state.virtualizer ? &*state.virtualizer
                                           : nullptr,
                         state.base + state.graph.epoch(), path);
        return;
    }
    const StoredGraph &stored = *entry.stored;
    saveSnapshotFile(SnapshotView{stored.graph, stored.hasVirtual,
                                  stored.virtualDegreeBound,
                                  stored.virtualLayout,
                                  stored.virtualNodes, stored.epoch},
                     path);
}

JournalWriter &
GraphStore::ensureJournal(const std::string &name)
{
    auto it = durable_->journals.find(name);
    if (it != durable_->journals.end())
        return it->second;

    const std::filesystem::path snapshotPath =
        durable_->dir / (name + std::string(kSnapshotExtension));
    const std::filesystem::path journalPath =
        journalPathFor(snapshotPath);
    std::error_code ec;
    if (std::filesystem::exists(journalPath, ec) && !ec) {
        JournalWriter writer = JournalWriter::resume(
            journalPath, durable_->options.syncPolicy);
        writer.observe(durable_->options.metrics,
                       durable_->options.trace);
        return durable_->journals.emplace(name, std::move(writer))
            .first->second;
    }
    // First journal for this graph: put the base snapshot on disk
    // first (when the graph has none), so the journal always extends a
    // durable snapshot. A crash between the two leaves a snapshot with
    // no journal — recovery serves it as-is.
    ec.clear();
    if (!std::filesystem::exists(snapshotPath, ec) || ec)
        writeSnapshot(name, snapshotPath);
    JournalWriter writer = JournalWriter::create(
        journalPath, epochOf(name), durable_->options.syncPolicy);
    writer.observe(durable_->options.metrics, durable_->options.trace);
    return durable_->journals.emplace(name, std::move(writer))
        .first->second;
}

CheckpointResult
GraphStore::checkpoint(std::string_view name)
{
    if (!durable_)
        throw std::logic_error(
            "tigr: checkpoint requires a durable store (openDurable)");
    if (!contains(name))
        throw std::out_of_range("tigr: no graph named '" +
                                std::string(name) + "' in the store");
    const std::string key(name);

    // Ack everything outstanding before folding it into the snapshot.
    std::uint64_t retired = 0;
    auto it = durable_->journals.find(key);
    if (it != durable_->journals.end()) {
        it->second.sync();
        retired = it->second.records();
    }

    CheckpointResult result;
    result.snapshot =
        durable_->dir / (key + std::string(kSnapshotExtension));
    result.journal = journalPathFor(result.snapshot);
    writeSnapshot(name, result.snapshot);
    result.epoch = epochOf(name);
    result.retiredRecords = retired;

    // Rotate: build the fresh journal beside the live one, then
    // atomically swap it in. A crash before the rename leaves the old
    // journal (its records now retire against the new snapshot) plus a
    // "*.twj.tmp" leftover the audit quarantines; after, the fresh
    // journal.
    const std::filesystem::path tmp =
        result.journal.parent_path() /
        (result.journal.filename().string() + ".tmp");
    JournalWriter fresh = JournalWriter::create(
        tmp, result.epoch, durable_->options.syncPolicy);
    fresh.observe(durable_->options.metrics, durable_->options.trace);
    fresh.rotateInto(result.journal);
    io::syncPath(durable_->dir, /*directory=*/true);
    const std::uint64_t bytesAfter = fresh.bytes();
    if (it != durable_->journals.end())
        it->second = std::move(fresh);
    else
        durable_->journals.emplace(key, std::move(fresh));

    if (durable_->options.metrics) {
        durable_->options.metrics->counter("journal.checkpoints")
            .add(1);
        durable_->options.metrics->counter("journal.retired")
            .add(retired);
    }
    if (durable_->options.trace) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::JournalCheckpoint;
        event.arg[0] = result.epoch;
        event.arg[1] = retired;
        event.arg[2] = bytesAfter;
        durable_->options.trace->record(event);
    }
    return result;
}

void
GraphStore::syncJournals()
{
    if (!durable_)
        return;
    for (auto &[name, journal] : durable_->journals)
        journal.sync();
}

std::vector<std::string>
GraphStore::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out;
}

std::size_t
GraphStore::totalBytes() const
{
    std::size_t bytes = 0;
    for (const auto &[name, entry] : entries_)
        bytes += entry.stored->graph.sizeInBytes();
    return bytes;
}

} // namespace tigr::service
