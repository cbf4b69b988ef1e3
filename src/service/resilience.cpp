#include "service/resilience.hpp"

#include <new>

#include "service/fileio.hpp"
#include "service/journal.hpp"
#include "service/snapshot.hpp"

namespace tigr::service {

std::string_view
serviceErrorKindName(ServiceErrorKind kind)
{
    switch (kind) {
      case ServiceErrorKind::InvalidQuery: return "invalid-query";
      case ServiceErrorKind::Quarantined: return "quarantined";
      case ServiceErrorKind::Snapshot: return "snapshot";
      case ServiceErrorKind::TransformBuild: return "transform-build";
      case ServiceErrorKind::CacheInsert: return "cache-insert";
      case ServiceErrorKind::Engine: return "engine";
      case ServiceErrorKind::Resource: return "resource";
      case ServiceErrorKind::Mutation: return "mutation";
      case ServiceErrorKind::Durability: return "durability";
    }
    return "unknown";
}

bool
ServiceError::retryable() const
{
    switch (kind) {
      case ServiceErrorKind::InvalidQuery:
      case ServiceErrorKind::Quarantined:
        return false;
      // A failed journal write leaves the batch unacknowledged, yet
      // some of its bytes may already be on disk: a blind retry could
      // journal the batch twice. Recovery, not retry, resolves it.
      case ServiceErrorKind::Durability:
        return false;
      case ServiceErrorKind::Snapshot:
      case ServiceErrorKind::TransformBuild:
      case ServiceErrorKind::CacheInsert:
      case ServiceErrorKind::Engine:
      case ServiceErrorKind::Resource:
      case ServiceErrorKind::Mutation:
        return true;
    }
    return false;
}

ServiceError
classifyFailure(const std::exception &e)
{
    ServiceError error;
    error.message = e.what();
    if (const auto *injected =
            dynamic_cast<const fault::InjectedFault *>(&e)) {
        error.site = injected->site();
        switch (injected->site()) {
          case fault::Site::SnapshotRead:
          case fault::Site::SnapshotMmap:
            error.kind = ServiceErrorKind::Snapshot;
            break;
          case fault::Site::CacheInsert:
            error.kind = ServiceErrorKind::CacheInsert;
            break;
          case fault::Site::TransformBuild:
            error.kind = ServiceErrorKind::TransformBuild;
            break;
          case fault::Site::EngineIteration:
            error.kind = ServiceErrorKind::Engine;
            break;
          case fault::Site::Alloc:
            error.kind = ServiceErrorKind::Resource;
            break;
          case fault::Site::MutationApply:
          case fault::Site::MutationCompact:
            error.kind = ServiceErrorKind::Mutation;
            break;
          case fault::Site::JournalAppend:
          case fault::Site::JournalSync:
            error.kind = ServiceErrorKind::Durability;
            break;
        }
        return error;
    }
    if (dynamic_cast<const SnapshotError *>(&e)) {
        error.kind = ServiceErrorKind::Snapshot;
        return error;
    }
    if (dynamic_cast<const JournalError *>(&e) ||
        dynamic_cast<const io::IoError *>(&e)) {
        error.kind = ServiceErrorKind::Durability;
        return error;
    }
    if (dynamic_cast<const std::bad_alloc *>(&e)) {
        error.kind = ServiceErrorKind::Resource;
        // bad_alloc's what() is unhelpfully terse; say what it means.
        error.message = "allocation failure: " + error.message;
        return error;
    }
    error.kind = ServiceErrorKind::Engine;
    return error;
}

std::string_view
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed: return "closed";
      case BreakerState::Open: return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    return "unknown";
}

void
CircuitBreaker::beginBatch()
{
    ++batch_;
    for (auto &[graph, entry] : entries_) {
        if (entry.state == BreakerState::Open &&
            batch_ > entry.openedAt + options_.cooldownBatches) {
            entry.state = BreakerState::HalfOpen;
            // One more fault re-opens immediately.
            entry.consecutive =
                options_.threshold > 0 ? options_.threshold - 1 : 0;
        }
    }
}

bool
CircuitBreaker::admits(std::string_view graph) const
{
    return state(graph) != BreakerState::Open;
}

void
CircuitBreaker::recordFault(std::string_view graph)
{
    auto it = entries_.find(graph);
    if (it == entries_.end())
        it = entries_.emplace(std::string(graph), Entry{}).first;
    Entry &entry = it->second;
    if (entry.state == BreakerState::Open)
        return; // quarantined queries never ran; nothing to count
    ++entry.consecutive;
    if (entry.consecutive >= options_.threshold) {
        entry.state = BreakerState::Open;
        entry.openedAt = batch_;
    }
}

void
CircuitBreaker::recordSuccess(std::string_view graph)
{
    auto it = entries_.find(graph);
    if (it == entries_.end())
        return;
    if (it->second.state == BreakerState::Open)
        return; // stale success from before the trip cannot close it
    it->second.consecutive = 0;
    it->second.state = BreakerState::Closed;
}

BreakerState
CircuitBreaker::state(std::string_view graph) const
{
    auto it = entries_.find(graph);
    return it == entries_.end() ? BreakerState::Closed
                                : it->second.state;
}

unsigned
CircuitBreaker::consecutiveFaults(std::string_view graph) const
{
    auto it = entries_.find(graph);
    return it == entries_.end() ? 0 : it->second.consecutive;
}

void
CircuitBreaker::reset(std::string_view graph)
{
    auto it = entries_.find(graph);
    if (it != entries_.end())
        entries_.erase(it);
}

void
CircuitBreaker::resetAll()
{
    entries_.clear();
}

} // namespace tigr::service
