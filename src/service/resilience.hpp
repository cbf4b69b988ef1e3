/**
 * @file
 * Resilient query execution: the typed error taxonomy, deterministic
 * retry/backoff policy, and per-graph circuit breaker the
 * QueryScheduler uses to keep a long-lived service alive through
 * faults that would crash a single-run framework.
 *
 * Everything here is deterministic by construction:
 *
 *  - ServiceError classification is a pure function of the thrown
 *    exception's type (and, for injected faults, its site).
 *  - Backoff is charged in *simulated* milliseconds against the
 *    query's deadlineSimMs budget — no thread ever sleeps, and a
 *    retried query times out identically at any worker count.
 *  - The circuit breaker advances only at batch boundaries and from a
 *    batch-ordered post-pass over terminal outcomes, so its state is a
 *    function of the batch history alone, never of worker
 *    interleaving.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "fault/fault.hpp"

namespace tigr::service {

/** Unified failure taxonomy of the service layer. */
enum class ServiceErrorKind
{
    InvalidQuery,   ///< Rejected at admission (bad spec, queue full).
    Quarantined,    ///< Circuit breaker open for the target graph.
    Snapshot,       ///< Snapshot load/store failure (SnapshotError).
    TransformBuild, ///< Building the work-unit schedule failed.
    CacheInsert,    ///< Retaining a built schedule in the cache failed.
    Engine,         ///< The engine threw mid-run.
    Resource,       ///< Allocation failure (std::bad_alloc).
    Mutation,       ///< Applying or compacting a mutation batch failed.
    Durability,     ///< Journaling a mutation batch failed (I/O).
};

/** Display name ("invalid-query", "transform-build", ...). */
std::string_view serviceErrorKindName(ServiceErrorKind kind);

/** One typed failure, attached to a QueryResult. */
struct ServiceError
{
    ServiceErrorKind kind = ServiceErrorKind::Engine;
    /** The fault site, when the failure was injected. */
    std::optional<fault::Site> site;
    std::string message;

    /** True when a retry could plausibly succeed (transient faults);
     *  admission-time rejections and quarantines are terminal. */
    bool retryable() const;
};

/** Map a caught exception to the taxonomy: InjectedFault by site,
 *  SnapshotError -> Snapshot, JournalError / io::IoError ->
 *  Durability, bad_alloc -> Resource, anything else -> Engine. */
ServiceError classifyFailure(const std::exception &e);

/**
 * Retry budget with deterministic exponential backoff. Backoff is
 * expressed in simulated milliseconds and charged against the query's
 * deadlineSimMs budget (when one is set), reusing the engine's
 * simulated-time cancellation machinery: a query that retries twice
 * has that much less simulated time to finish, identically at any
 * worker count. No wall-clock sleeping ever happens.
 */
struct RetryPolicy
{
    /** Re-executions after the first attempt (0 = fail fast). */
    unsigned maxRetries = 2;
    /** Simulated-ms backoff charged before the first retry. */
    double backoffBaseSimMs = 1.0;
    /** Multiplier per subsequent retry. */
    double backoffFactor = 2.0;

    /** Backoff charged after failed attempt @p attempt (0-based). */
    double
    backoffSimMs(unsigned attempt) const
    {
        double backoff = backoffBaseSimMs;
        for (unsigned i = 0; i < attempt; ++i)
            backoff *= backoffFactor;
        return backoff;
    }
};

/** Circuit breaker tuning. */
struct BreakerOptions
{
    /** Consecutive terminal faults that open the breaker. */
    unsigned threshold = 3;
    /** Batches the breaker stays open before probing again. */
    unsigned cooldownBatches = 1;
};

/** Observable breaker state for one graph. */
enum class BreakerState
{
    Closed,   ///< Healthy: queries run normally.
    Open,     ///< Quarantined: queries are refused at admission.
    HalfOpen, ///< Cooldown elapsed: queries run; one more fault
              ///< re-opens, one success closes.
};

/** Display name ("closed", "open", "half-open"). */
std::string_view breakerStateName(BreakerState state);

/**
 * Per-graph circuit breaker: after `threshold` consecutive terminal
 * faults a graph is quarantined — its queries are refused at admission
 * instead of burning retry budget on (and potentially poisoning) every
 * batch. After `cooldownBatches` batches the breaker half-opens: the
 * next batch's queries run as probes, one success closes the breaker,
 * one more fault re-opens it.
 *
 * NOT internally synchronized: the scheduler drives it only from the
 * serial phases of runBatch (admission pre-pass, batch-ordered
 * post-pass), which is what makes its state deterministic.
 */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(BreakerOptions options = {})
        : options_(options)
    {
    }

    /** Advance the batch clock; Open entries past their cooldown
     *  become HalfOpen. Call once at the start of every batch. */
    void beginBatch();

    /** False while @p graph is quarantined (Open). */
    bool admits(std::string_view graph) const;

    /** Record a terminal fault for @p graph (batch-ordered). */
    void recordFault(std::string_view graph);

    /** Record a successful terminal outcome for @p graph. */
    void recordSuccess(std::string_view graph);

    /** Current state of @p graph (Closed when never seen). */
    BreakerState state(std::string_view graph) const;

    /** Consecutive-fault count for @p graph. */
    unsigned consecutiveFaults(std::string_view graph) const;

    /** Manually close the breaker for @p graph (operator override). */
    void reset(std::string_view graph);

    /** Close every breaker. */
    void resetAll();

  private:
    struct Entry
    {
        unsigned consecutive = 0;
        BreakerState state = BreakerState::Closed;
        /** Batch index at which the breaker opened. */
        std::uint64_t openedAt = 0;
    };

    BreakerOptions options_;
    std::uint64_t batch_ = 0;
    std::map<std::string, Entry, std::less<>> entries_;
};

} // namespace tigr::service
