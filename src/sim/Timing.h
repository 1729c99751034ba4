#ifndef C4CAM_SIM_TIMING_H
#define C4CAM_SIM_TIMING_H

/**
 * @file
 * Scope-based timing/energy accounting for the CAM simulator.
 *
 * Hierarchy levels contribute nested scopes. A parallel scope finishes in
 * the time of its slowest child (max); a sequential scope in the sum of
 * its children. Energy always sums. This reproduces the latency/power
 * behaviour of the paper's hierarchy (parallel vs sequential access
 * modes, selective-search cycles, power-capped subarray activation)
 * without event-driven simulation.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace c4cam {
class JsonValue;
}
namespace c4cam::support {
struct TraceEvent;
}

namespace c4cam::sim {

/** Accumulated cost of one scope (latency in ns, energy in pJ). */
struct Cost
{
    double latencyNs = 0.0;
    double energyPj = 0.0;
};

/**
 * How a fused multi-query window charges the device (paper §IV).
 *
 * ExactSerial (the default): fusion only re-attributes cost. Every
 * query of the fused pass posts the full search cost, so the fused
 * totals equal the serial sum bit for bit and every per-query report
 * stays identical to serial serving -- the invariant the differential
 * tests lock.
 *
 * TrueFused: model what the hardware actually buys. The ML precharge
 * and data-line drive of a subarray are charged once per fused pass --
 * the first query to search a subarray pays the full cost, queries
 * 2..K against the same programmed subarray pay only the sense/merge
 * share (no drive latency, no cell/driver energy). Fused totals come
 * in strictly below the serial sum for K >= 2; outputs are unaffected
 * (the model changes cost posting, never match results), and the
 * per-query reports of queries 2..K are honestly cheaper than their
 * serial counterparts.
 */
enum class FusionModel
{
    ExactSerial,
    TrueFused,
};

/**
 * Query-phase accounting for one served query: everything that starts
 * from zero when a new query window opens. Setup accounting is
 * device-lifetime state and intentionally not part of this object --
 * replacing the window is what gives every query of a session figures
 * that are bit-identical to its first (no subtraction of snapshots,
 * no field-by-field resets to forget).
 */
struct QueryWindow
{
    Cost total;
};

/**
 * Accounting of one fused multi-query window: K query vectors driven
 * through one programmed device pass per search. The device folds
 * each of the K per-query windows into this object. What the totals
 * mean depends on the device's FusionModel: under ExactSerial they
 * are by construction exactly the sum of the serial windows (the
 * invariant the differential tests lock) and fusion only buys the
 * amortized attribution -- drive energy and one-time setup charged
 * once for the batch, 1/K shares per query; under TrueFused the
 * folded windows themselves are cheaper (drive charged once per
 * subarray per pass), so the totals come in strictly below the
 * serial sum.
 */
struct FusedWindow
{
    std::int64_t k = 0;             ///< declared batch width
    std::int64_t queriesFolded = 0; ///< query windows folded so far
    Cost total;                     ///< sum over the K query windows

    /// @name Query-energy breakdown summed over the batch
    /// @{
    double cellEnergyPj = 0.0;
    double senseEnergyPj = 0.0;
    double driveEnergyPj = 0.0;
    double mergeEnergyPj = 0.0;
    /// @}

    std::int64_t searches = 0;

    /** Min over the folded queries' coverage: a fused window covering
     *  any degraded (partial top-k) result is itself partial. */
    double coverage = 1.0;

    /// @name Amortized per-query attribution (guarded against k == 0)
    /// @{
    double
    latencyPerQueryNs() const
    {
        return k > 0 ? total.latencyNs / double(k) : 0.0;
    }
    double
    energyPerQueryPj() const
    {
        return k > 0 ? total.energyPj / double(k) : 0.0;
    }
    /** Drive energy attributed to one query of the fused pass. */
    double
    driveEnergyPerQueryPj() const
    {
        return k > 0 ? driveEnergyPj / double(k) : 0.0;
    }
    /// @}

    /**
     * Fold one served query's report into the fused totals (the
     * PerfReport-sourced counterpart of the device's window fold;
     * host-only sessions and sharded engines use it to synthesize
     * fused accounting).
     * Does not advance queriesFolded bookkeeping by more than one.
     */
    void addQueryReport(const struct PerfReport &query);

    /**
     * Render as a PerfReport: query fields from the fused totals on
     * top of @p setup's one-time fields. queriesServed and fusedBatchK
     * report the queries actually folded (== k for a full window; an
     * under-filled or aborted window must never deflate per-query
     * averages by claiming the declared width), and coverage carries
     * the min-fold over the folded queries.
     */
    struct PerfReport toReport(const struct PerfReport &setup) const;
};

/**
 * Stack of parallel/sequential scopes with two accounting phases:
 * Setup (one-time data writes) and Query (search traffic).
 *
 * Not thread-safe: a TimingEngine belongs to exactly one CamDevice,
 * and a device serves one query at a time. Concurrency comes from
 * device replicas (CamDevice::cloneProgrammed), each with its own
 * engine.
 */
class TimingEngine
{
  public:
    enum class Phase { Setup, Query };

    /** Switch accounting phases; affects subsequent post() calls. */
    void setPhase(Phase phase) { phase_ = phase; }
    Phase phase() const { return phase_; }

    /** Open a scope; children combine with max (parallel) or sum. */
    void beginScope(bool parallel);

    /** Close the innermost scope, folding its cost into the parent. */
    void endScope();

    /** Record a leaf cost in the current scope and phase. */
    void post(double latency_ns, double energy_pj);

    /** Depth of the scope stack (0 at top level). */
    std::size_t depth() const { return scopes_.size(); }

    /// @name Totals (valid when all scopes are closed)
    /// @{
    const Cost &queryCost() const { return window_.total; }
    const Cost &setupCost() const { return setupTotal_; }

    /** The current query-window accounting object. */
    const QueryWindow &queryWindow() const { return window_; }
    /// @}

    /**
     * Start a fresh query window: the current QueryWindow object is
     * replaced wholesale while the device-lifetime setup totals stay.
     * Requires all scopes to be closed. An execution session calls
     * this before re-entering the query body so each query's cost is
     * accumulated from zero instead of being recovered by subtracting
     * snapshots.
     * @return the finished window (the previous query's accounting).
     */
    QueryWindow beginQueryWindow();

    /**
     * Fault-recovery cleanup: discard every open scope (and the
     * partial query window accumulated so far) without touching the
     * device-lifetime setup totals. A fault thrown mid-execution
     * (sim::FaultInjector) unwinds past the runtime's beginScope/
     * endScope pairs and would otherwise leave the stack open, making
     * the next beginQueryWindow() assert. After this call the engine
     * is ready for a fresh query window, and setup accounting -- which
     * the replica paid once at programming time -- is preserved so a
     * retried query's report stays bit-identical to a fault-free run.
     */
    void abortOpenScopes();

  private:
    struct Scope
    {
        bool parallel;
        Phase phase;
        // For parallel scopes latency is the running max of children;
        // for sequential scopes the running sum.
        Cost queryAcc;
        Cost setupAcc;
    };

    void fold(Scope &parent, const Scope &child);

    std::vector<Scope> scopes_;
    QueryWindow window_;
    Cost setupTotal_;
    Phase phase_ = Phase::Query;
};

/**
 * End-to-end performance summary of one compiled kernel execution.
 */
struct PerfReport
{
    double setupLatencyNs = 0.0;
    double setupEnergyPj = 0.0;
    double queryLatencyNs = 0.0;
    double queryEnergyPj = 0.0;

    /// @name Query-energy breakdown (sums to queryEnergyPj)
    /// @{
    double cellEnergyPj = 0.0;   ///< ML precharge across cells
    double senseEnergyPj = 0.0;  ///< sense amplifiers
    double driveEnergyPj = 0.0;  ///< data-line drivers
    double mergeEnergyPj = 0.0;  ///< reduction trees / peripherals
    /// @}

    std::int64_t searches = 0;
    std::int64_t writes = 0;
    std::int64_t subarraysUsed = 0;
    std::int64_t banksUsed = 0;
    std::int64_t subarraysAllocated = 0;

    /**
     * Number of queries the query-phase figures cover. A single
     * CompiledKernel::run() serves one query batch; an execution
     * session accumulates one count per runQuery() call. 0 means
     * "setup only" (no query executed yet) and keeps every derived
     * per-query figure finite.
     */
    std::int64_t queriesServed = 0;

    /**
     * Fraction of the stored rows this report's results actually
     * cover. 1.0 for every ordinary serve. A degraded sharded serve
     * (core::ShardedEngine with allowDegraded, some shards
     * quarantined) sets it to survivingRows/totalRows so a partial
     * top-k is never silently indistinguishable from a full one.
     * Serialized to JSON only when < 1.0, keeping non-degraded report
     * JSON byte-identical to pre-fault-tolerance builds.
     */
    double coverage = 1.0;

    /**
     * Fused-batch width: > 0 when the query-phase figures describe one
     * fused multi-query device pass of this many query vectors
     * (CamDevice::beginFusedWindow). The totals still equal the sum of
     * the per-query windows; the fused* accessors attribute the
     * amortizable components (drive energy, one-time setup) as 1/K
     * shares per query. 0 for ordinary per-query reports.
     */
    std::int64_t fusedBatchK = 0;

    /** Average query-phase power; pJ/ns is numerically mW. */
    double
    avgPowerMw() const
    {
        return queryLatencyNs > 0.0 ? queryEnergyPj / queryLatencyNs : 0.0;
    }

    /// @name Per-query aggregates (guarded against queriesServed == 0)
    /// @{
    /** Mean query latency over the served queries. */
    double
    avgQueryLatencyNs() const
    {
        return queriesServed > 0 ? queryLatencyNs / double(queriesServed)
                                 : 0.0;
    }

    /** Mean query energy over the served queries. */
    double
    avgQueryEnergyPj() const
    {
        return queriesServed > 0 ? queryEnergyPj / double(queriesServed)
                                 : 0.0;
    }

    /** Per-query latency with the one-time setup amortized in. */
    double
    amortizedLatencyNs() const
    {
        return queriesServed > 0
                   ? (setupLatencyNs + queryLatencyNs) /
                         double(queriesServed)
                   : 0.0;
    }

    /** Per-query energy with the one-time setup amortized in. */
    double
    amortizedEnergyPj() const
    {
        return queriesServed > 0
                   ? (setupEnergyPj + queryEnergyPj) /
                         double(queriesServed)
                   : 0.0;
    }
    /// @}

    /// @name Fused-batch attribution (zero unless fusedBatchK > 0 --
    /// a non-fused report has no fused share to attribute, and
    /// returning the undivided total here would mislabel it)
    /// @{
    /** Drive energy attributed to one query of a fused pass. */
    double
    fusedDriveEnergyPerQueryPj() const
    {
        return fusedBatchK > 0 ? driveEnergyPj / double(fusedBatchK)
                               : 0.0;
    }

    /** Setup energy attributed to one query of a fused pass. */
    double
    fusedSetupEnergyPerQueryPj() const
    {
        return fusedBatchK > 0 ? setupEnergyPj / double(fusedBatchK)
                               : 0.0;
    }
    /// @}

    /** Energy-delay product in nJ*s. */
    double
    edpNanoJouleSeconds() const
    {
        return (queryEnergyPj * 1e-3) * (queryLatencyNs * 1e-9);
    }

    /** Fraction of allocated subarrays that were actually written. */
    double
    utilization() const
    {
        return subarraysAllocated > 0
                   ? double(subarraysUsed) / double(subarraysAllocated)
                   : 0.0;
    }

    /// @name Aggregation (shared by sessions and the serving engine)
    /// @{
    /**
     * Fold one served query's report into this aggregate: query-phase
     * latency/energy, the energy breakdown and the search counter sum;
     * setup fields are left alone (setup is paid once per session).
     */
    void addQueryWindow(const PerfReport &query);
    /// @}

    /** One-line human-readable summary. */
    std::string str() const;

    /**
     * Structured report for machine consumption. Every derived metric
     * is guarded so empty-query reports serialize as finite numbers
     * (never inf/nan, which are not valid JSON).
     */
    JsonValue toJson() const;
};

/**
 * Deterministic aggregation of per-shard reports for one query served
 * scatter-gather across M programmed shards (core::ShardedEngine).
 *
 * Simulated time is parallel -- the query waits for the slowest
 * shard, so latency fields (setup and query) take the max. Energy,
 * the breakdown, and the resource/traffic counters are physical
 * totals and sum in fixed shard order (bit-reproducible: same shards,
 * same order, same doubles). queriesServed and fusedBatchK come from
 * the first report (identical across shards of one query by
 * construction). Empty input returns a zero report.
 *
 * Note this is deliberately NOT bit-identical to a single device of
 * the combined size: per-search cell energy scales with the
 * subarray's physical row count, so M quarter-size devices spend less
 * cell energy than one full-size device. Outputs are bit-identical
 * under sharding; energy honestly reflects the different hardware.
 */
PerfReport aggregateShardReports(const std::vector<PerfReport> &shards);

/**
 * Window <-> span linkage: copy @p perf's simulated per-window
 * breakdown (drive/sense/cell/merge energy, search/setup cost, the
 * fused width) onto @p span and mark it sim-carrying. The serving
 * layers call this on every execute span so one trace record holds
 * both the host wall-clock interval and the device's simulated cost
 * for the same query window.
 */
void attachWindowBreakdown(support::TraceEvent &span,
                           const PerfReport &perf);

} // namespace c4cam::sim

#endif // C4CAM_SIM_TIMING_H
