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
 *
 * Query cost is accounted per window: each served query starts from
 * zero (TimingEngine::beginQueryWindow) and renders as its own
 * PerfReport. Every multi-query figure -- a session or engine
 * aggregate, a fused batch's report -- is PerfReport::addQueryWindow
 * folding those per-query reports on top of one setup report.
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
 * How a fused multi-query pass charges the device (paper §IV).
 *
 * ExactSerial (the default): fusion only re-attributes cost. Every
 * query of the fused pass posts the full search cost, so every
 * per-query report stays identical to serial serving and the fused
 * report (the fold of those windows) equals the serial sum bit for
 * bit -- the invariant the differential tests lock.
 *
 * TrueFused: model what the hardware actually buys. The ML precharge
 * and data-line drive of a subarray are charged once per fused pass --
 * the first query to search a subarray pays the full cost, queries
 * 2..K against the same programmed subarray pay only the sense/merge
 * share (no drive latency, no cell/driver energy). The per-query
 * reports of queries 2..K are honestly cheaper than their serial
 * counterparts, so their fold comes in strictly below the serial sum
 * for K >= 2; outputs are unaffected (the model changes cost posting,
 * never match results).
 */
enum class FusionModel
{
    ExactSerial,
    TrueFused,
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
    const Cost &queryCost() const { return queryTotal_; }
    const Cost &setupCost() const { return setupTotal_; }
    /// @}

    /**
     * Start a fresh query window: the query-phase totals restart from
     * zero while the device-lifetime setup totals stay. Requires all
     * scopes to be closed. An execution session calls this before
     * re-entering the query body so each query's cost is accumulated
     * from zero instead of being recovered by subtracting snapshots.
     */
    void beginQueryWindow();

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
    /** Query-phase totals of the current query window. */
    Cost queryTotal_;
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
     * fused multi-query pass of this many queries
     * (core::ExecutionSession::runFusedBatch). The query fields are
     * the addQueryWindow() fold of the K per-query windows; the fused*
     * accessors attribute the amortizable components (drive energy,
     * one-time setup) as 1/K shares per query. 0 for ordinary
     * per-query reports.
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

    /// @name Aggregation (the one fold of query windows)
    /// @{
    /**
     * Fold one served query's report into this aggregate: query-phase
     * latency/energy, the energy breakdown and the search counter sum,
     * and the min over coverage; setup fields are left alone (setup is
     * paid once per session). Serving aggregates and fused batch
     * reports are both this fold on top of a setup report.
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
