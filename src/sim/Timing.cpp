#include "sim/Timing.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/Error.h"
#include "support/Json.h"
#include "support/Trace.h"

namespace c4cam::sim {

void
TimingEngine::beginScope(bool parallel)
{
    Scope scope;
    scope.parallel = parallel;
    scope.phase = phase_;
    scopes_.push_back(scope);
}

void
TimingEngine::fold(Scope &parent, const Scope &child)
{
    if (parent.parallel) {
        parent.queryAcc.latencyNs =
            std::max(parent.queryAcc.latencyNs, child.queryAcc.latencyNs);
        parent.setupAcc.latencyNs =
            std::max(parent.setupAcc.latencyNs, child.setupAcc.latencyNs);
    } else {
        parent.queryAcc.latencyNs += child.queryAcc.latencyNs;
        parent.setupAcc.latencyNs += child.setupAcc.latencyNs;
    }
    parent.queryAcc.energyPj += child.queryAcc.energyPj;
    parent.setupAcc.energyPj += child.setupAcc.energyPj;
}

void
TimingEngine::endScope()
{
    C4CAM_ASSERT(!scopes_.empty(), "endScope with no open scope");
    Scope child = scopes_.back();
    scopes_.pop_back();
    if (scopes_.empty()) {
        queryTotal_.latencyNs += child.queryAcc.latencyNs;
        queryTotal_.energyPj += child.queryAcc.energyPj;
        setupTotal_.latencyNs += child.setupAcc.latencyNs;
        setupTotal_.energyPj += child.setupAcc.energyPj;
    } else {
        fold(scopes_.back(), child);
    }
}

void
TimingEngine::post(double latency_ns, double energy_pj)
{
    C4CAM_ASSERT(latency_ns >= 0.0 && energy_pj >= 0.0,
                 "negative cost posted");
    Cost *acc = nullptr;
    if (scopes_.empty()) {
        // Top-level leaf cost: accumulate sequentially into the totals.
        acc = phase_ == Phase::Query ? &queryTotal_ : &setupTotal_;
        acc->latencyNs += latency_ns;
        acc->energyPj += energy_pj;
        return;
    }
    Scope &scope = scopes_.back();
    acc = phase_ == Phase::Query ? &scope.queryAcc : &scope.setupAcc;
    if (scope.parallel) {
        // A leaf inside a parallel scope behaves like one child.
        acc->latencyNs = std::max(acc->latencyNs, latency_ns);
    } else {
        acc->latencyNs += latency_ns;
    }
    acc->energyPj += energy_pj;
}

void
TimingEngine::abortOpenScopes()
{
    scopes_.clear();
    queryTotal_ = Cost{};
    phase_ = Phase::Query;
}

void
TimingEngine::beginQueryWindow()
{
    C4CAM_ASSERT(scopes_.empty(),
                 "beginQueryWindow with " << scopes_.size()
                 << " scopes still open");
    queryTotal_ = Cost{};
}

void
PerfReport::addQueryWindow(const PerfReport &query)
{
    queryLatencyNs += query.queryLatencyNs;
    queryEnergyPj += query.queryEnergyPj;
    cellEnergyPj += query.cellEnergyPj;
    senseEnergyPj += query.senseEnergyPj;
    driveEnergyPj += query.driveEnergyPj;
    mergeEnergyPj += query.mergeEnergyPj;
    searches += query.searches;
    // An aggregate covering any partial result is itself partial; min
    // keeps the default 1.0 untouched on fault-free paths.
    coverage = std::min(coverage, query.coverage);
}

std::string
PerfReport::str() const
{
    std::ostringstream oss;
    oss << "query: " << queryLatencyNs << " ns, " << queryEnergyPj
        << " pJ, " << avgPowerMw() << " mW | setup: " << setupLatencyNs
        << " ns, " << setupEnergyPj << " pJ | searches: " << searches
        << ", writes: " << writes << ", subarrays: " << subarraysUsed << "/"
        << subarraysAllocated << ", banks: " << banksUsed;
    if (queriesServed > 1)
        oss << " | queries: " << queriesServed << ", avg "
            << avgQueryLatencyNs() << " ns/query, amortized "
            << amortizedLatencyNs() << " ns/query";
    return oss.str();
}

namespace {

/** JSON has no inf/nan; clamp non-finite figures to 0 for serializing. */
JsonValue
finiteNumber(double v)
{
    return JsonValue(std::isfinite(v) ? v : 0.0);
}

} // namespace

JsonValue
PerfReport::toJson() const
{
    JsonValue obj = JsonValue::makeObject();
    obj.set("setup_latency_ns", finiteNumber(setupLatencyNs));
    obj.set("setup_energy_pj", finiteNumber(setupEnergyPj));
    obj.set("query_latency_ns", finiteNumber(queryLatencyNs));
    obj.set("query_energy_pj", finiteNumber(queryEnergyPj));
    obj.set("cell_energy_pj", finiteNumber(cellEnergyPj));
    obj.set("sense_energy_pj", finiteNumber(senseEnergyPj));
    obj.set("drive_energy_pj", finiteNumber(driveEnergyPj));
    obj.set("merge_energy_pj", finiteNumber(mergeEnergyPj));
    obj.set("searches", JsonValue(double(searches)));
    obj.set("writes", JsonValue(double(writes)));
    obj.set("subarrays_used", JsonValue(double(subarraysUsed)));
    obj.set("subarrays_allocated", JsonValue(double(subarraysAllocated)));
    obj.set("banks_used", JsonValue(double(banksUsed)));
    obj.set("queries_served", JsonValue(double(queriesServed)));
    obj.set("fused_batch_k", JsonValue(double(fusedBatchK)));
    // Attribution shares only exist for fused reports; emitting the
    // undivided totals under a per-query name would mislead consumers
    // of the archived bench JSON.
    if (fusedBatchK > 0) {
        obj.set("fused_drive_energy_per_query_pj",
                finiteNumber(fusedDriveEnergyPerQueryPj()));
        obj.set("fused_setup_energy_per_query_pj",
                finiteNumber(fusedSetupEnergyPerQueryPj()));
    }
    // Coverage is only interesting when a degraded serve dropped
    // shards; omitting the default keeps non-degraded report JSON
    // byte-identical to earlier builds (the differential tests
    // compare serialized reports).
    if (coverage < 1.0)
        obj.set("coverage", finiteNumber(coverage));
    obj.set("avg_power_mw", finiteNumber(avgPowerMw()));
    obj.set("avg_query_latency_ns", finiteNumber(avgQueryLatencyNs()));
    obj.set("avg_query_energy_pj", finiteNumber(avgQueryEnergyPj()));
    obj.set("amortized_latency_ns", finiteNumber(amortizedLatencyNs()));
    obj.set("amortized_energy_pj", finiteNumber(amortizedEnergyPj()));
    obj.set("edp_njs", finiteNumber(edpNanoJouleSeconds()));
    obj.set("utilization", finiteNumber(utilization()));
    return obj;
}

PerfReport
aggregateShardReports(const std::vector<PerfReport> &shards)
{
    PerfReport out;
    if (shards.empty())
        return out;
    out.queriesServed = shards.front().queriesServed;
    out.fusedBatchK = shards.front().fusedBatchK;
    for (const PerfReport &shard : shards) {
        // Shards run concurrently: the query's simulated time is the
        // slowest shard's, exactly like TimingEngine's parallel-scope
        // fold (max over children).
        out.setupLatencyNs = std::max(out.setupLatencyNs,
                                      shard.setupLatencyNs);
        out.queryLatencyNs = std::max(out.queryLatencyNs,
                                      shard.queryLatencyNs);
        out.setupEnergyPj += shard.setupEnergyPj;
        out.queryEnergyPj += shard.queryEnergyPj;
        out.cellEnergyPj += shard.cellEnergyPj;
        out.senseEnergyPj += shard.senseEnergyPj;
        out.driveEnergyPj += shard.driveEnergyPj;
        out.mergeEnergyPj += shard.mergeEnergyPj;
        out.coverage = std::min(out.coverage, shard.coverage);
        out.searches += shard.searches;
        out.writes += shard.writes;
        out.subarraysUsed += shard.subarraysUsed;
        out.banksUsed += shard.banksUsed;
        out.subarraysAllocated += shard.subarraysAllocated;
    }
    return out;
}

void
attachWindowBreakdown(support::TraceEvent &span, const PerfReport &perf)
{
    span.hasSim = true;
    span.simQueryLatencyNs = perf.queryLatencyNs;
    span.simQueryEnergyPj = perf.queryEnergyPj;
    span.simCellEnergyPj = perf.cellEnergyPj;
    span.simSenseEnergyPj = perf.senseEnergyPj;
    span.simDriveEnergyPj = perf.driveEnergyPj;
    span.simMergeEnergyPj = perf.mergeEnergyPj;
    span.simSetupLatencyNs = perf.setupLatencyNs;
    span.simSetupEnergyPj = perf.setupEnergyPj;
    span.simSearches = perf.searches;
    if (perf.fusedBatchK > 0)
        span.fusedK = perf.fusedBatchK;
}

} // namespace c4cam::sim
