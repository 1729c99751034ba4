#ifndef C4CAM_CORE_SHARDEDENGINE_H
#define C4CAM_CORE_SHARDEDENGINE_H

/**
 * @file
 * Scatter-gather serving across M programmed CAM shards.
 *
 * A single CamDevice bounds the stored-vector count by one
 * accelerator's subarray budget. ShardedEngine partitions the stored
 * axis into M contiguous row slices, compiles one kernel instance per
 * slice (same source, the stored parameter's shape overridden to the
 * slice -- frontend::ShapeOverrides), programs each instance into its
 * own ServingEngine, and serves each query by scattering it to every
 * shard and merging the per-shard top-k lists on the host:
 *
 *   core::ShardedEngine engine(options, source, {query0, stored},
 *                              {.shards = 4});
 *   core::ExecutionResult r = engine.serve({query, stored});
 *   // r.outputs = (values, indices) -- indices on the GLOBAL stored
 *   // axis, bit-identical to one big device serving `stored` whole.
 *
 * Exactness (locked by the sharded differential tests): slices are
 * contiguous, so local -> global index remapping (+ slice.begin) is
 * monotone within a shard; each shard's k-list is the global ranking
 * restricted to that shard's rows, truncated to k; and the single
 * device's topk breaks ties toward the lower index
 * (support::topKOrderedBefore matches host::topk's stable sort), so
 * the M-way merge (support::mergeTopK) reproduces the single-device
 * (values, indices) outputs bit-identically. Values are computed
 * row-locally, hence unchanged by where the row lives.
 *
 * Accounting: the per-query PerfReport is the deterministic shard
 * aggregation of sim::aggregateShardReports -- latency is the max
 * over shards (they search in parallel), energy and traffic counters
 * sum in fixed shard order. It is NOT the report of one big device:
 * per-search cell energy scales with the physical subarray geometry,
 * so M small devices are honestly cheaper per search. Outputs are
 * where the bit-identity contract lives. A fused chunk runs one fused
 * pass per shard and merges each query exactly like serve(); the
 * engine keeps no fused totals of its own.
 *
 * Tracing: each query's root span gains a "scatter" child (covering
 * the parallel shard fan-out; the shards' execute/merge spans parent
 * under it) and a "shard-merge" child (the host-side k-way merge)
 * that tile the scatter+merge interval exactly -- the same
 * shared-time-point telescoping the other serving layers use.
 *
 * Implements QueryBackend, so the async front-end serves through M
 * shards the same way it serves through one replica pool.
 */

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/Compiler.h"
#include "core/QueryBackend.h"
#include "core/RetryPolicy.h"
#include "core/ServingEngine.h"
#include "core/ServingRecorder.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

namespace c4cam::core {

/** One contiguous slice of the stored-vector axis. */
struct ShardSlice
{
    std::int64_t begin = 0; ///< first global stored row of the slice
    std::int64_t rows = 0;  ///< number of stored rows in the slice
};

/**
 * Partition of @c totalRows stored vectors into contiguous,
 * near-equal slices. Deterministic: the first `totalRows % shards`
 * slices get one extra row.
 */
struct ShardPlan
{
    std::int64_t totalRows = 0;
    std::vector<ShardSlice> slices;

    /**
     * Split @p total_rows into @p shards contiguous slices. Every
     * slice must keep at least @p min_rows rows (the kernel's k: a
     * shard must be able to answer top-k locally); throws
     * CompilerError when the split would starve a shard.
     */
    static ShardPlan compute(std::int64_t total_rows, int shards,
                             std::int64_t min_rows);
};

struct ShardedEngineOptions
{
    /** Number of device shards the stored axis is split across. */
    int shards = 2;
    /** Programmed replicas per shard (shard-level ServingEngine). */
    int replicasPerShard = 1;

    /// @name Fault tolerance
    /// @{
    /**
     * Serve queries from surviving shards when some shards are
     * quarantined, instead of failing: the merged top-k covers only
     * the healthy slices and the result is explicitly marked partial
     * (ExecutionResult::partial, PerfReport::coverage < 1, a
     * "degraded" trace span). Off = a quarantined shard fails the
     * query fast (the circuit-breaker benefit: no repeated timeouts
     * against dead hardware).
     */
    bool allowDegraded = false;

    /** Consecutive failures that quarantine a shard. */
    int quarantineThreshold = 3;

    /** Cooldown before a quarantined shard is probed for
     *  re-admission (one probe query at a time). */
    std::int64_t cooldownMs = 100;

    /** Transient-fault retry policy installed on every shard-level
     *  ServingEngine (retries happen inside the shard, under the
     *  query's scatter span). */
    RetryPolicy retryPolicy;

    /** Fault injector attached to every shard device (slice order,
     *  then replica order within a shard -- deterministic injector
     *  device ids). Null = no fault injection. */
    std::shared_ptr<sim::FaultInjector> faultInjector;
    /// @}
};

/**
 * QueryBackend over M shard-level ServingEngines plus a host-side
 * exact top-k merge. Thread-safe: concurrent serves scatter onto a
 * shared worker pool and block on their own shard futures; the shard
 * engines' replica free-lists provide the per-shard serialization.
 */
class ShardedEngine : public QueryBackend
{
  public:
    /**
     * Compile @p source once per shard (stored parameter's leading
     * extent overridden to the slice size) and program each shard
     * with its row slice of the stored tensor, the kernel's second
     * parameter (@p setup_args[1]). The other setup arguments are
     * shared across shards unchanged. The kernel must return exactly
     * (values, indices) rank-2 tensors -- the shardable shape -- and
     * end in a top-k; both are verified here.
     */
    ShardedEngine(const CompilerOptions &options,
                  const std::string &source,
                  const std::vector<rt::BufferPtr> &setup_args,
                  const ShardedEngineOptions &sharding = {});

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /** Validates against the UNSHARDED signature: callers pass the
     *  same arguments they would pass a single big device. */
    void
    validateQuery(const std::vector<rt::BufferPtr> &args) const override;

    /** Scatter @p args to every shard, merge the top-k lists.
     *  Outputs carry global indices; perf is the shard aggregation. */
    ExecutionResult
    serve(const std::vector<rt::BufferPtr> &args,
          const support::SpanContext *ctx = nullptr) override;

    /** One fused pass per shard over @p queries; each query merged
     *  exactly like serve(). Any shard failure fails the whole chunk
     *  (the caller falls back to per-query serve()). */
    std::vector<ExecutionResult> serveFusedChunk(
        const std::vector<std::vector<rt::BufferPtr>> &queries,
        const std::vector<support::SpanContext> *ctxs = nullptr) override;

    void
    enableTracing(support::TraceCollector *collector,
                  std::uint64_t trace_id = 0) override
    {
        recorder_->enableTracing(collector, trace_id);
    }

    ServingStats stats() const override;

    /** Aggregated one-time setup over the shards (max latency, summed
     *  energy/writes -- sim::aggregateShardReports). */
    const sim::PerfReport &setupReport() const override
    {
        return setupReport_;
    }

    /** One serve() makes progress per shard-replica set. */
    int concurrency() const override { return replicasPerShard_; }

    std::int64_t queriesServed() const override
    {
        return recorder_->queriesServed();
    }

    int numShards() const { return static_cast<int>(shards_.size()); }
    const ShardPlan &shardPlan() const { return plan_; }

    /** k of the kernel's final top-k (discovered from the lowered
     *  reference module). */
    std::int64_t topK() const { return topK_; }

    /** Ordering of the final top-k: true = larger values first. On
     *  the CAM path this is false (the device ranks distances),
     *  whatever the torch-level annotation said. */
    bool mergeLargest() const { return mergeLargest_; }

    /** Live health snapshot (stats() / tests). */
    struct ShardHealth
    {
        int consecutiveFailures = 0;
        bool quarantined = false;
    };
    ShardHealth shardHealth(std::size_t s) const;

  private:
    struct Shard
    {
        ShardSlice slice;
        /** O(1) row-slice view into the setup-time stored tensor
         *  (shaped to the shard signature; the query body never reads
         *  it). */
        rt::BufferPtr storedSlice;
        /** Declared before the engine: the engine borrows the
         *  kernel's module, so it must be destroyed first. */
        std::unique_ptr<CompiledKernel> kernel;
        std::unique_ptr<ServingEngine> engine;

        /// @name Circuit-breaker health (guarded by healthMutex_)
        /// @{
        int consecutiveFailures = 0;
        bool quarantined = false;
        std::chrono::steady_clock::time_point quarantinedAt{};
        /** A probe query is in flight; prevents a herd of concurrent
         *  probes against a possibly-still-dead shard. */
        bool probing = false;
        /// @}
    };

    /**
     * Pick the shards this query scatters to: healthy shards plus at
     * most one probe per quarantined shard whose cooldown expired.
     * Throws ExecutionError (fail fast) when a shard is quarantined,
     * still cooling down, and degraded serving is off.
     */
    std::vector<std::size_t> selectActiveShards();

    /**
     * The scatter step of serve() and serveFusedChunk(): run
     * @p serve_shard(s) on the pool for every shard s in @p active,
     * wait for EVERY task (a failing shard must not leave siblings
     * running against the caller's borrowed arguments), then harvest
     * in shard order. A shard that answered is recorded healthy and
     * its result appended to @p results, its id to @p survivors; a
     * shard that threw counts toward quarantine (recordShardFailure
     * under @p ctx). Returns the first shard error, null when every
     * shard answered; each caller applies its own failure policy.
     */
    template <typename Result, typename ServeShard>
    std::exception_ptr
    scatterToShards(const std::vector<std::size_t> &active,
                    const ServeShard &serve_shard,
                    std::vector<Result> &results,
                    std::vector<std::size_t> &survivors,
                    const support::SpanContext *ctx);

    /** Health bookkeeping after a shard answered. */
    void recordShardSuccess(std::size_t s);

    /**
     * Health bookkeeping after a shard failed: counts toward
     * quarantine, and on a healthy->quarantined transition bumps the
     * counter and records a self-rooted "shard-quarantine" marker
     * span (when @p ctx is tracing; it names the query whose failure
     * tripped the breaker).
     */
    void recordShardFailure(std::size_t s, const support::SpanContext *ctx);

    /** @p args with the stored parameter swapped for shard @p s's
     *  programmed slice view. */
    std::vector<rt::BufferPtr>
    shardArgs(const std::vector<rt::BufferPtr> &args, std::size_t s) const;

    /** Merge one query's per-shard (values, indices) outputs into
     *  global-axis outputs; the per-shard perfs aggregate into the
     *  merged report. @p shard_ids names the shard each result came
     *  from (index remapping needs the slice origin) -- a degraded
     *  merge passes only the survivors. When the ids cover fewer rows
     *  than the plan, the result is marked partial with the covered
     *  row fraction in perf.coverage. */
    ExecutionResult
    mergeShardResults(const std::vector<ExecutionResult> &shard_results,
                      const std::vector<std::size_t> &shard_ids) const;

    int replicasPerShard_ = 1;
    bool allowDegraded_ = false;
    int quarantineThreshold_ = 3;
    std::int64_t cooldownMs_ = 100;
    ShardPlan plan_;
    std::int64_t topK_ = 0;
    bool mergeLargest_ = false;

    /** Full-size reference kernel: provides the unsharded signature
     *  for validateQuery() and the lowered module the final top-k's
     *  (k, largest) are discovered from. Never executed. */
    std::unique_ptr<CompiledKernel> reference_;
    ir::Block *entryBody_ = nullptr;
    std::string entry_;

    std::vector<Shard> shards_;
    sim::PerfReport setupReport_;

    /// @name Fault-recovery accounting
    /// @{
    mutable std::mutex healthMutex_;
    std::int64_t quarantines_ = 0;     ///< guarded by healthMutex_
    std::int64_t degradedServes_ = 0;  ///< guarded by healthMutex_
    /// @}

    /** Aggregate of the merged reports, counters and the engine's own
     *  root spans (built once the shards' setup is known). */
    std::unique_ptr<ServingRecorder> recorder_;

    /** Scatter pool: shards * replicasPerShard workers, so every
     *  replica of every shard can be busy at once. Deadlock-free by
     *  sizing: a task only blocks waiting for a shard replica, and
     *  replicas are only held by running tasks. Declared last so
     *  destruction drains in-flight scatters while the shards above
     *  are still alive. */
    std::unique_ptr<support::ThreadPool> pool_;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_SHARDEDENGINE_H
