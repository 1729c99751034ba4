#include "core/ShardedEngine.h"

#include <algorithm>
#include <future>
#include <span>
#include <utility>

#include "dialects/BuiltinDialect.h"
#include "runtime/HostKernels.h"
#include "support/Error.h"
#include "support/TopKMerge.h"

namespace c4cam::core {

using Clock = std::chrono::steady_clock;

namespace {

/** The kernel parameter that holds the stored (sharded) tensor. */
constexpr std::size_t kStoredArg = 1;

/**
 * Find the last top-k op (program order, regions walked depth-first)
 * in @p block. The LAST one matters: it produces the kernel's output
 * ranking, and on the CAM path its ordering (largest=false over
 * distances) differs from the torch-level annotation.
 */
ir::Operation *
findLastTopk(ir::Block *block)
{
    ir::Operation *found = nullptr;
    for (auto &op : block->operations()) {
        if (op->name().ends_with("topk"))
            found = op.get();
        for (std::size_t r = 0; r < op->numRegions(); ++r)
            for (auto &inner : op->region(r).blocks())
                if (ir::Operation *nested = findLastTopk(inner.get()))
                    found = nested;
    }
    return found;
}

} // namespace

ShardPlan
ShardPlan::compute(std::int64_t total_rows, int shards,
                   std::int64_t min_rows)
{
    C4CAM_CHECK(shards >= 1,
                "sharding needs at least 1 shard, got " << shards);
    C4CAM_CHECK(total_rows >= 1,
                "sharding needs at least 1 stored row, got "
                << total_rows);
    std::int64_t base = total_rows / shards;
    std::int64_t extra = total_rows % shards;
    C4CAM_CHECK(base >= std::max<std::int64_t>(min_rows, 1),
                "cannot split " << total_rows << " stored rows across "
                << shards << " shards: every shard needs at least "
                << std::max<std::int64_t>(min_rows, 1)
                << " rows to answer top-" << std::max<std::int64_t>(
                    min_rows, 1) << " locally");

    ShardPlan plan;
    plan.totalRows = total_rows;
    plan.slices.reserve(static_cast<std::size_t>(shards));
    std::int64_t begin = 0;
    for (int s = 0; s < shards; ++s) {
        std::int64_t rows = base + (s < extra ? 1 : 0);
        plan.slices.push_back(ShardSlice{begin, rows});
        begin += rows;
    }
    return plan;
}

ShardedEngine::ShardedEngine(const CompilerOptions &options,
                             const std::string &source,
                             const std::vector<rt::BufferPtr> &setup_args,
                             const ShardedEngineOptions &sharding)
    : replicasPerShard_(sharding.replicasPerShard),
      allowDegraded_(sharding.allowDegraded),
      quarantineThreshold_(std::max(1, sharding.quarantineThreshold)),
      cooldownMs_(std::max<std::int64_t>(0, sharding.cooldownMs))
{
    C4CAM_CHECK(sharding.shards >= 1,
                "ShardedEngine needs at least 1 shard, got "
                << sharding.shards);
    C4CAM_CHECK(sharding.replicasPerShard >= 1,
                "ShardedEngine needs at least 1 replica per shard, got "
                << sharding.replicasPerShard);
    C4CAM_CHECK(kStoredArg < setup_args.size(),
                "sharded serving needs the stored tensor as setup "
                "argument " << kStoredArg << ", got only "
                << setup_args.size() << " setup arguments");

    Compiler compiler(options);

    // Full-size reference instance: the unsharded signature every
    // query is validated against, and the module the final top-k's
    // merge parameters are read from.
    reference_ = std::make_unique<CompiledKernel>(
        compiler.compileTorchScript(source));
    entry_ = reference_->entryPoint();
    ir::Operation *func =
        std::as_const(*reference_).module().lookupFunction(entry_);
    C4CAM_CHECK(func, "sharded kernel has no function '" << entry_
                << "'");
    entryBody_ = &func->region(0).front();
    validateKernelArgs(entryBody_, entry_, setup_args);

    ir::Operation *topk = findLastTopk(entryBody_);
    C4CAM_CHECK(topk,
                "sharded serving requires a kernel ending in top-k "
                "(nothing to scatter-gather otherwise)");
    topK_ = topk->intAttrOr("k", -1);
    if (topK_ < 0)
        // cim.topk variants can carry k as an operand; the result
        // type's trailing extent is the k either way.
        topK_ = topk->result(0)->type().shape().back();
    C4CAM_CHECK(topK_ >= 1, "sharded serving: could not determine k of "
                "the final top-k");
    // The merge must rank exactly like the op that produced the
    // per-shard lists. torch.aten.topk defaults to largest; cim.topk
    // (the CAM path: distances, smaller-is-better) sets the attribute
    // explicitly.
    mergeLargest_ = topk->boolAttrOr("largest", true);

    const rt::BufferPtr &stored = setup_args[kStoredArg];
    C4CAM_CHECK(stored && stored->rank() == 2,
                "sharded serving partitions a rank-2 stored tensor "
                "(rows x dims)");
    std::int64_t dims = stored->shape()[1];
    plan_ = ShardPlan::compute(stored->shape()[0], sharding.shards,
                               topK_);

    shards_.reserve(plan_.slices.size());
    std::vector<sim::PerfReport> setups;
    setups.reserve(plan_.slices.size());
    for (const ShardSlice &slice : plan_.slices) {
        Shard shard;
        shard.slice = slice;

        // Re-instance the kernel at the slice's stored size: shapes
        // are compile-time facts in this frontend, so the shard's
        // mapping plan (subarrays, banks) is recomputed for the
        // smaller extent instead of padded.
        std::vector<std::int64_t> shape = stored->shape();
        shape[0] = slice.rows;
        frontend::ShapeOverrides overrides;
        overrides[kStoredArg] = shape;
        shard.kernel = std::make_unique<CompiledKernel>(
            compiler.compileTorchScript(source, overrides));

        shard.storedSlice =
            stored->subview({slice.begin, 0}, {slice.rows, dims});
        std::vector<rt::BufferPtr> shard_setup = setup_args;
        shard_setup[kStoredArg] = shard.storedSlice;
        shard.engine = shard.kernel->createServingEngine(
            shard_setup, replicasPerShard_);
        // Shard-level retries: a transient fault is re-attempted
        // inside the shard (under the query's scatter span) before it
        // ever counts against the shard's health.
        shard.engine->setRetryPolicy(sharding.retryPolicy);
        // Attaching per shard in slice order makes injector device
        // ids deterministic: shard 0's replicas first, then shard
        // 1's, ... -- a scripted "kill device D" always hits the same
        // physical slice.
        if (sharding.faultInjector)
            shard.engine->attachFaultInjector(sharding.faultInjector);
        setups.push_back(shard.engine->setupReport());
        shards_.push_back(std::move(shard));
    }
    setupReport_ = sim::aggregateShardReports(setups);
    recorder_ = std::make_unique<ServingRecorder>(setupReport_);

    support::ThreadPoolOptions pool_options;
    pool_options.threads = shards_.size() *
                           static_cast<std::size_t>(replicasPerShard_);
    pool_options.namePrefix = "c4cam-shard-";
    pool_ = std::make_unique<support::ThreadPool>(pool_options);
}

void
ShardedEngine::validateQuery(const std::vector<rt::BufferPtr> &args) const
{
    validateKernelArgs(entryBody_, entry_, args);
}

std::vector<rt::BufferPtr>
ShardedEngine::shardArgs(const std::vector<rt::BufferPtr> &args,
                         std::size_t s) const
{
    std::vector<rt::BufferPtr> shard_args = args;
    // The query body ignores the stored argument (the device keeps
    // the slice programmed); swapping the slice view in keeps the
    // arguments shaped to the shard's signature.
    shard_args[kStoredArg] = shards_[s].storedSlice;
    return shard_args;
}

ExecutionResult
ShardedEngine::mergeShardResults(
    const std::vector<ExecutionResult> &shard_results,
    const std::vector<std::size_t> &shard_ids) const
{
    C4CAM_ASSERT(shard_results.size() == shard_ids.size(),
                 "mergeShardResults: " << shard_results.size()
                 << " results for " << shard_ids.size() << " shard ids");
    std::vector<sim::PerfReport> perfs;
    perfs.reserve(shard_results.size());

    // Per-shard typed values and global-axis indices plus shape
    // agreement checks before any merge work.
    const std::size_t num_shards = shard_results.size();
    std::int64_t num_queries = -1;
    std::vector<rt::BufferPtr> shard_indices;
    std::vector<std::vector<float>> value_scratch(num_shards);
    std::vector<std::vector<std::int64_t>> index_scratch(num_shards);
    std::vector<std::span<const float>> shard_values;
    std::vector<std::span<const std::int64_t>> shard_global;
    shard_indices.reserve(num_shards);
    shard_values.reserve(num_shards);
    shard_global.reserve(num_shards);
    for (std::size_t s = 0; s < shard_results.size(); ++s) {
        const ExecutionResult &r = shard_results[s];
        C4CAM_CHECK(r.outputs.size() == 2 && r.outputs[0].isBuffer() &&
                        r.outputs[1].isBuffer(),
                    "sharded serving requires kernels returning "
                    "(values, indices); shard " << s << " returned "
                    << r.outputs.size() << " outputs");
        rt::BufferPtr values = r.outputs[0].asBuffer();
        rt::BufferPtr indices = r.outputs[1].asBuffer();
        C4CAM_CHECK(values->rank() == 2 && indices->rank() == 2 &&
                        values->shape() == indices->shape() &&
                        values->shape()[1] == topK_,
                    "sharded serving expects rank-2 (queries x k) "
                    "top-k outputs");
        if (num_queries < 0)
            num_queries = values->shape()[0];
        C4CAM_CHECK(values->shape()[0] == num_queries,
                    "shard " << s << " answered "
                    << values->shape()[0] << " queries, expected "
                    << num_queries);
        shard_values.push_back(values->elements<float>(value_scratch[s]));
        // Local row j of shard shard_ids[s] is global row
        // j + slice.begin; contiguous slices make the remap monotone,
        // which the merge tie-break relies on.
        shard_indices.push_back(rt::host::offsetIndices(
            indices, shards_[shard_ids[s]].slice.begin));
        shard_global.push_back(
            shard_indices.back()->elements<std::int64_t>(index_scratch[s]));
        perfs.push_back(r.perf);
    }

    auto out_values = rt::Buffer::alloc(rt::DType::F32,
                                        {num_queries, topK_});
    auto out_indices = rt::Buffer::alloc(rt::DType::I64,
                                         {num_queries, topK_});
    std::span<float> merged_values = out_values->denseElements<float>();
    std::span<std::int64_t> merged_indices =
        out_indices->denseElements<std::int64_t>();
    const auto k = static_cast<std::size_t>(topK_);
    std::vector<std::vector<support::TopKEntry>> partials(num_shards);
    for (std::size_t q = 0; q < static_cast<std::size_t>(num_queries);
         ++q) {
        for (std::size_t s = 0; s < num_shards; ++s) {
            partials[s].clear();
            partials[s].reserve(k);
            for (std::size_t j = q * k; j < (q + 1) * k; ++j)
                partials[s].push_back(support::TopKEntry{
                    shard_values[s][j], shard_global[s][j]});
        }
        std::vector<support::TopKEntry> merged =
            support::mergeTopK(partials, k, mergeLargest_);
        for (std::size_t j = 0; j < k; ++j) {
            merged_values[q * k + j] = static_cast<float>(merged[j].value);
            merged_indices[q * k + j] = merged[j].index;
        }
    }

    ExecutionResult out;
    out.outputs.emplace_back(out_values);
    out.outputs.emplace_back(out_indices);
    out.perf = sim::aggregateShardReports(perfs);
    // A merge over fewer shards than the plan is a degraded serve:
    // mark it, never silently partial.
    if (shard_ids.size() < shards_.size()) {
        std::int64_t covered = 0;
        for (std::size_t s : shard_ids)
            covered += shards_[s].slice.rows;
        out.partial = true;
        out.perf.coverage = plan_.totalRows > 0
                                ? double(covered) / double(plan_.totalRows)
                                : 0.0;
    }
    return out;
}

ShardedEngine::ShardHealth
ShardedEngine::shardHealth(std::size_t s) const
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    C4CAM_ASSERT(s < shards_.size(), "shardHealth: shard " << s
                 << " out of range");
    ShardHealth health;
    health.consecutiveFailures = shards_[s].consecutiveFailures;
    health.quarantined = shards_[s].quarantined;
    return health;
}

std::vector<std::size_t>
ShardedEngine::selectActiveShards()
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    Clock::time_point now = Clock::now();
    std::vector<std::size_t> active;
    std::vector<std::size_t> probes_claimed;
    active.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard &shard = shards_[s];
        if (!shard.quarantined) {
            active.push_back(s);
            continue;
        }
        bool cooled =
            now - shard.quarantinedAt >=
            std::chrono::milliseconds(cooldownMs_);
        if (cooled && !shard.probing) {
            // One probe at a time: this query re-tests the shard; a
            // herd of probes against still-dead hardware would defeat
            // the circuit breaker.
            shard.probing = true;
            probes_claimed.push_back(s);
            active.push_back(s);
            continue;
        }
        // Still cooling down (or another probe is in flight).
        if (!allowDegraded_) {
            // Release only the probes THIS call claimed before
            // failing fast (other queries' in-flight probes must
            // stay claimed).
            for (std::size_t p : probes_claimed)
                shards_[p].probing = false;
            throw ExecutionError(
                "shard " + std::to_string(s) +
                " is quarantined (circuit breaker open); enable "
                "degraded serving to answer from surviving shards");
        }
    }
    return active;
}

void
ShardedEngine::recordShardSuccess(std::size_t s)
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    Shard &shard = shards_[s];
    shard.consecutiveFailures = 0;
    shard.probing = false;
    shard.quarantined = false; // probe succeeded -> re-admitted
}

void
ShardedEngine::recordShardFailure(std::size_t s,
                                  const support::SpanContext *ctx)
{
    bool tripped = false;
    {
        std::lock_guard<std::mutex> lock(healthMutex_);
        Shard &shard = shards_[s];
        ++shard.consecutiveFailures;
        shard.probing = false;
        if (!shard.quarantined &&
            shard.consecutiveFailures >= quarantineThreshold_) {
            shard.quarantined = true;
            shard.quarantinedAt = Clock::now();
            ++quarantines_;
            tripped = true;
        } else if (shard.quarantined) {
            // A failed probe re-arms the cooldown without recounting
            // the quarantine (the breaker never closed).
            shard.quarantinedAt = Clock::now();
        }
    }
    support::TraceCollector *col = ctx ? ctx->collector : nullptr;
    if (tripped && col) {
        // Self-rooted marker: quarantine is an engine-level state
        // transition, not a phase of this query's critical path --
        // queryId names the query whose failure tripped the breaker.
        support::TraceEvent ev;
        ev.name = "shard-quarantine";
        ev.traceId = ctx->traceId;
        ev.queryId = ctx->queryId;
        ev.spanId = col->newSpanId();
        ev.parentSpanId = 0;
        ev.startUs = col->nowUs();
        ev.durUs = 0.0;
        col->record(ev);
    }
}

template <typename Result, typename ServeShard>
std::exception_ptr
ShardedEngine::scatterToShards(const std::vector<std::size_t> &active,
                               const ServeShard &serve_shard,
                               std::vector<Result> &results,
                               std::vector<std::size_t> &survivors,
                               const support::SpanContext *ctx)
{
    std::vector<std::future<Result>> futures;
    futures.reserve(active.size());
    for (std::size_t s : active)
        futures.push_back(
            pool_->submit([&serve_shard, s] { return serve_shard(s); }));
    // Wait for EVERY shard before harvesting: a failing shard must
    // not leave siblings running against borrowed arguments.
    for (auto &future : futures)
        future.wait();
    // Harvest with per-shard failure isolation: a shard that failed
    // (transient retries exhausted, or a permanent fault) counts
    // against its health.
    results.reserve(futures.size());
    survivors.reserve(futures.size());
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
            results.push_back(futures[i].get());
            survivors.push_back(active[i]);
            recordShardSuccess(active[i]);
        } catch (...) {
            recordShardFailure(active[i], ctx);
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    return first_error;
}

ExecutionResult
ShardedEngine::serve(const std::vector<rt::BufferPtr> &args,
                     const support::SpanContext *ctx)
{
    // Validate against the unsharded signature BEFORE shardArgs
    // touches args[kStoredArg]: malformed calls must fail on the
    // caller's stack, not under a scatter task (and never index past
    // a short argument vector).
    validateQuery(args);

    support::SpanContext root;
    bool own_root = recorder_->openRoot(ctx, root);
    support::TraceCollector *col =
        ctx && ctx->collector ? ctx->collector : nullptr;
    std::uint64_t trace_id = col ? ctx->traceId : 0;
    std::uint64_t query_id = col ? ctx->queryId : 0;
    std::uint64_t scatter_span = col ? col->newSpanId() : 0;

    // Circuit breaker: healthy shards plus due probes; throws
    // ExecutionError (fail fast) when a quarantined shard is still
    // cooling down and degraded serving is off.
    std::vector<std::size_t> active = selectActiveShards();
    if (active.empty())
        throw ExecutionError(
            "every shard is quarantined and still cooling down; "
            "no shard can answer this query");

    // The scatter + shard-merge pair (and the root, when owned) is
    // recorded on every exit: shard-level spans already landed under
    // the scatter span even when a shard failed, and an unresolvable
    // parent would fail c4cam-trace-check on a complete trace.
    auto record_spans = [&](Clock::time_point t0, Clock::time_point t1,
                            Clock::time_point t2) {
        if (!col)
            return;
        // Shared time points telescope exactly: scatter [t0, t1] and
        // shard-merge [t1, t2] tile the root's [t0, t2] bitwise.
        double u0 = col->toUs(t0);
        double u1 = col->toUs(t1);
        double u2 = col->toUs(t2);
        support::TraceEvent scatter;
        scatter.name = "scatter";
        scatter.traceId = trace_id;
        scatter.queryId = query_id;
        scatter.spanId = scatter_span;
        scatter.parentSpanId = ctx->parentSpanId;
        scatter.startUs = u0;
        scatter.durUs = u1 - u0;
        col->record(scatter);

        support::TraceEvent shard_merge;
        shard_merge.name = "shard-merge";
        shard_merge.traceId = trace_id;
        shard_merge.queryId = query_id;
        shard_merge.spanId = col->newSpanId();
        shard_merge.parentSpanId = ctx->parentSpanId;
        shard_merge.startUs = u1;
        shard_merge.durUs = u2 - u1;
        col->record(shard_merge);

        if (own_root)
            ServingRecorder::recordRoot(root, u0, u2);
    };

    Clock::time_point t0 = Clock::now();
    std::vector<ExecutionResult> shard_results;
    std::vector<std::size_t> surviving;
    std::exception_ptr first_error = scatterToShards(
        active,
        [&](std::size_t s) {
            // Shard execute/merge spans parent under the scatter
            // span, tying each shard's interval to the fan-out.
            support::SpanContext sctx{col, trace_id, query_id,
                                      scatter_span};
            return shards_[s].engine->serve(shardArgs(args, s),
                                            col ? &sctx : nullptr);
        },
        shard_results, surviving, ctx);
    Clock::time_point t1 = Clock::now();

    // The survivors can still answer when degraded serving is on.
    if (surviving.empty() || (first_error && !allowDegraded_)) {
        record_spans(t0, t1, t1);
        std::rethrow_exception(first_error);
    }

    ExecutionResult merged = mergeShardResults(shard_results, surviving);
    Clock::time_point t2 = Clock::now();
    recorder_->record(merged.perf, t0, t2);
    if (merged.partial) {
        {
            std::lock_guard<std::mutex> lock(healthMutex_);
            ++degradedServes_;
        }
        if (col) {
            // Zero-duration marker: this query was answered from
            // surviving shards only (coverage < 1).
            support::TraceEvent degraded;
            degraded.name = "degraded";
            degraded.traceId = trace_id;
            degraded.queryId = query_id;
            degraded.spanId = col->newSpanId();
            degraded.parentSpanId = ctx->parentSpanId;
            degraded.startUs = col->toUs(t1);
            degraded.durUs = 0.0;
            col->record(degraded);
        }
    }
    record_spans(t0, t1, t2);
    return merged;
}

std::vector<ExecutionResult>
ShardedEngine::serveFusedChunk(
    const std::vector<std::vector<rt::BufferPtr>> &queries,
    const std::vector<support::SpanContext> *ctxs)
{
    C4CAM_CHECK(!queries.empty(), "fused chunk needs at least one query");
    std::size_t n = queries.size();
    // Same up-front validation as serve(): every query of the chunk
    // must match the unsharded signature before any shard sees it.
    for (const auto &args : queries)
        validateQuery(args);

    std::vector<support::SpanContext> roots;
    bool own_roots = recorder_->openRoots(ctxs, roots, n);
    support::TraceCollector *col =
        ctxs && !ctxs->empty() ? (*ctxs)[0].collector : nullptr;
    std::vector<std::uint64_t> scatter_spans(n, 0);
    if (col)
        for (std::size_t i = 0; i < n; ++i)
            scatter_spans[i] = col->newSpanId();

    // Same circuit-breaker selection as serve(): skip quarantined
    // shards (degraded) or fail fast, probe after cooldown.
    std::vector<std::size_t> active = selectActiveShards();
    if (active.empty())
        throw ExecutionError(
            "every shard is quarantined and still cooling down; "
            "no shard can answer this fused chunk");

    // Unlike serve(), ANY shard failure fails the whole chunk (the
    // QueryBackend contract: nothing half-recorded; the async
    // front-end falls back to per-query serves, which handle retries
    // and degraded merges).
    Clock::time_point t0 = Clock::now();
    std::vector<std::vector<ExecutionResult>> shard_batches;
    std::vector<std::size_t> surviving;
    std::exception_ptr first_error = scatterToShards(
        active,
        [&](std::size_t s) {
            // Each shard serves the chunk as ONE fused pass of its
            // own; per-query spans parent under that query's scatter
            // span.
            std::vector<std::vector<rt::BufferPtr>> shard_queries;
            shard_queries.reserve(n);
            for (const auto &args : queries)
                shard_queries.push_back(shardArgs(args, s));
            std::vector<support::SpanContext> shard_ctxs;
            if (col) {
                shard_ctxs.reserve(n);
                for (std::size_t i = 0; i < n; ++i)
                    shard_ctxs.push_back(support::SpanContext{
                        col, (*ctxs)[i].traceId, (*ctxs)[i].queryId,
                        scatter_spans[i]});
            }
            return shards_[s].engine->serveFusedChunk(
                shard_queries, col ? &shard_ctxs : nullptr);
        },
        shard_batches, surviving, col ? &(*ctxs)[0] : nullptr);
    Clock::time_point t1 = Clock::now();
    if (first_error) {
        if (col) {
            // Sibling shards already recorded per-query spans under
            // the scatter ids; record those ids under a non-"scatter"
            // name so the trace stays parent-resolvable without
            // claiming a scatter/merge pair this aborted chunk never
            // completed (a later per-query retry records the real
            // pair under the same parent).
            double u0 = col->toUs(t0);
            double u1 = col->toUs(t1);
            for (std::size_t i = 0; i < n; ++i) {
                support::TraceEvent abort_span;
                abort_span.name = "scatter-abort";
                abort_span.traceId = (*ctxs)[i].traceId;
                abort_span.queryId = (*ctxs)[i].queryId;
                abort_span.spanId = scatter_spans[i];
                abort_span.parentSpanId = (*ctxs)[i].parentSpanId;
                abort_span.startUs = u0;
                abort_span.durUs = u1 - u0;
                abort_span.fusedK = static_cast<std::int64_t>(n);
                col->record(abort_span);
                if (own_roots)
                    ServingRecorder::recordRoot(
                        (*ctxs)[i], u0, u1, static_cast<std::int64_t>(n));
            }
        }
        std::rethrow_exception(first_error);
    }

    std::vector<ExecutionResult> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<ExecutionResult> per_shard;
        per_shard.reserve(shard_batches.size());
        for (const std::vector<ExecutionResult> &batch : shard_batches)
            per_shard.push_back(batch[i]);
        results.push_back(mergeShardResults(per_shard, surviving));
    }
    if (active.size() < shards_.size()) {
        // The whole chunk was answered without the quarantined
        // shards: every query of it is a degraded serve.
        std::lock_guard<std::mutex> lock(healthMutex_);
        degradedServes_ += static_cast<std::int64_t>(n);
    }
    Clock::time_point t2 = Clock::now();

    recorder_->recordChunk(results, t0, t2);

    if (col) {
        double u0 = col->toUs(t0);
        double u1 = col->toUs(t1);
        double u2 = col->toUs(t2);
        for (std::size_t i = 0; i < n; ++i) {
            support::TraceEvent scatter;
            scatter.name = "scatter";
            scatter.traceId = (*ctxs)[i].traceId;
            scatter.queryId = (*ctxs)[i].queryId;
            scatter.spanId = scatter_spans[i];
            scatter.parentSpanId = (*ctxs)[i].parentSpanId;
            scatter.startUs = u0;
            scatter.durUs = u1 - u0;
            scatter.fusedK = static_cast<std::int64_t>(n);
            col->record(scatter);

            support::TraceEvent shard_merge;
            shard_merge.name = "shard-merge";
            shard_merge.traceId = (*ctxs)[i].traceId;
            shard_merge.queryId = (*ctxs)[i].queryId;
            shard_merge.spanId = col->newSpanId();
            shard_merge.parentSpanId = (*ctxs)[i].parentSpanId;
            shard_merge.startUs = u1;
            shard_merge.durUs = u2 - u1;
            col->record(shard_merge);

            if (own_roots)
                ServingRecorder::recordRoot(
                    (*ctxs)[i], u0, u2, static_cast<std::int64_t>(n));
        }
    }
    return results;
}

ServingStats
ShardedEngine::stats() const
{
    ServingStats stats = recorder_->stats();
    {
        std::lock_guard<std::mutex> health(healthMutex_);
        stats.quarantines = quarantines_;
        stats.degradedServes = degradedServes_;
    }
    for (const Shard &shard : shards_)
        stats.retries += shard.engine->retriesAttempted();
    return stats;
}

} // namespace c4cam::core
