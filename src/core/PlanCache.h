#ifndef C4CAM_CORE_PLANCACHE_H
#define C4CAM_CORE_PLANCACHE_H

/**
 * @file
 * Process-wide shape-keyed cache of compiled ExecutionPlans.
 *
 * Plan compilation runs once per distinct kernel shape, not once per
 * consumer: ExecutionSession, ServingEngine replicas, ShardedEngine
 * per-shard compiles (M shards with equal slice sizes collapse to one
 * compile + M-1 hits) and DseExplorer candidate sweeps all funnel
 * through core::tryCompilePlan, which keys into this cache.
 *
 * Keying: the canonical key digests the module fingerprint (the
 * printed IR -- shapes, constants and mapping structure are all part
 * of the lowered text, so ShapeOverrides and ArchSpec differences are
 * naturally covered), the entry symbol, and every CompilerOptions
 * field that changes what tryCompilePlan would produce (hostOnly,
 * lowerToLoops). Same canonical key => interchangeable plan.
 *
 * Concurrency: getOrCompile() compiles under the cache mutex, so N
 * racing session creations of the same shape perform exactly one
 * compilation -- the losers block briefly and then share the winner's
 * plan (plans are immutable and replayed via caller-owned frames, so
 * sharing is free). Eviction is LRU with a fixed entry capacity.
 */

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace c4cam::ir {
class Module;
}
namespace c4cam::rt {
class ExecutionPlan;
}
namespace c4cam::support {
class TraceCollector;
}

namespace c4cam::core {

struct CompilerOptions;

/** Counters surfaced through ServingStats and c4cam-run --json. */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0; ///< current resident plans
};

class PlanCache
{
  public:
    /** The process-wide instance. */
    static PlanCache &instance();

    /** Canonical cache key for (module, entry, options). */
    static std::string makeKey(const ir::Module &module,
                               const std::string &entry,
                               const CompilerOptions &options);

    /**
     * Look up @p key; on a miss, run @p compile under the cache lock
     * and insert its result. When @p compile throws, the exception
     * propagates and nothing is cached. Emits a "plan-compile" span on
     * miss and a "plan-cache-hit" span on hit when a trace collector
     * is attached.
     */
    std::shared_ptr<const rt::ExecutionPlan> getOrCompile(
        const std::string &key,
        const std::function<std::shared_ptr<const rt::ExecutionPlan>()>
            &compile);

    /** Drop one entry; true when it was resident. Used by
     *  CompiledKernel's mutable module() access so a rewritten module
     *  can never serve a stale plan. */
    bool invalidate(const std::string &key);

    /** Drop every entry (tests). Counters are not reset. */
    void clear();

    /** Resize the LRU capacity, evicting as needed. */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const;

    /** Attach (or detach, nullptr) the collector that receives
     *  plan-compile / plan-cache-hit spans. */
    void setTraceCollector(support::TraceCollector *collector);

    PlanCacheStats stats() const;

  private:
    PlanCache() = default;

    void evictOverCapacityLocked();

    using Entry =
        std::pair<std::string, std::shared_ptr<const rt::ExecutionPlan>>;

    mutable std::mutex mutex_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::size_t capacity_ = 128;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    support::TraceCollector *trace_ = nullptr;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_PLANCACHE_H
