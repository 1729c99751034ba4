/**
 * @file
 * Process-wide ExecutionPlan cache (see PlanCache.h).
 */

#include "core/PlanCache.h"

#include <sstream>

#include "core/Compiler.h"
#include "ir/IR.h"
#include "support/Trace.h"

namespace c4cam::core {

PlanCache &
PlanCache::instance()
{
    static PlanCache cache;
    return cache;
}

std::string
PlanCache::makeKey(const ir::Module &module, const std::string &entry,
                   const CompilerOptions &options)
{
    // FNV-1a over the printed module: the lowered text carries the
    // shapes, constants and mapping structure, so two kernels with the
    // same digest + length are the same compilation input. Everything
    // else that changes what tryCompilePlan produces is appended
    // verbatim.
    const std::string text = module.str();
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    std::ostringstream key;
    key << std::hex << h << std::dec << ":" << text.size() << ":"
        << entry << ":" << options.hostOnly << options.lowerToLoops;
    return key.str();
}

std::shared_ptr<const rt::ExecutionPlan>
PlanCache::getOrCompile(
    const std::string &key,
    const std::function<std::shared_ptr<const rt::ExecutionPlan>()>
        &compile)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        if (trace_) {
            support::TraceEvent ev;
            ev.name = "plan-cache-hit";
            ev.traceId = trace_->newTraceId();
            ev.spanId = trace_->newSpanId();
            ev.startUs = trace_->nowUs();
            ev.durUs = 0.0;
            trace_->record(ev);
        }
        return it->second->second;
    }
    // Compile under the lock: N racing consumers of one shape perform
    // exactly one compilation; the losers briefly block, then share
    // the winner's (immutable) plan.
    ++misses_;
    const double start_us = trace_ ? trace_->nowUs() : 0.0;
    std::shared_ptr<const rt::ExecutionPlan> plan = compile();
    if (trace_) {
        support::TraceEvent ev;
        ev.name = "plan-compile";
        ev.traceId = trace_->newTraceId();
        ev.spanId = trace_->newSpanId();
        ev.startUs = start_us;
        ev.durUs = trace_->nowUs() - start_us;
        trace_->record(ev);
    }
    lru_.emplace_front(key, std::move(plan));
    index_[key] = lru_.begin();
    evictOverCapacityLocked();
    return lru_.front().second;
}

bool
PlanCache::invalidate(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    lru_.erase(it->second);
    index_.erase(it);
    return true;
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
}

void
PlanCache::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity == 0 ? 1 : capacity;
    evictOverCapacityLocked();
}

std::size_t
PlanCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void
PlanCache::setTraceCollector(support::TraceCollector *collector)
{
    std::lock_guard<std::mutex> lock(mutex_);
    trace_ = collector;
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PlanCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.entries = lru_.size();
    return stats;
}

void
PlanCache::evictOverCapacityLocked()
{
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
}

} // namespace c4cam::core
