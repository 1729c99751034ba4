/**
 * @file
 * Heap allocations of steady-state query serving.
 *
 * Plan replay reuses the views and read-out buffers of the previous
 * tile or query, and the CAM device keeps one search result per
 * subarray, so a warm runQuery() allocates the same number of times
 * whatever the number of tiles its kernel searches. This TU replaces
 * the global operator new with a counting one (it only counts; every
 * test of this executable runs in its own process).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "support/Rng.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

} // namespace

// Every non-aligned form is replaced, so each allocation and its
// release pair malloc with free (sanitizer runtimes check the pairing).
// They stay out of line: inlined, GCC would see malloc or free meet
// operator new or delete in one caller and warn of a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;

namespace {

/** Allocations over this many warm queries are compared. */
constexpr int kMeasuredQueries = 6;

struct QueryAllocations
{
    std::int64_t allocations = 0;
    std::int64_t searches = 0;
    /** The fewest allocations one of the measured queries made. */
    std::int64_t fewestInAQuery = 0;
};

/**
 * Heap allocations of kMeasuredQueries steady-state runQuery() calls
 * on a session of @p source over @p rows x @p dims stored vectors
 * (+-1 when @p bipolar, else levels 0..3), and the searches one query
 * issues.
 */
QueryAllocations
measure(const ArchSpec &spec, const std::string &source, std::int64_t rows,
        std::int64_t dims, bool bipolar)
{
    Rng rng(5);
    std::vector<std::vector<float>> stored(
        static_cast<std::size_t>(rows),
        std::vector<float>(static_cast<std::size_t>(dims)));
    for (auto &row : stored)
        for (auto &v : row)
            v = bipolar ? (rng.nextBool() ? 1.0f : -1.0f)
                        : static_cast<float>(rng.nextBelow(4));
    auto stored_buf = rt::Buffer::fromMatrix(stored);
    std::vector<std::vector<rt::BufferPtr>> queries;
    for (std::size_t i = 0; i < 4; ++i)
        queries.push_back({rt::Buffer::fromMatrix({stored[i]}), stored_buf});

    core::CompilerOptions options;
    options.spec = spec;
    core::CompiledKernel kernel =
        core::Compiler(options).compileTorchScript(source);
    core::ExecutionSession session = kernel.createSession(queries[0]);
    // Warm-up: the first queries create the buffers later ones reuse.
    for (const auto &args : queries)
        session.runQuery(args);

    QueryAllocations out;
    const std::int64_t before = g_allocations.load();
    for (int q = 0; q < kMeasuredQueries; ++q) {
        const std::int64_t query_before = g_allocations.load();
        out.searches = session.runQuery(queries[q % queries.size()])
                           .perf.searches;
        const std::int64_t made = g_allocations.load() - query_before;
        if (q == 0 || made < out.fewestInAQuery)
            out.fewestInAQuery = made;
    }
    out.allocations = g_allocations.load() - before;
    return out;
}

ArchSpec
mcamSpec()
{
    ArchSpec spec = ArchSpec::dseSetup(16, OptTarget::Base);
    spec.camType = arch::CamDeviceType::Mcam;
    spec.bitsPerCell = 2;
    return spec;
}

} // namespace

TEST(QueryAllocations, KnnDoesNotScaleWithTiles)
{
    // 16x16 MCAM subarrays: four times the width is four times the
    // tiles, and not one more allocation.
    QueryAllocations narrow = measure(
        mcamSpec(), apps::knnEuclideanSource(1, 32, 64, 5), 32, 64,
        /*bipolar=*/false);
    QueryAllocations wide = measure(
        mcamSpec(), apps::knnEuclideanSource(1, 32, 256, 5), 32, 256,
        /*bipolar=*/false);
    ASSERT_EQ(wide.searches, 4 * narrow.searches);
    EXPECT_EQ(wide.allocations, narrow.allocations);
}

TEST(QueryAllocations, DotDoesNotScaleWithTiles)
{
    const ArchSpec spec = ArchSpec::dseSetup(32, OptTarget::Base);
    QueryAllocations small = measure(
        spec, apps::dotSimilaritySource(1, 32, 128, 1), 32, 128,
        /*bipolar=*/true);
    QueryAllocations large = measure(
        spec, apps::dotSimilaritySource(1, 64, 512, 1), 64, 512,
        /*bipolar=*/true);
    ASSERT_EQ(large.searches, 8 * small.searches);
    EXPECT_EQ(large.allocations, small.allocations);
}

TEST(QueryAllocations, WarmQueryAllocationBound)
{
    // What a warm query still allocates, on both shapes: the argument
    // vector (1), the query program's three memref.alloc buffers (4
    // each: the shape, the view, its strides and the typed storage
    // block), host top-k (10: its output shape, two output buffers, the
    // sort order and stable_sort's buffer) and the returned vector
    // (1). The serving recorder's latency window also grows now and
    // then until it holds 4,096 samples, so the fewest over the
    // measured queries is the steady-state count.
    constexpr std::int64_t kPerWarmQuery = 24;
    QueryAllocations knn = measure(
        mcamSpec(), apps::knnEuclideanSource(1, 32, 64, 5), 32, 64,
        /*bipolar=*/false);
    QueryAllocations dot = measure(
        ArchSpec::dseSetup(32, OptTarget::Base),
        apps::dotSimilaritySource(1, 32, 128, 1), 32, 128,
        /*bipolar=*/true);
    EXPECT_EQ(knn.fewestInAQuery, kPerWarmQuery);
    EXPECT_EQ(dot.fewestInAQuery, kPerWarmQuery);
}
