/** @file Worker-pool tests. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "support/Error.h"
#include "support/ThreadPool.h"

using c4cam::support::ThreadPool;

TEST(ThreadPool, RunsEveryTaskAndReturnsResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);

    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numThreads(), 1u);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    std::future<void> failing = pool.submit(
        [] { throw std::runtime_error("task failed"); });
    std::future<int> healthy = pool.submit([] { return 7; });
    EXPECT_THROW(failing.get(), std::runtime_error);
    // A thrown task does not poison the pool.
    EXPECT_EQ(healthy.get(), 7);
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, TasksRunOnWorkerThreads)
{
    ThreadPool pool(2);
    std::future<std::thread::id> id =
        pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_NE(id.get(), std::this_thread::get_id());
}

TEST(ThreadPool, ActuallyRunsTasksConcurrently)
{
    // Two tasks that can only finish together: each waits for the
    // other to start. With 2 workers this completes; a serial queue
    // would deadlock (guarded by the timeout check below).
    ThreadPool pool(2);
    std::atomic<int> started{0};
    auto rendezvous = [&started] {
        started.fetch_add(1);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (started.load() < 2) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::yield();
        }
        return true;
    };
    std::future<bool> a = pool.submit(rendezvous);
    std::future<bool> b = pool.submit(rendezvous);
    EXPECT_TRUE(a.get());
    EXPECT_TRUE(b.get());
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> completed{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 16; ++i)
            pool.submit([&completed] { ++completed; });
        // No waiting here: the destructor must drain the queue.
    }
    EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPool, OptionsZeroThreadsMeansHardwareConcurrency)
{
    c4cam::support::ThreadPoolOptions options;
    ThreadPool pool(options);
    EXPECT_GE(pool.numThreads(), 1u);
}

TEST(ThreadPool, NamedWorkersStillComputeEverything)
{
    // Naming is observational only: a named pool must behave exactly
    // like a plain one.
    c4cam::support::ThreadPoolOptions options;
    options.threads = 4;
    options.namePrefix = "c4cam-tptest-";
    ThreadPool pool(options);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

#if defined(__linux__)
TEST(ThreadPool, WorkersCarryThePrefixedName)
{
    // Hold all 4 workers at a rendezvous so each reports its own
    // /proc/self/task name exactly once.
    c4cam::support::ThreadPoolOptions options;
    options.threads = 4;
    options.namePrefix = "c4cam-nm-";
    ThreadPool pool(options);
    std::atomic<int> started{0};
    auto name_of_self = [&started] {
        started.fetch_add(1);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (started.load() < 4 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        char name[32] = {0};
        pthread_getname_np(pthread_self(), name, sizeof(name));
        return std::string(name);
    };
    std::vector<std::future<std::string>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(pool.submit(name_of_self));
    std::set<std::string> names;
    for (auto &future : futures)
        names.insert(future.get());
    EXPECT_EQ(names, (std::set<std::string>{"c4cam-nm-0", "c4cam-nm-1",
                                            "c4cam-nm-2", "c4cam-nm-3"}));
}

TEST(ThreadPool, LongNamePrefixTruncatesInsteadOfFailing)
{
    // Linux caps thread names at 15 chars + NUL; the pool must
    // truncate, not skip naming or error out.
    c4cam::support::ThreadPoolOptions options;
    options.threads = 1;
    options.namePrefix = "c4cam-very-long-worker-prefix-";
    ThreadPool pool(options);
    std::string name = pool.submit([] {
                               char buf[32] = {0};
                               pthread_getname_np(pthread_self(), buf,
                                                  sizeof(buf));
                               return std::string(buf);
                           }).get();
    EXPECT_EQ(name.size(), 15u);
    EXPECT_EQ(name, std::string("c4cam-very-long-worker-prefix-0")
                        .substr(0, 15));
}
#endif // __linux__
