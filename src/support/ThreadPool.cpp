#include "support/ThreadPool.h"

#include <algorithm>

#include "support/Error.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace c4cam::support {

ThreadPool::ThreadPool(std::size_t threads)
    : ThreadPool(ThreadPoolOptions{threads, std::string()})
{
}

ThreadPool::ThreadPool(const ThreadPoolOptions &options)
{
    std::size_t threads = options.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
        nameWorker(workers_.back(), options, i);
    }
}

void
ThreadPool::nameWorker(std::thread &worker,
                       const ThreadPoolOptions &options, std::size_t index)
{
#if defined(__linux__)
    if (!options.namePrefix.empty()) {
        // Linux caps thread names at 15 chars + NUL; a longer name
        // makes pthread_setname_np fail outright, so truncate.
        std::string name = options.namePrefix + std::to_string(index);
        if (name.size() > 15)
            name.resize(15);
        (void)pthread_setname_np(worker.native_handle(), name.c_str());
    }
#else
    (void)worker;
    (void)options;
    (void)index;
#endif
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        C4CAM_CHECK(!stopping_, "submit on a stopping ThreadPool");
        queue_.push_back(std::move(job));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        // Exceptions are captured by the packaged_task wrapper; a
        // throwing raw job would terminate, so submit() is the only
        // public entry point.
        job();
    }
}

} // namespace c4cam::support
