#ifndef C4CAM_SUPPORT_THREADPOOL_H
#define C4CAM_SUPPORT_THREADPOOL_H

/**
 * @file
 * Fixed-size worker pool with a FIFO work queue.
 *
 * Used by the serving engine (one in-flight query per device replica)
 * and the DSE driver (one architecture candidate per task). Tasks are
 * type-erased thunks; submit() wraps a callable into a std::future so
 * results and exceptions propagate to the caller.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace c4cam::support {

/**
 * Worker-thread options. Naming is best effort and purely
 * observational: it never changes what the pool computes.
 */
struct ThreadPoolOptions
{
    /** Worker count; 0 means hardware_concurrency() (at least 1). */
    std::size_t threads = 0;

    /**
     * When non-empty, worker i is named "<namePrefix><i>" (truncated
     * to the platform's thread-name limit). Shows up in /proc, top -H
     * and debuggers; a no-op where the platform has no thread names.
     */
    std::string namePrefix;
};

/**
 * N worker threads draining one FIFO queue.
 *
 * Threads are joined in the destructor after the queue drains; tasks
 * submitted from other tasks are allowed (workers never block on their
 * own results -- waiting on a future of a task that sits behind you in
 * the queue of a 1-thread pool would deadlock, so don't do that).
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means std::thread::hardware_concurrency()
     *        (at least 1).
     */
    explicit ThreadPool(std::size_t threads);

    /** Worker pool with named workers. */
    explicit ThreadPool(const ThreadPoolOptions &options);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t numThreads() const { return workers_.size(); }

    /**
     * Enqueue @p fn; the future resolves with its return value (or
     * rethrows its exception).
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

  private:
    void enqueue(std::function<void()> job);
    void workerLoop();
    /** Apply @p options naming to worker @p index (best effort;
     *  failures are ignored). */
    static void nameWorker(std::thread &worker,
                           const ThreadPoolOptions &options,
                           std::size_t index);

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

} // namespace c4cam::support

#endif // C4CAM_SUPPORT_THREADPOOL_H
