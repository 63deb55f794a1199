#pragma once
// Fixed-size thread pool with parallel_for and run_lanes helpers.
//
// The NN substrate uses parallel_for for data-parallel work inside
// matmul/im2col, where each range chunk is independent; the serve body
// fan-out (serve/fanout.hpp) uses run_lanes to spread one request's N body
// forwards over idle workers. The pool is created once and
// reused; ens::global_pool() returns a process-wide instance sized to the
// hardware concurrency (overridable with the ENS_THREADS env var).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ens {

class ThreadPool {
public:
    /// Spawns `num_threads` workers (>= 1).
    explicit ThreadPool(std::size_t num_threads);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    std::size_t size() const { return workers_.size(); }

    /// Runs fn(begin..end) split into roughly equal chunks across the pool,
    /// blocking until all chunks complete. The calling thread participates,
    /// so a pool of size 1 still gets 1 worker + caller. Exceptions from
    /// chunks are rethrown (first one wins).
    ///
    /// Re-entrancy: when called from one of THIS pool's worker threads, or
    /// from the caller's lane of a run_lanes over it (e.g. a serve body
    /// fan-out lane whose forward hits parallel_for again inside
    /// conv/GEMM), the range runs inline on that thread instead of being
    /// split — blocking a worker on sub-chunks it is itself supposed to
    /// drain would deadlock the pool. Calls onto a different pool split
    /// normally (its workers can drain them).
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// Runs fn() on the calling thread and, at the same time, in up to
    /// lanes-1 pool tasks. Returns once the caller's fn() has returned and
    /// every task that had started fn() by then has returned too; a task
    /// dequeued later returns without calling fn. So fn must share the work
    /// out itself (each call claims items from shared state until none is
    /// left), and the caller never waits on a task still queued behind
    /// other work. Nested parallel_for calls inside fn run inline on every
    /// lane, the caller's included: the other lanes already hold the
    /// workers they would split onto.
    ///
    /// lanes <= 1 (or a re-entrant call, or a forked child) just calls fn()
    /// on the calling thread, nested calls splitting as usual. The first
    /// exception is rethrown once every started lane has returned.
    void run_lanes(std::size_t lanes, const std::function<void()>& fn);

    /// True on threads owned by any ThreadPool (exposed for tests).
    static bool on_worker_thread();

    /// Call in a CHILD process immediately after fork(): worker threads do
    /// not survive fork, so any pool created before it (notably the lazy
    /// global_pool()) would enqueue chunks no one drains. After this call
    /// every parallel_for in the process runs its range inline on the
    /// calling thread instead. Process-wide and irreversible — meant for
    /// forked test daemons and fork-per-request servers, which should _exit
    /// rather than run static destructors on inherited pools.
    static void mark_forked_child();

private:
    /// True where parallel_for/run_lanes must not split (re-entrant call
    /// or forked child).
    bool runs_inline() const;
    void worker_loop();
    void enqueue(std::function<void()> task);

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Process-wide pool; size = ENS_THREADS env var if set, else
/// hardware_concurrency.
ThreadPool& global_pool();

/// Convenience wrapper over global_pool().parallel_for.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace ens
