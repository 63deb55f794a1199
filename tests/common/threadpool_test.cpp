#include "common/threadpool.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ens {
namespace {

TEST(ThreadPool, RequiresAtLeastOneWorker) {
    EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            hits[i].fetch_add(1);
        }
    });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRange) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(7, 8, [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(lo, 7u);
        EXPECT_EQ(hi, 8u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [&](std::size_t lo, std::size_t) {
                                       if (lo == 0) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, SumMatchesSerial) {
    ThreadPool pool(2);
    const std::size_t n = 100000;
    std::atomic<long long> total{0};
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
        long long local = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            local += static_cast<long long>(i);
        }
        total.fetch_add(local);
    });
    EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
    ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> count{0};
        pool.parallel_for(0, 50, [&](std::size_t lo, std::size_t hi) {
            count.fetch_add(static_cast<int>(hi - lo));
        });
        EXPECT_EQ(count.load(), 50);
    }
}

// Nested parallel_for from a pool worker (serve body fan-out -> matmul
// parallel_for) must run inline instead of blocking the worker on chunks
// only it could drain — on a size-1 pool that block is a guaranteed
// deadlock, so this test completing at all is the assertion.
TEST(ThreadPool, NestedParallelForFromWorkerRunsInline) {
    ThreadPool pool(1);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    std::atomic<int> inner_total{0};
    std::atomic<int> on_worker_nested{0};
    pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            if (ThreadPool::on_worker_thread()) {
                ++on_worker_nested;
            }
            pool.parallel_for(0, 8, [&](std::size_t l2, std::size_t h2) {
                inner_total.fetch_add(static_cast<int>(h2 - l2));
            });
        }
    });
    EXPECT_EQ(inner_total.load(), 4 * 8);
    // The pool worker ran at least one outer chunk and detected itself.
    EXPECT_GE(on_worker_nested.load(), 1);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
}

// Nesting onto a DIFFERENT pool must still split (its workers are free to
// drain the chunks), so tasks of one pool can still use another's workers.
TEST(ThreadPool, CrossPoolNestingStillParallelizes) {
    ThreadPool outer(1);
    ThreadPool inner(1);
    std::atomic<int> inner_total{0};
    outer.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            inner.parallel_for(0, 8, [&](std::size_t l2, std::size_t h2) {
                inner_total.fetch_add(static_cast<int>(h2 - l2));
            });
        }
    });
    EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, RunLanesSharesWorkAndRunsNestedCallsInline) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(200);
    std::atomic<std::size_t> next{0};
    std::atomic<int> nested_splits{0};
    pool.run_lanes(4, [&] {
        for (std::size_t i = next.fetch_add(1); i < hits.size(); i = next.fetch_add(1)) {
            hits[i].fetch_add(1);
            // Every lane, the calling thread's included, runs nested work
            // inline: exactly one call over the whole range.
            pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
                if (lo != 0 || hi != 8) {
                    nested_splits.fetch_add(1);
                }
            });
        }
    });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
    EXPECT_EQ(nested_splits.load(), 0);
    // Outside the lanes the caller splits again.
    std::atomic<int> chunks{0};
    pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { chunks.fetch_add(1); });
    EXPECT_GT(chunks.load(), 1);
}

TEST(ThreadPool, RunLanesWithOneLaneCallsFnOnceOnTheCaller) {
    ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    bool foreign_thread = false;
    pool.run_lanes(1, [&] {
        ++calls;
        foreign_thread = std::this_thread::get_id() != caller;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(foreign_thread);
}

// The caller waits only for lanes that started: with the only worker busy
// elsewhere, run_lanes returns after the caller's own fn, and the helper
// task dequeued later must not call fn any more.
TEST(ThreadPool, RunLanesNeverWaitsOnAQueuedHelper) {
    std::atomic<int> calls{0};
    std::atomic<bool> release{false};
    std::atomic<bool> released_by_watchdog{false};
    {
        ThreadPool pool(1);
        std::atomic<bool> worker_busy{false};
        std::thread occupier([&] {
            pool.parallel_for(0, 2, [&](std::size_t, std::size_t) {
                if (ThreadPool::on_worker_thread()) {
                    worker_busy.store(true);
                    while (!release.load()) {
                        std::this_thread::yield();
                    }
                }
            });
        });
        while (!worker_busy.load()) {
            std::this_thread::yield();
        }
        // Unblocks a broken run_lanes instead of hanging the suite.
        std::thread watchdog([&] {
            for (int i = 0; i < 1000 && !release.load(); ++i) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            released_by_watchdog.store(!release.exchange(true));
        });
        pool.run_lanes(2, [&] { calls.fetch_add(1); });
        const int calls_at_return = calls.load();
        release.store(true);
        watchdog.join();
        occupier.join();
        EXPECT_FALSE(released_by_watchdog.load()) << "run_lanes waited on a queued helper";
        EXPECT_EQ(calls_at_return, 1);
    }  // the pool drains its queue (the late helper) before it is destroyed
    EXPECT_EQ(calls.load(), 1) << "a helper dequeued after the caller returned ran fn";
}

TEST(ThreadPool, RunLanesRethrowsALaneException) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.run_lanes(3, [] { throw std::runtime_error("boom"); }),
                 std::runtime_error);
}

TEST(ThreadPool, GlobalPoolWorks) {
    std::atomic<int> count{0};
    parallel_for(0, 10, [&](std::size_t lo, std::size_t hi) {
        count.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(count.load(), 10);
    EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace ens
