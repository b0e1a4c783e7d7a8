// The fixed-size thread pool behind the parallel multi-start fan-out.
// Exercises submit/wait, parallel_for coverage, the inline (≤1 thread)
// fallback, reuse after wait, and exception-free teardown. This test is the
// main TSan target (scripts/tier1.sh builds it with -DUCP_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

using ucp::ThreadPool;

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        const std::size_t n = 500;
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
}

TEST(ThreadPool, SubmitAndWait) {
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i) pool.submit([&sum, i] { sum.fetch_add(i); });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);

    // The pool must be reusable after wait().
    pool.submit([&sum] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 5051);
}

TEST(ThreadPool, InlineModeRunsInSubmissionOrder) {
    // ≤1 thread: jobs run on the calling thread, strictly in order — the
    // deterministic fallback documented in thread_pool.hpp.
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 0u);  // no worker threads in inline mode
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) pool.submit([&order, i] { order.push_back(i); });
    pool.wait();
    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ParallelForZeroAndOneItems) {
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> acalls{0};
    pool.parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        acalls.fetch_add(1);
    });
    EXPECT_EQ(acalls.load(), 1);
}

TEST(ThreadPool, DefaultThreadsRespectsEnvOverride) {
    // UCP_THREADS is read per call, so we can test the override in-process.
    ::setenv("UCP_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::default_threads(), 3u);
    ::setenv("UCP_THREADS", "0", 1);   // invalid → hardware fallback
    EXPECT_GE(ThreadPool::default_threads(), 1u);
    ::unsetenv("UCP_THREADS");
    EXPECT_EQ(ThreadPool::default_threads(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, DefaultThreadsRejectsPartialAndHugeEnvValues) {
    // Only the returned count is checked: no pool is built from it.
    const unsigned hw = ThreadPool::hardware_threads();
    ::setenv("UCP_THREADS", "4x", 1);
    EXPECT_EQ(ThreadPool::default_threads(), hw);
    ::setenv("UCP_THREADS", "100000", 1);
    EXPECT_EQ(ThreadPool::default_threads(), hw);
    ::setenv("UCP_THREADS", "1024", 1);
    EXPECT_EQ(ThreadPool::default_threads(), ThreadPool::kMaxThreads);
    ::unsetenv("UCP_THREADS");
}

TEST(ThreadPool, ManyPoolsConstructDestructCleanly) {
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(2);
        std::atomic<int> n{0};
        pool.parallel_for(8, [&](std::size_t) { n.fetch_add(1); });
        EXPECT_EQ(n.load(), 8);
    }  // destructor joins workers; TSan verifies no races on teardown
}

}  // namespace
