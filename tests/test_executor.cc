/**
 * @file
 * Tests for the shared executor (util/executor.hh): exactly-once
 * index coverage, inline execution for width 1 and nested calls,
 * concurrent callers, and lowest-index exception propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/executor.hh"

namespace {

using cactid::util::executorWidth;
using cactid::util::parallelFor;

TEST(Executor, EveryIndexRunsExactlyOnce)
{
    for (const std::size_t n : {0u, 1u, 7u, 10000u}) {
        for (const int width : {1, 2, 64}) {
            std::vector<std::atomic<int>> runs(n);
            parallelFor(n, width, [&](std::size_t i) {
                runs[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(runs[i].load(), 1)
                    << "n=" << n << " width=" << width << " i=" << i;
        }
    }
}

TEST(Executor, WidthOneRunsInlineInIndexOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool all_on_caller = true;
    parallelFor(100, 1, [&](std::size_t i) {
        all_on_caller =
            all_on_caller && std::this_thread::get_id() == caller;
        order.push_back(i); // no lock: inline on this thread
    });
    EXPECT_TRUE(all_on_caller);
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Executor, NestedCallRunsInlineWithoutDeadlock)
{
    constexpr std::size_t kOuter = 16, kInner = 500;
    std::vector<std::size_t> sums(kOuter, 0);
    std::vector<char> inner_inline(kOuter, 0);
    parallelFor(kOuter, 4, [&](std::size_t o) {
        const std::thread::id me = std::this_thread::get_id();
        bool same_thread = true;
        std::size_t sum = 0;
        // Inline: the inner tasks run on this task's thread, so the
        // unsynchronized writes below are race-free.
        parallelFor(kInner, 4, [&](std::size_t i) {
            same_thread = same_thread && std::this_thread::get_id() == me;
            sum += i;
        });
        sums[o] = sum;
        inner_inline[o] = same_thread;
    });
    for (std::size_t o = 0; o < kOuter; ++o) {
        EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
        EXPECT_TRUE(inner_inline[o]);
    }
}

TEST(Executor, ConcurrentCallersBothComplete)
{
    constexpr std::size_t kN = 20000;
    constexpr int kRounds = 20;
    auto caller = [](std::vector<std::size_t> &out) {
        for (int r = 0; r < kRounds; ++r) {
            std::vector<std::size_t> v(kN, 0);
            parallelFor(kN, 8, [&](std::size_t i) { v[i] = i * 3 + r; });
            for (std::size_t i = 0; i < kN; ++i) {
                if (v[i] != i * 3 + r) {
                    out.push_back(i);
                    return;
                }
            }
        }
    };
    std::vector<std::size_t> bad_a, bad_b;
    std::thread a(caller, std::ref(bad_a));
    std::thread b(caller, std::ref(bad_b));
    a.join();
    b.join();
    EXPECT_TRUE(bad_a.empty());
    EXPECT_TRUE(bad_b.empty());
}

TEST(Executor, LowestIndexExceptionAfterAllTasksFinish)
{
    for (const int width : {1, 4}) {
        constexpr std::size_t kN = 2000;
        std::atomic<std::size_t> finished{0};
        std::string what;
        try {
            parallelFor(kN, width, [&](std::size_t i) {
                finished.fetch_add(1, std::memory_order_relaxed);
                if (i == 1500 || i == 37 || i == 900)
                    throw std::runtime_error(std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_EQ(what, "37") << "width=" << width;
        EXPECT_EQ(finished.load(), kN) << "width=" << width;

        // The pool is usable afterwards.
        std::atomic<std::size_t> sum{0};
        parallelFor(100, width, [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(Executor, WidthIsHardwareConcurrency)
{
    EXPECT_EQ(executorWidth(), cactid::util::resolveJobs(0));
    EXPECT_GE(executorWidth(), 1);
    EXPECT_EQ(cactid::util::resolveJobs(3), 3);
}

} // namespace
