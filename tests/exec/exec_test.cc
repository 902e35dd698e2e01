/**
 * @file
 * Tests for the exec layer: pool scheduling, fork-join semantics,
 * nesting, and seed derivation.
 */

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "exec/seed.hh"

using namespace capo;

TEST(PoolTest, RunsSubmittedTasks)
{
    exec::Pool pool(2);
    std::atomic<int> ran{0};
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;  // guarded by mutex
    for (int i = 0; i < 100; ++i) {
        pool.submit([&] {
            if (ran.fetch_add(1) + 1 == 100) {
                // Set and notify under the lock: the waiter cannot
                // return (and destroy mutex and cv) until this task
                // has released the lock for the last time.
                std::lock_guard<std::mutex> lock(mutex);
                done = true;
                cv.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
    EXPECT_EQ(ran.load(), 100);
}

TEST(PoolTest, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        exec::Pool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(PoolTest, ResolveJobs)
{
    EXPECT_EQ(exec::resolveJobs(1), 1u);
    EXPECT_EQ(exec::resolveJobs(7), 7u);
    EXPECT_GE(exec::resolveJobs(0), 1u);  // auto: all hardware threads
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce)
{
    exec::Pool pool(3);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    exec::parallel_for(pool, n,
                       [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, ResultsLandByIndex)
{
    exec::Pool pool(4);
    constexpr std::size_t n = 257;
    std::vector<std::size_t> out(n, 0);
    exec::parallel_for(pool, n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForTest, MaxParallelOneRunsInlineInOrder)
{
    exec::Pool pool(4);
    std::vector<std::size_t> order;
    exec::parallel_for(
        pool, 16, [&](std::size_t i) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, ZeroCountReturnsImmediately)
{
    exec::Pool pool(2);
    bool ran = false;
    exec::parallel_for(pool, 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelForTest, NestedJoinsComplete)
{
    exec::Pool pool(3);
    constexpr std::size_t outer = 8;
    constexpr std::size_t inner = 8;
    std::vector<std::array<std::atomic<int>, inner>> visits(outer);
    exec::parallel_for(pool, outer, [&](std::size_t o) {
        exec::parallel_for(pool, inner, [&, o](std::size_t i) {
            visits[o][i].fetch_add(1);
        });
    });
    for (std::size_t o = 0; o < outer; ++o) {
        for (std::size_t i = 0; i < inner; ++i)
            EXPECT_EQ(visits[o][i].load(), 1);
    }
}

TEST(ParallelForTest, CallerThreadParticipates)
{
    // The caller claims indices alongside the single worker, so the
    // join completes even when the pool has minimal capacity.
    exec::Pool pool(1);
    std::atomic<int> sum{0};
    exec::parallel_for(pool, 100,
                       [&](std::size_t i) {
                           sum.fetch_add(static_cast<int>(i));
                       });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(SeedTest, PureFunctionOfCoordinates)
{
    const auto a = exec::cellSeed(1, "lusearch", 2, 100.0, 0);
    const auto b = exec::cellSeed(1, "lusearch", 2, 100.0, 0);
    EXPECT_EQ(a, b);
}

TEST(SeedTest, DistinctCoordinatesGiveDistinctSeeds)
{
    std::set<std::uint64_t> seeds;
    for (const char *workload : {"lusearch", "h2", "fop"}) {
        for (std::uint64_t collector : {0u, 1u, 2u}) {
            for (double heap : {50.0, 100.0, 200.0}) {
                for (int inv = 0; inv < 3; ++inv) {
                    seeds.insert(exec::cellSeed(0x5eed, workload,
                                                collector, heap, inv));
                }
            }
        }
    }
    EXPECT_EQ(seeds.size(), 3u * 3u * 3u * 3u);
}

TEST(SeedTest, BaseSeedChangesEverything)
{
    EXPECT_NE(exec::cellSeed(1, "h2", 0, 64.0, 0),
              exec::cellSeed(2, "h2", 0, 64.0, 0));
}

TEST(SeedTest, MixAvalanche)
{
    // Flipping one input bit flips roughly half the output bits.
    const std::uint64_t x = exec::mix64(0x1234);
    const std::uint64_t y = exec::mix64(0x1235);
    int diff = 0;
    for (int b = 0; b < 64; ++b)
        diff += ((x ^ y) >> b) & 1;
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}
