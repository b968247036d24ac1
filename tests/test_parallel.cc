/**
 * @file
 * Tests for the thread pool the slicing service's scheduler runs on:
 * TaskGroup accounting, post(), drain() on the calling thread, and
 * exception propagation from posted tasks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hh"

namespace webslice {
namespace {

// ---- TaskGroup / post / drain ----------------------------------------------

TEST(TaskGroup, PostedTasksAllRunAndWaitBlocks)
{
    ThreadPool pool(3);
    TaskGroup group;
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.post(group, [&ran] { ran++; });
    group.wait();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(group.outstanding(), 0u);
    // The group is reusable after a wait.
    pool.post(group, [&ran] { ran++; });
    group.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(TaskGroup, ZeroWorkerPoolRunsTasksInline)
{
    ThreadPool pool(0);
    TaskGroup group;
    int ran = 0;
    pool.post(group, [&ran] { ran++; });
    // With no workers the task already ran inside post().
    EXPECT_EQ(ran, 1);
    group.wait();
}

TEST(TaskGroup, DrainExecutesQueuedTasksOnCaller)
{
    // A pool whose single worker is blocked: drain() must let the
    // calling thread pick up the queued tasks itself instead of
    // deadlocking behind the stuck worker.
    ThreadPool pool(1);
    TaskGroup group;
    std::atomic<bool> release{false};
    pool.post(group, [&release] {
        while (!release.load())
            std::this_thread::yield();
    });
    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i)
        pool.post(group, [&ran] { ran++; });
    std::thread unblocker([&release] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        release.store(true);
    });
    pool.drain(group);
    unblocker.join();
    EXPECT_EQ(ran.load(), 50);
    EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroup, FirstTaskExceptionIsRethrownFromWait)
{
    ThreadPool pool(2);
    TaskGroup group;
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) {
        pool.post(group, [&ran, i] {
            ++ran;
            if (i == 7)
                throw std::runtime_error("task boom");
        });
    }
    EXPECT_THROW(pool.drain(group), std::runtime_error);
    // Every task still ran; one exception does not cancel siblings.
    EXPECT_EQ(ran.load(), 20);
    // The group must be reusable after the error was consumed.
    pool.post(group, [&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 21);
}

} // namespace
} // namespace webslice
