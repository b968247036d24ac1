/**
 * @file
 * Tests for the profiler's parallel plumbing: the thread pool itself,
 * and — more importantly — the guarantee that every parallel path
 * (sharded trace feeding, per-function CFG replay, parallel control
 * dependences) produces output bit-identical to the serial baseline. Parallelism that changes the
 * slice is a correctness bug, not a performance feature.
 *
 * The sharded feed normally engages only on multicore machines and
 * large traces; ParallelCfgBuilder::shardOverrideForTesting bypasses
 * those heuristics so the path is exercised everywhere, including
 * single-core CI runners.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "slicer/slicer.hh"
#include "support/thread_pool.hh"

namespace webslice {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, CoversTheWholeRangeExactlyOnce)
{
    ThreadPool pool(3);
    constexpr size_t kCount = 10000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(0, kCount, [&hits](size_t i) { hits[i]++; });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroWorkersDegradesToSerial)
{
    ThreadPool pool(0);
    std::vector<int> order;
    pool.parallelFor(5, 10, [&order](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{5, 6, 7, 8, 9}));
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(7, 7, [&ran](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, BodyExceptionsPropagateToCaller)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive a throwing loop and accept more work.
    std::atomic<int> count{0};
    pool.parallelFor(0, 10, [&count](size_t) { count++; });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ResolveJobsSemantics)
{
    EXPECT_EQ(ThreadPool::resolveJobs(1), 1u);
    EXPECT_EQ(ThreadPool::resolveJobs(5), 5u);
    EXPECT_GE(ThreadPool::resolveJobs(0), 1u);  // "all hardware threads"
    EXPECT_GE(ThreadPool::resolveJobs(-3), 1u);
}

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

// ---- parallel pipeline == serial pipeline ----------------------------------

/**
 * A program with enough structure to make parallel bugs visible: two
 * threads, nested calls, loops with branches, cross-thread memory flow,
 * and records outside any traced function (synthetic toplevels).
 */
Machine
makeProgram()
{
    Machine machine;
    const auto t0 = machine.addThread("main");
    const auto t1 = machine.addThread("worker");
    const auto outer = machine.registerFunction("par::outer");
    const auto inner = machine.registerFunction("par::inner");
    const auto sink = machine.registerFunction("par::sink");
    const uint64_t shared = machine.alloc(64, "shared");
    const uint64_t pixels = machine.alloc(64, "pixels");
    const uint64_t junk = machine.alloc(64, "junk");

    machine.post(t0, [=](Ctx &ctx) {
        Value total = ctx.imm(0);
        {
            TracedScope scope(ctx, outer);
            Value i = ctx.imm(0);
            Value n = ctx.imm(8);
            while (true) {
                Value more = ctx.ltu(i, n);
                if (!ctx.branchIf(more))
                    break;
                {
                    TracedScope nested(ctx, inner);
                    Value sq = ctx.mul(i, i);
                    total = ctx.add(total, sq);
                }
                i = ctx.addi(i, 1);
            }
            ctx.store(shared, 8, total);
            Value waste = ctx.muli(total, 31);
            ctx.store(junk, 8, waste);
        }
        // Untraced tail: lands in the thread's synthetic toplevel.
        Value tail = ctx.addi(total, 1);
        ctx.store(junk + 8, 8, tail);
    });
    machine.post(t1, [=](Ctx &ctx) {
        TracedScope scope(ctx, sink);
        Value v = ctx.load(shared, 8);
        Value doubled = ctx.shli(v, 1);
        ctx.store(pixels, 8, doubled);
        const trace::MemRange ranges[] = {{pixels, 64}};
        ctx.marker(ranges);
    });
    machine.run();
    return machine;
}

void
expectSameCfgSet(const graph::CfgSet &a, const graph::CfgSet &b)
{
    EXPECT_EQ(a.funcOf, b.funcOf);
    EXPECT_EQ(a.firstSynthetic, b.firstSynthetic);
    EXPECT_EQ(a.syntheticNames, b.syntheticNames);
    ASSERT_EQ(a.byFunc.size(), b.byFunc.size());
    for (const auto &kv : a.byFunc) {
        const auto it = b.byFunc.find(kv.first);
        ASSERT_NE(it, b.byFunc.end()) << "missing function " << kv.first;
        const graph::Cfg &ca = kv.second;
        const graph::Cfg &cb = it->second;
        // Full structural identity, including node numbering: the
        // parallel feed promises bit-identical output, not isomorphism.
        EXPECT_EQ(ca.nodePc, cb.nodePc);
        EXPECT_EQ(ca.succs, cb.succs);
        EXPECT_EQ(ca.preds, cb.preds);
        EXPECT_EQ(ca.isBranch, cb.isBranch);
    }
}

TEST(ParallelPipeline, ParallelCfgsMatchSerial)
{
    Machine machine = makeProgram();
    const auto serial = graph::buildCfgs(machine.records(),
                                         machine.symtab(), 1);
    for (const int jobs : {2, 4}) {
        const auto parallel = graph::buildCfgs(machine.records(),
                                               machine.symtab(), jobs);
        expectSameCfgSet(serial, parallel);
    }
}

TEST(ParallelPipeline, ShardedFeedMatchesSerialForAnyShardCount)
{
    Machine machine = makeProgram();
    const auto serial = graph::buildCfgs(machine.records(),
                                         machine.symtab(), 1);
    // Force the sharded feed on regardless of core count or trace size,
    // including shard counts that leave some shards nearly empty.
    for (const size_t shards : {2u, 3u, 5u, 16u}) {
        graph::ParallelCfgBuilder::shardOverrideForTesting = shards;
        const auto sharded = graph::buildCfgs(machine.records(),
                                              machine.symtab(), 4);
        graph::ParallelCfgBuilder::shardOverrideForTesting = 0;
        expectSameCfgSet(serial, sharded);
    }
}

TEST(ParallelPipeline, ParallelControlDepsMatchSerial)
{
    Machine machine = makeProgram();
    const auto cfgs = graph::buildCfgs(machine.records(),
                                       machine.symtab(), 1);
    const auto serial = graph::buildControlDeps(cfgs, 1);
    const auto parallel = graph::buildControlDeps(cfgs, 4);
    ASSERT_EQ(serial.pairCount(), parallel.pairCount());
    for (const auto &kv : cfgs.byFunc) {
        for (const trace::Pc pc : kv.second.nodePc) {
            if (pc == trace::kNoPc)
                continue;
            const auto a = serial.depsOf(kv.first, pc);
            const auto b = parallel.depsOf(kv.first, pc);
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i)
                EXPECT_EQ(a[i], b[i]);
        }
    }
}

TEST(ParallelPipeline, SliceIdenticalAcrossJobs)
{
    Machine machine = makeProgram();

    // Reference: fully serial forward pass, default sequential slicer.
    const auto ref_cfgs = graph::buildCfgs(machine.records(),
                                           machine.symtab(), 1);
    const auto ref_deps = graph::buildControlDeps(ref_cfgs, 1);
    const auto reference = slicer::computeSlice(
        machine.records(), ref_cfgs, ref_deps, machine.pixelCriteria());

    for (const int jobs : {1, 2, 4}) {
        graph::ParallelCfgBuilder::shardOverrideForTesting =
            jobs > 1 ? static_cast<size_t>(jobs) : 0;
        const auto cfgs = graph::buildCfgs(machine.records(),
                                           machine.symtab(), jobs);
        graph::ParallelCfgBuilder::shardOverrideForTesting = 0;
        const auto deps = graph::buildControlDeps(cfgs, jobs);
        slicer::SlicerOptions options;
        options.jobs = jobs;
        const auto slice = slicer::computeSlice(
            machine.records(), cfgs, deps, machine.pixelCriteria(),
            options);
        EXPECT_EQ(slice.inSlice, reference.inSlice) << "jobs=" << jobs;
        EXPECT_EQ(slice.sliceInstructions, reference.sliceInstructions);
        EXPECT_EQ(slice.instructionsAnalyzed,
                  reference.instructionsAnalyzed);
    }
}

} // namespace
} // namespace webslice
