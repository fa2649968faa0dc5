/**
 * @file
 * ThreadPool unit tests plus the determinism contract of the
 * parallel experiment engine: the same options must produce
 * bit-identical experiment results at 1 worker and at N workers,
 * because every cell derives its RNG streams from (seed, cell)
 * rather than sharing a sequential generator (DESIGN.md §8).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

// ------------------------------------------------------ pool basics

TEST(ThreadPool, SubmitRunsTask)
{
    ThreadPool pool(2);
    std::promise<int> done;
    pool.submit([&done] { done.set_value(41); });
    EXPECT_EQ(done.get_future().get(), 41);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    bool ran = false;
    parallelFor(pool, 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ManyMoreTasksThanWorkersRunExactlyOnce)
{
    ThreadPool pool(2);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(pool, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::uint64_t sum = 0; // safe: 1 worker means inline execution
    parallelFor(pool, 100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, SingleFailureRethrownUnchanged)
{
    ThreadPool pool(4);
    try {
        parallelFor(pool, 100, [](std::size_t i) {
            if (i == 42)
                throw std::runtime_error("boom 42");
        });
        FAIL() << "parallelFor swallowed the exception";
    } catch (const ParallelForError &) {
        FAIL() << "single failure must not be wrapped";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 42");
    }
}

TEST(ThreadPool, AggregatesMultipleExceptions)
{
    ThreadPool pool(4);
    try {
        parallelFor(pool, 100, [](std::size_t i) {
            if (i % 7 == 3)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the exceptions";
    } catch (const ParallelForError &e) {
        // Deterministic: the lowest failing index leads, the other
        // 14 - 1 = 13 failures are aggregated (index order), no
        // matter which worker hit its exception first.
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("boom 3 [index 3; +13 suppressed:", 0),
                  0u)
            << what;
        EXPECT_NE(what.find("index 10: boom 10;"), std::string::npos)
            << what;
        EXPECT_EQ(e.suppressedErrors(), 13u);
    }
}

TEST(ThreadPool, InlinePathAggregatesLikePooledPath)
{
    // One worker forces the inline path; its exception contract must
    // match the pooled one (every index runs, failures aggregate).
    ThreadPool pool(1);
    std::vector<int> hits(10, 0);
    try {
        parallelFor(pool, 10, [&](std::size_t i) {
            hits[i] = 1;
            if (i == 2 || i == 5)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the exceptions";
    } catch (const ParallelForError &e) {
        EXPECT_EQ(e.suppressedErrors(), 1u);
        EXPECT_EQ(std::string(e.what())
                      .rfind("boom 2 [index 2; +1 suppressed:", 0),
                  0u)
            << e.what();
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, AllIndicesStillRunWhenSomeThrow)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(parallelFor(pool, n,
                             [&](std::size_t i) {
                                 ++hits[i];
                                 if (i % 2 == 0)
                                     throw std::runtime_error("even");
                             }),
                 std::runtime_error);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A parallelFor issued from inside a pool task must complete
    // even when every worker is already busy: the issuing thread
    // drains its own loop.
    ThreadPool pool(2);
    std::vector<std::atomic<int>> inner(4 * 8);
    parallelFor(pool, 4, [&](std::size_t outer) {
        parallelFor(pool, 8, [&](std::size_t i) {
            ++inner[outer * 8 + i];
        });
    });
    for (std::size_t i = 0; i < inner.size(); ++i)
        ASSERT_EQ(inner[i].load(), 1) << "slot " << i;
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride)
{
    ::setenv("MOSAIC_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    ::unsetenv("MOSAIC_THREADS");
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPoolDeathTest, MalformedThreadCountIsFatalNotSilent)
{
    // Strict env parsing (util/parse.hh): a typo'd MOSAIC_THREADS
    // must not silently run at hardware concurrency.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("MOSAIC_THREADS", "not-a-number", 1);
    EXPECT_EXIT(ThreadPool::defaultThreadCount(),
                testing::ExitedWithCode(1), "not-a-number");
    ::unsetenv("MOSAIC_THREADS");
}

// ------------------------------------------- experiment determinism

Fig6Options
tinyFig6()
{
    Fig6Options o;
    o.scale = 1.0 / 64;
    o.waysList = {1, 8, 256};
    o.arities = {4, 16};
    o.tlbEntries = 256;
    return o;
}

/** Worker count for the "many threads" side of the contract. */
unsigned
manyThreads()
{
    return std::max(4u, std::thread::hardware_concurrency());
}

void
expectSameFig6(const Fig6Result &a, const Fig6Result &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.arities, b.arities);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t w = 0; w < a.rows.size(); ++w) {
        EXPECT_EQ(a.rows[w].ways, b.rows[w].ways);
        EXPECT_EQ(a.rows[w].vanillaMisses, b.rows[w].vanillaMisses)
            << "ways " << a.rows[w].ways;
        EXPECT_EQ(a.rows[w].mosaicMisses, b.rows[w].mosaicMisses)
            << "ways " << a.rows[w].ways;
    }
}

TEST(Determinism, Fig6BitIdenticalAtOneAndManyThreads)
{
    ThreadPool one(1);
    ThreadPool many(manyThreads());
    const Fig6Result a = runFig6(WorkloadKind::Gups, tinyFig6(), one);
    const Fig6Result b = runFig6(WorkloadKind::Gups, tinyFig6(), many);
    expectSameFig6(a, b);
}

TEST(Determinism, Fig6SharedStreamMatchesIndependentCells)
{
    // runFig6 records each panel's stream once and replays it to
    // every ways cell; runFig6Cell generates its own copy and streams
    // it straight in. Rows must agree for all four panels, at 1 and 4
    // threads, scalar and batched.
    const char *saved = std::getenv("MOSAIC_BATCH");
    const std::string saved_batch = saved ? saved : "";
    const WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::BTree, WorkloadKind::Gups,
                                  WorkloadKind::XsBench};
    const Fig6Options o = tinyFig6();
    for (const char *batch : {"0", "64"}) {
        ::setenv("MOSAIC_BATCH", batch, 1);
        for (const WorkloadKind kind : kinds) {
            std::vector<Fig6Cell> cells;
            for (std::size_t w = 0; w < o.waysList.size(); ++w)
                cells.push_back(runFig6Cell(kind, o, w));
            for (const unsigned threads : {1u, 4u}) {
                ThreadPool pool(threads);
                const Fig6Result r = runFig6(kind, o, pool);
                SCOPED_TRACE(::testing::Message()
                             << workloadName(kind) << " MOSAIC_BATCH="
                             << batch << " threads=" << threads);
                ASSERT_EQ(r.rows.size(), cells.size());
                for (std::size_t w = 0; w < cells.size(); ++w) {
                    EXPECT_EQ(r.footprintBytes, cells[w].footprintBytes);
                    EXPECT_EQ(r.accesses, cells[w].accesses);
                    EXPECT_EQ(r.rows[w].ways, cells[w].row.ways);
                    EXPECT_EQ(r.rows[w].vanillaMisses,
                              cells[w].row.vanillaMisses);
                    EXPECT_EQ(r.rows[w].mosaicMisses,
                              cells[w].row.mosaicMisses);
                }
            }
        }
    }
    if (saved)
        ::setenv("MOSAIC_BATCH", saved_batch.c_str(), 1);
    else
        ::unsetenv("MOSAIC_BATCH");
}

TEST(Determinism, Fig6RepeatedRunsIdentical)
{
    // No hidden state may leak between runs on the same pool.
    ThreadPool pool(manyThreads());
    const Fig6Result a =
        runFig6(WorkloadKind::Graph500, tinyFig6(), pool);
    const Fig6Result b =
        runFig6(WorkloadKind::Graph500, tinyFig6(), pool);
    expectSameFig6(a, b);
}

TEST(Determinism, Table3BitIdenticalAtOneAndManyThreads)
{
    Table3Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.05;
    o.runs = 4;

    ThreadPool one(1);
    ThreadPool many(manyThreads());
    const Table3Row a = runTable3(WorkloadKind::Gups, o, one);
    const Table3Row b = runTable3(WorkloadKind::Gups, o, many);

    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    // Samples fold in run order, so even the floating-point
    // accumulator state must match exactly.
    EXPECT_EQ(a.firstConflictPct.count(), b.firstConflictPct.count());
    EXPECT_EQ(a.firstConflictPct.mean(), b.firstConflictPct.mean());
    EXPECT_EQ(a.firstConflictPct.stddev(),
              b.firstConflictPct.stddev());
    EXPECT_EQ(a.steadyPct.count(), b.steadyPct.count());
    EXPECT_EQ(a.steadyPct.mean(), b.steadyPct.mean());
    EXPECT_EQ(a.steadyPct.stddev(), b.steadyPct.stddev());
}

TEST(Determinism, Table4BitIdenticalAtOneAndManyThreads)
{
    Table4Options o;
    o.memFrames = 4 * 1024;
    o.footprintFactor = 1.10;
    o.runs = 2;

    ThreadPool one(1);
    ThreadPool many(manyThreads());
    const Table4Row a = runTable4(WorkloadKind::Gups, o, one);
    const Table4Row b = runTable4(WorkloadKind::Gups, o, many);

    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.linuxSwapIo.mean(), b.linuxSwapIo.mean());
    EXPECT_EQ(a.linuxSwapIo.stddev(), b.linuxSwapIo.stddev());
    EXPECT_EQ(a.mosaicSwapIo.mean(), b.mosaicSwapIo.mean());
    EXPECT_EQ(a.mosaicSwapIo.stddev(), b.mosaicSwapIo.stddev());
}

TEST(Determinism, CellSeedsAreWellMixed)
{
    // Adjacent cells must get unrelated seeds: no collisions and no
    // shared low bits across a realistic sweep's worth of cells.
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t cell = 0; cell < 1000; ++cell)
        seeds.push_back(experimentCellSeed(1, cell));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());

    // Different experiment seeds give different cell streams.
    EXPECT_NE(experimentCellSeed(1, 0), experimentCellSeed(2, 0));
}

} // namespace
} // namespace mosaic
