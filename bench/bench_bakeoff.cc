/**
 * @file
 * The translation-design bake-off (DESIGN.md §14): all seven
 * registered designs — vanilla, mosaic, coalesced, perforated, the
 * stride prefetcher, the two-level page-walk cache, and the range
 * TLB — head-to-head on the paper's workloads across mosaic
 * arities, reporting measured reach, miss rate, and modeled walk
 * cost (page-table references per access) per design.
 *
 * Expected shape: mosaic variants trade a small per-entry reach for
 * arity-insensitive misses; coalesced/perforated/range win reach on
 * the bump-allocated (fully contiguous) vanilla mapping; the PWC
 * leaves misses unchanged but cuts walkRefs; the stride prefetcher
 * trades extra walkRefs for fewer demand misses on strided phases.
 *
 * Knobs: MOSAIC_BAKEOFF_SCALE (default 0.25) multiplies workload
 * sizes; MOSAIC_BAKEOFF_SEED selects the reference streams.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/bakeoff.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

void
printCell(const BakeoffCell &cell)
{
    std::cout << "\n--- Bake-off: " << workloadName(cell.kind)
              << ", mosaic arity " << cell.arity << " (footprint "
              << cell.footprintBytes / (1024.0 * 1024.0) << " MiB, "
              << withCommas(cell.accesses) << " accesses) ---\n";

    TextTable table({"design", "misses", "missRate%", "walkRefs",
                     "walk/access", "reachPages", "validEntries"});
    for (const BakeoffDesignResult &d : cell.designs) {
        char miss_rate[32];
        char walk_cost[32];
        std::snprintf(miss_rate, sizeof miss_rate, "%.3f",
                      100.0 * d.missRate());
        std::snprintf(walk_cost, sizeof walk_cost, "%.4f",
                      d.walkRefsPerAccess());
        table.beginRow();
        table.cell(d.kind);
        table.cell(d.metric("misses"));
        table.cell(miss_rate);
        table.cell(d.metric("walkRefs"));
        table.cell(walk_cost);
        table.cell(d.metric("reachPages"));
        table.cell(d.metric("validEntries"));
    }
    bench::printTable(table, std::cout);
}

} // namespace

int
main()
{
    BakeoffOptions options;
    options.scale = bench::envDouble("MOSAIC_BAKEOFF_SCALE", 0.25);
    options.seed = static_cast<std::uint64_t>(
        bench::envLong("MOSAIC_BAKEOFF_SEED", 1));

    std::cout << "Translation-design bake-off: "
              << "vanilla/mosaic/coalesced/perforated/stride/pwc/range"
              << "\nscale=" << options.scale
              << " (MOSAIC_BAKEOFF_SCALE), seed=" << options.seed
              << " (MOSAIC_BAKEOFF_SEED), tlbEntries="
              << options.tlbEntries << ", ways=" << options.ways
              << ", kernel stream off\n";

    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    auto report = bench::makeReport("bakeoff", options.seed,
                                    pool.threadCount());
    report.config("scale", options.scale);
    report.config("tlbEntries",
                  static_cast<std::uint64_t>(options.tlbEntries));
    report.config("ways", static_cast<std::uint64_t>(options.ways));
    {
        std::string arities;
        for (const unsigned a : options.arities)
            arities += (arities.empty() ? "" : ",") + std::to_string(a);
        report.config("arities", arities);
    }

    const std::vector<BakeoffCell> cells = runBakeoff(options, pool);

    double cell_seconds = 0.0;
    for (const BakeoffCell &cell : cells) {
        recordBakeoff(report.metrics(), cell);
        printCell(cell);
        cell_seconds += cell.seconds;
    }

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);
    return 0;
}
