/**
 * @file
 * The multiprogrammed interference sweep (DESIGN.md §15): mixes of
 * the scenario-diversity engines co-scheduled as concurrent ASIDs on
 * one machine, context-switching every quantum. Per tenant it
 * reports the misses/walk-cost attributed to its quanta in the
 * shared run, the same counters when it runs alone on an identical
 * machine, the mean mosaic TLB reach while it ran, and the resulting
 * cross-tenant slowdown (permille of the solo modeled memory cost).
 *
 * Expected shape: scan-heavy and coalesced-warp tenants barely
 * notice co-runners (their reach per entry is high), while the
 * Zipf/churn tenants pay for every co-runner's capacity; vanilla
 * slowdowns exceed mosaic ones because each vanilla entry covers one
 * page of a competing working set.
 *
 * Knobs: MOSAIC_INTF_SCALE (default 0.25) multiplies workload sizes;
 * MOSAIC_INTF_QUANTUM (default 4096) is the scheduling quantum;
 * MOSAIC_INTF_SEED selects the reference streams.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/interference.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

void
printCell(const InterferenceCell &cell)
{
    std::cout << "\n--- Mix '" << cell.mixName << "' ("
              << cell.tenants.size() << " tenants, "
              << withCommas(cell.accesses) << " accesses) ---\n";

    TextTable table({"tenant", "accesses", "vanilla misses",
                     "mosaic misses", "solo mosaic", "reach pages",
                     "slowdown(van)", "slowdown(mos)"});
    for (std::size_t t = 0; t < cell.tenants.size(); ++t) {
        const InterferenceTenantResult &res = cell.tenants[t];
        char van[32];
        char mos[32];
        std::snprintf(van, sizeof van, "%.3fx",
                      res.vanillaSlowdownPermille() / 1000.0);
        std::snprintf(mos, sizeof mos, "%.3fx",
                      res.mosaicSlowdownPermille() / 1000.0);
        table.beginRow()
            .cell(workloadName(res.kind))
            .cell(res.accesses)
            .cell(res.shared.vanillaMisses)
            .cell(res.shared.mosaicMisses)
            .cell(res.solo.mosaicMisses)
            .cell(res.meanReachPages())
            .cell(van)
            .cell(mos);
    }
    bench::printTable(table, std::cout);
}

} // namespace

int
main()
{
    InterferenceOptions options;
    options.scale = bench::envDouble("MOSAIC_INTF_SCALE", 0.25);
    options.quantum = static_cast<std::size_t>(
        bench::envLong("MOSAIC_INTF_QUANTUM", 4096));
    options.seed = static_cast<std::uint64_t>(
        bench::envLong("MOSAIC_INTF_SEED", 1));

    std::cout << "Multiprogrammed interference sweep: "
              << options.mixes.size()
              << " engine mixes as concurrent ASIDs\nscale="
              << options.scale << " (MOSAIC_INTF_SCALE), quantum="
              << options.quantum << " (MOSAIC_INTF_QUANTUM), seed="
              << options.seed << " (MOSAIC_INTF_SEED), tlbEntries="
              << options.tlbEntries << ", ways=" << options.ways
              << ", arity=" << options.arity << ", kernel stream off\n";

    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    auto report = bench::makeReport("interference", options.seed,
                                    pool.threadCount());
    report.config("scale", options.scale);
    report.config("quantum",
                  static_cast<std::uint64_t>(options.quantum));
    report.config("tlbEntries",
                  static_cast<std::uint64_t>(options.tlbEntries));
    report.config("ways", static_cast<std::uint64_t>(options.ways));
    report.config("arity", static_cast<std::uint64_t>(options.arity));

    const std::vector<InterferenceCell> cells =
        runInterference(options, pool);

    double cell_seconds = 0.0;
    for (const InterferenceCell &cell : cells) {
        printCell(cell);
        recordInterference(report.metrics(), cell);
        cell_seconds += cell.seconds;
    }

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nDesign takeaway: per-tenant attribution shows the "
                 "capacity fight directly — high-reach tenants (scans, "
                 "coalesced warps) shrug off co-runners while skewed "
                 "server heaps pay, and mosaic's per-entry reach keeps "
                 "every tenant's slowdown below its vanilla "
                 "counterpart.\n";
    return 0;
}
