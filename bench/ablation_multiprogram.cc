/**
 * @file
 * Ablation: multiprogramming. The paper's experiments run one
 * process against the TLB; here several processes share it, with
 * context switches every quantum. ASID tags mean nothing flushes,
 * but processes now compete for entries — and because every mosaic
 * entry covers `arity` pages, mosaic degrades more gracefully as the
 * combined working set grows.
 *
 * Also exercises the multi-address-space paths end to end: per-ASID
 * page tables, (ASID, VPN)-keyed placement, global kernel entries.
 *
 * Knobs: MOSAIC_ABL_SCALE (per-process workload scale, default
 * 0.125), MOSAIC_ABL_QUANTUM (accesses per scheduling quantum,
 * default 20000).
 */

#include <iostream>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "core/translation_sim.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "workloads/factory.hh"

using namespace mosaic;

namespace
{

struct MultiprogramResult
{
    std::uint64_t vanillaMisses = 0;
    std::uint64_t mosaicMisses = 0;
    std::uint64_t accesses = 0;
};

MultiprogramResult
run(unsigned processes, double scale, std::size_t quantum)
{
    // Record each process's reference stream once.
    std::vector<VectorSink> traces(processes);
    std::uint64_t total_footprint = 0;
    for (unsigned p = 0; p < processes; ++p) {
        // Different workloads per process, cycling through the four.
        const auto kind = static_cast<WorkloadKind>(p % 4);
        const auto workload = makeFig6Workload(kind, scale, 100 + p);
        workload->run(traces[p]);
        total_footprint += workload->info().footprintBytes;
    }

    TranslationSimConfig config;
    config.memory.numFrames =
        ((total_footprint / pageSize * 13 / 10 + 4096) / 64 + 1) * 64;
    config.waysList = {8};
    config.arities = {8};
    TranslationSim sim(config);

    // Round-robin schedule in quanta until every trace is drained.
    std::vector<std::size_t> cursor(processes, 0);
    bool work_left = true;
    while (work_left) {
        work_left = false;
        for (unsigned p = 0; p < processes; ++p) {
            const auto &trace = traces[p].trace();
            if (cursor[p] >= trace.size())
                continue;
            sim.setActiveAsid(static_cast<Asid>(p + 1));
            const std::size_t end =
                std::min(trace.size(), cursor[p] + quantum);
            for (; cursor[p] < end; ++cursor[p])
                sim.access(trace[cursor[p]].vaddr,
                           trace[cursor[p]].write);
            work_left = work_left || cursor[p] < trace.size();
        }
    }

    MultiprogramResult out;
    out.vanillaMisses = sim.vanillaStats(0).misses;
    out.mosaicMisses = sim.mosaicStats(0, 0).misses;
    out.accesses = sim.totalAccesses();
    return out;
}

} // namespace

int
main()
{
    const double scale = bench::envDouble("MOSAIC_ABL_SCALE", 0.125);
    const auto quantum = static_cast<std::size_t>(
        bench::envLong("MOSAIC_ABL_QUANTUM", 20000));

    std::cout << "Ablation: multiprogramming (mixed workloads, "
                 "1024-entry 8-way TLB, quantum " << quantum
              << " accesses)\n\n";

    // The four process counts are independent simulations.
    const unsigned process_counts[] = {1, 2, 3, 4};
    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    std::vector<MultiprogramResult> results(std::size(process_counts));
    const double cell_seconds = bench::timedParallelFor(
        pool, results.size(), [&](std::size_t i) {
            results[i] = run(process_counts[i], scale, quantum);
        });

    auto report = bench::makeReport("ablation_multiprogram", 100,
                                    pool.threadCount());
    report.config("scale", scale);
    report.config("quantum", static_cast<std::uint64_t>(quantum));

    TextTable table({"Processes", "accesses", "Vanilla misses",
                     "Mosaic-8 misses", "Mosaic reduction %"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const unsigned processes = process_counts[i];
        const MultiprogramResult &r = results[i];
        {
            const std::string base = "abl.multiprogram.p" +
                                     std::to_string(processes);
            auto &m = report.metrics();
            m.counter(base + ".accesses", r.accesses);
            m.counter(base + ".vanillaMisses", r.vanillaMisses);
            m.counter(base + ".mosaicMisses", r.mosaicMisses);
        }
        table.beginRow()
            .cell(std::to_string(processes))
            .cell(r.accesses)
            .cell(r.vanillaMisses)
            .cell(r.mosaicMisses)
            .cell(100.0 *
                      (static_cast<double>(r.vanillaMisses) -
                       static_cast<double>(r.mosaicMisses)) /
                      static_cast<double>(r.vanillaMisses),
                  1);
    }
    bench::printTable(table, std::cout);

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nDesign takeaway: ASID-tagged entries avoid "
                 "flushes, but the shared TLB still thrashes as "
                 "working sets stack; mosaic's per-entry reach keeps "
                 "its advantage (or grows it) as processes are "
                 "added.\n";
    return 0;
}
