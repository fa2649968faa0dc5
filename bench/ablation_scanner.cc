/**
 * @file
 * Ablation: the prototype's access-bit sampling (§3.2). Horizon LRU
 * needs per-page timestamps; on real x86 the daemon must read and
 * clear access bits, and every clear invalidates a TLB entry. This
 * bench replays a skewed page-touch stream under periodic scans and
 * compares the naive clear-everything policy against the paper's
 * hot/cold sampling on both axes of the trade-off:
 *  - TLB invalidations caused per scan (the overhead);
 *  - timestamp error versus ground truth (the accuracy cost).
 *
 * Expected shape: sampling cuts hot-page invalidations ~5x while
 * timestamp error stays concentrated on hot pages, which Horizon LRU
 * never examines (they are far above the horizon).
 *
 * Knobs: MOSAIC_ABL_PAGES (default 16384), MOSAIC_ABL_SCANS
 * (default 64).
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "os/access_bit_scanner.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

struct ScanOutcome
{
    double clearsPerScan = 0.0;
    double meanErrorHot = 0.0;
    double meanErrorCold = 0.0;
};

ScanOutcome
runPolicy(ScanPolicy policy, std::size_t pages, unsigned scans)
{
    ScannerConfig config;
    config.numPages = pages;
    config.policy = policy;
    AccessBitScanner scanner(config);

    std::vector<Tick> truth(pages, 0);
    Rng rng(17);
    std::uint64_t total_clears = 0;

    // 20 % of pages are hot (80 % of touches); the rest cold.
    const std::size_t hot_pages = pages / 5;
    for (Tick t = 1; t <= scans; ++t) {
        const std::size_t touches = pages / 2;
        for (std::size_t i = 0; i < touches; ++i) {
            const std::size_t page = rng.chance(0.8)
                ? rng.below(hot_pages)
                : hot_pages + rng.below(pages - hot_pages);
            scanner.recordAccess(page);
            truth[page] = t;
        }
        total_clears += scanner.scan(t);
    }

    ScanOutcome out;
    out.clearsPerScan =
        static_cast<double>(total_clears) / static_cast<double>(scans);
    RunningStat hot_err, cold_err;
    for (std::size_t p = 0; p < pages; ++p) {
        const double err = std::abs(
            static_cast<double>(scanner.estimatedLastAccess(p)) -
            static_cast<double>(truth[p]));
        (p < hot_pages ? hot_err : cold_err).add(err);
    }
    out.meanErrorHot = hot_err.mean();
    out.meanErrorCold = cold_err.mean();
    return out;
}

} // namespace

int
main()
{
    const auto pages = static_cast<std::size_t>(
        bench::envLong("MOSAIC_ABL_PAGES", 16 * 1024));
    const auto scans = static_cast<unsigned>(
        bench::envLong("MOSAIC_ABL_SCANS", 64));

    std::cout << "Ablation: access-bit scanning policy (" << pages
              << " pages, " << scans << " 1 s scan intervals, "
                 "80/20 hot/cold touches)\n\n";

    TextTable table({"Policy", "TLB invalidations/scan",
                     "timestamp err (hot pages)",
                     "timestamp err (cold pages)"});

    // The two policies replay independent streams: run them on the
    // pool.
    const ScanPolicy policies[] = {ScanPolicy::ClearAll,
                                   ScanPolicy::SampledHotCold};
    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    std::vector<ScanOutcome> outcomes(2);
    const double cell_seconds = bench::timedParallelFor(
        pool, outcomes.size(), [&](std::size_t i) {
            outcomes[i] = runPolicy(policies[i], pages, scans);
        });
    auto report = bench::makeReport("ablation_scanner", 17,
                                    pool.threadCount());
    report.config("pages", static_cast<std::uint64_t>(pages));
    report.config("scans", static_cast<std::uint64_t>(scans));

    const ScanOutcome &naive = outcomes[0];
    const ScanOutcome &sampled = outcomes[1];
    const auto record = [&](const char *key, const ScanOutcome &o) {
        const std::string base = std::string("abl.scanner.") + key;
        auto &m = report.metrics();
        m.gauge(base + ".clearsPerScan", o.clearsPerScan);
        m.gauge(base + ".meanErrorHot", o.meanErrorHot);
        m.gauge(base + ".meanErrorCold", o.meanErrorCold);
    };
    record("clearAll", naive);
    record("sampledHotCold", sampled);
    table.beginRow()
        .cell("clear-all (naive)")
        .cell(naive.clearsPerScan, 0)
        .cell(naive.meanErrorHot, 2)
        .cell(naive.meanErrorCold, 2);
    table.beginRow()
        .cell("hot/cold sampled (paper)")
        .cell(sampled.clearsPerScan, 0)
        .cell(sampled.meanErrorHot, 2)
        .cell(sampled.meanErrorCold, 2);
    bench::printTable(table, std::cout);

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nDesign takeaway: sampling removes most of the "
                 "scan-induced TLB invalidations; the timestamp "
                 "error it introduces sits on hot pages, which are "
                 "far above Horizon LRU's horizon and never chosen "
                 "for eviction — so eviction quality is unaffected. "
                 "(A real mosaic system stores timestamps in "
                 "hardware and needs none of this.)\n";
    return 0;
}
