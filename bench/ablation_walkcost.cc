/**
 * @file
 * Ablation: TLB-miss *cost* (paper §5.4-5.5). Mosaic attacks the
 * miss rate; these mechanisms attack the walk each remaining miss
 * pays. Replays one workload stream and accounts page-table memory
 * references per design:
 *  - vanilla radix walks (4 levels), bare and behind an MMU
 *    walk cache;
 *  - mosaic radix walks (ToC leaves), bare and cached;
 *  - a hashed mosaic page table (§5.5): ~1 reference per walk, no
 *    walk cache needed, at the price of collision chains.
 *
 * Expected shape: walk caches remove most upper-level references;
 * the hashed table reaches ~1 reference/walk on its own; and
 * mosaic's lower miss count multiplies through to far less total
 * walk traffic than vanilla in every variant.
 *
 * Knobs: MOSAIC_ABL_SCALE (workload scale, default 0.25).
 */

#include <iostream>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "core/experiment_export.hh"
#include "core/experiments.hh"
#include "mem/mosaic_allocator.hh"
#include "pt/hashed_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "pt/walk_cache.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/vanilla_tlb.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "workloads/access_sink.hh"
#include "workloads/factory.hh"

using namespace mosaic;

namespace
{

/** Accounts walk references across the five designs. */
class WalkCostSim : public AccessSink
{
  public:
    explicit WalkCostSim(std::uint64_t footprint_pages)
        : geometry_(makeGeometry(footprint_pages)),
          allocator_(geometry_),
          frames_(geometry_.numFrames),
          mosaicPt_(4, allocator_.mapper().codec().invalid()),
          hashedPt_(4, allocator_.mapper().codec().invalid(),
                    footprint_pages / 2),
          tlbVanilla_({1024, 8}),
          tlbVanillaPwc_({1024, 8}),
          tlbMosaic_({1024, 8}, 4),
          tlbMosaicPwc_({1024, 8}, 4),
          tlbHashed_({1024, 8}, 4)
    {
    }

    void
    access(Addr vaddr, bool) override
    {
        const Vpn vpn = vpnOf(vaddr);
        ensureMapped(vpn);

        // Vanilla radix, bare.
        if (!tlbVanilla_.lookup(1, vpn)) {
            const VanillaWalkResult walk = vanillaPt_.walk(vpn);
            vanillaRefs_ += walk.memRefs;
            tlbVanilla_.fill(1, vpn, walk.pfn);
        }
        // Vanilla radix behind a walk cache.
        if (!tlbVanillaPwc_.lookup(1, vpn)) {
            const VanillaWalkResult walk = vanillaPt_.walk(vpn);
            const unsigned skipped =
                pwcVanilla_.skippableLevels(1, vpn, walk.memRefs);
            vanillaPwcRefs_ += walk.memRefs - skipped;
            pwcVanilla_.fill(1, vpn, walk.memRefs);
            tlbVanillaPwc_.fill(1, vpn, walk.pfn);
        }

        const Cpfn unmapped = mosaicPt_.unmappedCode();
        // Mosaic radix, bare.
        if (!tlbMosaic_.lookup(1, vpn)) {
            const MosaicWalkResult walk = mosaicPt_.walk(vpn);
            mosaicRefs_ += walk.memRefs;
            tlbMosaic_.fill(1, vpn, walk.toc, unmapped);
        }
        // Mosaic radix behind a walk cache (keyed by MVPN).
        if (!tlbMosaicPwc_.lookup(1, vpn)) {
            const MosaicWalkResult walk = mosaicPt_.walk(vpn);
            const unsigned skipped = pwcMosaic_.skippableLevels(
                1, mosaicPt_.mvpnOf(vpn), walk.memRefs);
            mosaicPwcRefs_ += walk.memRefs - skipped;
            pwcMosaic_.fill(1, mosaicPt_.mvpnOf(vpn), walk.memRefs);
            tlbMosaicPwc_.fill(1, vpn, walk.toc, unmapped);
        }
        // Mosaic over the hashed page table.
        if (!tlbHashed_.lookup(1, vpn)) {
            const MosaicWalkResult walk = hashedPt_.walk(1, vpn);
            hashedRefs_ += walk.memRefs;
            tlbHashed_.fill(1, vpn, walk.toc, unmapped);
        }
    }

    void
    report(TextTable &table) const
    {
        const auto row = [&table](const char *name,
                                  const TlbStats &stats,
                                  std::uint64_t refs) {
            table.beginRow()
                .cell(name)
                .cell(stats.misses)
                .cell(static_cast<double>(refs) /
                          static_cast<double>(
                              std::max<std::uint64_t>(1, stats.misses)),
                      2)
                .cell(refs);
        };
        row("vanilla radix", tlbVanilla_.stats(), vanillaRefs_);
        row("vanilla radix + PWC", tlbVanillaPwc_.stats(),
            vanillaPwcRefs_);
        row("mosaic-4 radix", tlbMosaic_.stats(), mosaicRefs_);
        row("mosaic-4 radix + PWC", tlbMosaicPwc_.stats(),
            mosaicPwcRefs_);
        row("mosaic-4 hashed PT", tlbHashed_.stats(), hashedRefs_);
    }

    void
    exportMetrics(telemetry::Registry &m,
                  const std::string &prefix) const
    {
        const auto design = [&](const char *key,
                                const TlbStats &stats,
                                std::uint64_t refs) {
            const std::string base = prefix + "." + key;
            m.counter(base + ".misses", stats.misses);
            m.counter(base + ".walkRefs", refs);
        };
        design("vanillaRadix", tlbVanilla_.stats(), vanillaRefs_);
        design("vanillaRadixPwc", tlbVanillaPwc_.stats(),
               vanillaPwcRefs_);
        design("mosaicRadix", tlbMosaic_.stats(), mosaicRefs_);
        design("mosaicRadixPwc", tlbMosaicPwc_.stats(),
               mosaicPwcRefs_);
        design("mosaicHashedPt", tlbHashed_.stats(), hashedRefs_);
    }

  private:
    static MemoryGeometry
    makeGeometry(std::uint64_t footprint_pages)
    {
        MemoryGeometry g;
        g.numFrames =
            ((footprint_pages * 13 / 10 + 4096) / 64 + 1) * 64;
        return g;
    }

    void
    ensureMapped(Vpn vpn)
    {
        if (vanillaPt_.walk(vpn).present)
            return;
        vanillaPt_.map(vpn, nextPfn_++);
        const CandidateSet cand =
            allocator_.mapper().candidates(PageId{1, vpn});
        const auto placement =
            allocator_.place(cand, frames_);
        ensure(placement.has_value(), "walkcost: memory too small");
        frames_.map(placement->pfn, PageId{1, vpn}, ++clock_);
        mosaicPt_.setCpfn(vpn, placement->cpfn);
        hashedPt_.setCpfn(1, vpn, placement->cpfn);
    }

    MemoryGeometry geometry_;
    MosaicAllocator allocator_;
    FrameTable frames_;
    VanillaPageTable vanillaPt_;
    MosaicPageTable mosaicPt_;
    HashedMosaicPageTable hashedPt_;

    VanillaTlb tlbVanilla_;
    VanillaTlb tlbVanillaPwc_;
    MosaicTlb tlbMosaic_;
    MosaicTlb tlbMosaicPwc_;
    MosaicTlb tlbHashed_;

    WalkCache pwcVanilla_{32};
    WalkCache pwcMosaic_{32};

    Pfn nextPfn_ = 0;
    Tick clock_ = 0;
    std::uint64_t vanillaRefs_ = 0;
    std::uint64_t vanillaPwcRefs_ = 0;
    std::uint64_t mosaicRefs_ = 0;
    std::uint64_t mosaicPwcRefs_ = 0;
    std::uint64_t hashedRefs_ = 0;
};

} // namespace

int
main()
{
    const double scale = bench::envDouble("MOSAIC_ABL_SCALE", 0.25);

    std::cout << "Ablation: page-walk cost per design (1024-entry "
                 "8-way TLBs, workload scale " << scale << ")\n";

    // The per-workload sims are independent: run both on the pool.
    const WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::Gups};
    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    std::vector<std::unique_ptr<WalkCostSim>> sims(std::size(kinds));
    const double cell_seconds = bench::timedParallelFor(
        pool, sims.size(), [&](std::size_t i) {
            const auto workload = makeFig6Workload(kinds[i], scale);
            sims[i] = std::make_unique<WalkCostSim>(
                workload->info().footprintBytes / pageSize);
            workload->run(*sims[i]);
        });

    auto report = bench::makeReport("ablation_walkcost", 0,
                                    pool.threadCount());
    report.config("scale", scale);

    for (std::size_t i = 0; i < sims.size(); ++i) {
        TextTable table({"Design", "TLB misses", "refs/walk",
                         "total walk refs"});
        sims[i]->report(table);
        sims[i]->exportMetrics(report.metrics(),
                               "abl.walkcost." +
                                   metricWorkloadKey(kinds[i]));
        std::cout << "\n--- " << workloadName(kinds[i]) << " ---\n";
        table.print(std::cout);
    }

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nDesign takeaway: mosaic composes with both "
                 "miss-cost techniques — walk caches skip the upper "
                 "radix levels, a hashed page table reaches ~1 "
                 "reference per walk — and multiplies them by its "
                 "smaller miss count, so total walk traffic drops "
                 "multiplicatively (paper sections 5.4-5.5).\n";
    return 0;
}
