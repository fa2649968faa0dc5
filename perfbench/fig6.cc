/**
 * @file
 * Workload `fig6`: runFig6 on the four paper panels (5 ways x 5
 * arities, kernel stream on), the four calls at once on one shared
 * pool. Stream generation, the TLB grid and the page tables do the
 * work; the VM and shard layers are bypassed.
 *
 * The traced run replays each panel cell by cell, serially: it records
 * the stream (workloads.generate), feeds it to a TranslationSim with
 * the cell's configuration (core.translate), and then times single layers
 * on the same stream: iceberg placement of every distinct page
 * (mem.place) and three registry designs (tlb.<design>.access).
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_pipeline.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "perfbench.hh"
#include "tlb/design_registry.hh"
#include "util/flat_map.hh"
#include "util/thread_pool.hh"
#include "workloads/factory.hh"

namespace perfbench
{

namespace
{

using namespace mosaic;

struct Panel
{
    WorkloadKind kind;
    const char *name;
};

constexpr Panel panels[] = {
    {WorkloadKind::Graph500, "graph500"},
    {WorkloadKind::BTree, "btree"},
    {WorkloadKind::Gups, "gups"},
    {WorkloadKind::XsBench, "xsbench"},
};

/** Workload size multiplier (1.0 = the factory's default sizes). */
constexpr double fig6Scale = 0.05;

struct Design
{
    const char *name;
    const char *spec;
};

constexpr Design designs[] = {
    {"vanilla-full", "vanilla:entries=1024,ways=1024"},
    {"mosaic4-4way", "mosaic:entries=1024,ways=4,arity=4"},
    {"mosaic4-full", "mosaic:entries=1024,ways=1024,arity=4"},
};

Fig6Options
fig6Options(std::uint64_t seed)
{
    Fig6Options o;
    o.scale = fig6Scale;
    o.seed = seed;
    return o;
}

/** The TranslationSim configuration runFig6Cell builds for cell
 *  @p ways_index (without its environment knobs). */
TranslationSimConfig
cellConfig(const Fig6Options &o, std::uint64_t footprint,
           std::size_t ways_index)
{
    TranslationSimConfig config;
    config.memory = ampleGeometry(footprint);
    config.tlbEntries = o.tlbEntries;
    config.waysList = {o.waysList.at(ways_index)};
    config.arities = o.arities;
    config.seed = o.seed;
    return config;
}

Fig6Row
rowOf(const TranslationSim &sim, unsigned ways)
{
    Fig6Row row;
    row.ways = ways;
    row.vanillaMisses = sim.vanillaStats(0).misses;
    for (std::size_t a = 0; a < sim.numArities(); ++a)
        row.mosaicMisses.push_back(sim.mosaicStats(0, a).misses);
    return row;
}

std::uint64_t
rowDigest(const Fig6Row &row, std::uint64_t footprint,
          std::uint64_t accesses)
{
    Digest d;
    d.mix(footprint);
    d.mix(accesses);
    d.mix(row.ways);
    d.mix(row.vanillaMisses);
    for (const std::uint64_t m : row.mosaicMisses)
        d.mix(m);
    return d.value();
}

std::string
cellKey(const Panel &panel, unsigned ways)
{
    return std::string("fig6/") + panel.name + "/ways=" +
           std::to_string(ways);
}

void
endToEnd(const Options &opt, Report &report)
{
    const Fig6Options o = fig6Options(opt.seed);
    LoopTimes times;
    const auto start = Clock::now();
    while (times.more(start, opt.seconds, 3)) {
        auto t = Clock::now();
        auto pool = std::make_unique<ThreadPool>(opt.threads);
        times.setup.push_back(secondsSince(t));

        std::vector<Fig6Result> results(std::size(panels));
        std::vector<double> latency(std::size(panels));
        const double cpu0 = cpuSeconds();
        t = Clock::now();
        concurrently(std::size(panels), [&](std::size_t p) {
            const auto p0 = Clock::now();
            results[p] = runFig6(panels[p].kind, o, *pool);
            latency[p] = secondsSince(p0);
        });
        times.wall.push_back(secondsSince(t));
        times.cpu.push_back(cpuSeconds() - cpu0);
        times.addLatencies(latency);

        double ops = 0.0;
        for (std::size_t p = 0; p < results.size(); ++p) {
            const Fig6Result &r = results[p];
            ops += static_cast<double>(r.accesses * r.rows.size());
            for (const Fig6Row &row : r.rows) {
                report.unit(cellKey(panels[p], row.ways),
                            rowDigest(row, r.footprintBytes, r.accesses),
                            1);
                ++report.attempted;
            }
        }
        times.opsPerIteration = ops;
    }
    reportEndToEnd(report, times);
    report.config("fig6.scale", fig6Scale);
    report.config("fig6.tlb_entries", o.tlbEntries);
}

/**
 * The designs' view of one panel stream: pages become mapped at their
 * first reference, in stream order, exactly as TranslationSim's
 * demand mapping does; CPFNs come from the placement probe.
 */
class ReplayWalker final : public TranslationWalker
{
  public:
    ReplayWalker(const FlatMap<Vpn, std::uint32_t> &page_index,
                 const std::vector<std::size_t> &first_ref,
                 const std::vector<Cpfn> &cpfns, Cpfn unmapped)
        : pageIndex_(page_index), firstRef_(first_ref), cpfns_(cpfns),
          unmapped_(unmapped)
    {
    }

    /** Index of the reference being replayed. */
    std::size_t pos = 0;

    std::optional<Pfn>
    pfnOf(Asid, Vpn vpn) override
    {
        const std::uint32_t *idx = mappedIndex(vpn);
        if (idx == nullptr)
            return std::nullopt;
        return Pfn{*idx};
    }

    void
    tocOf(Asid, Vpn vpn, unsigned arity, std::span<Cpfn> out) override
    {
        const Vpn first = vpn & ~Vpn{arity - 1};
        for (unsigned i = 0; i < arity; ++i) {
            const std::uint32_t *idx = mappedIndex(first + i);
            out[i] = idx != nullptr ? cpfns_[*idx] : unmapped_;
        }
    }

    Cpfn unmappedCode() const override { return unmapped_; }

  private:
    const std::uint32_t *
    mappedIndex(Vpn vpn) const
    {
        const std::uint32_t *idx = pageIndex_.find(vpn);
        if (idx == nullptr || firstRef_[*idx] > pos)
            return nullptr;
        return idx;
    }

    const FlatMap<Vpn, std::uint32_t> &pageIndex_;
    const std::vector<std::size_t> &firstRef_;
    const std::vector<Cpfn> &cpfns_;
    Cpfn unmapped_;
};

bool
sameStats(const TlbStats &a, const TlbStats &b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.subEntryFills == b.subEntryFills;
}

void
traced(const Options &opt, Report &report)
{
    const Fig6Options o = fig6Options(opt.seed);

    // Reference: the end-to-end work once, untraced and serial like
    // the replay below.
    double untraced = 0.0;
    {
        ThreadPool pool(1);
        const auto t = Clock::now();
        for (const Panel &panel : panels)
            (void)runFig6(panel.kind, o, pool);
        untraced = secondsSince(t);
    }

    Tracer tr;
    double batchScalar = 0.0, batchBatched = 0.0;
    for (const Panel &panel : panels) {
        const std::string pfx = std::string("fig6.") + panel.name + ".";
        std::vector<PackedRef> stream;
        std::uint64_t footprint = 0, accesses = 0;
        std::vector<std::uint64_t> scalarRows;
        TlbStats designStats[std::size(designs)];
        {
            Tracer::Scope panelSpan(tr, "fig6.panel");

            // The cells as runFig6 runs them: each regenerates the
            // shared stream, then simulates one ways value.
            for (std::size_t w = 0; w < o.waysList.size(); ++w) {
                RecordSink rec;
                {
                    Tracer::Scope s(tr, pfx + "workloads.generate");
                    const auto workload =
                        makeFig6Workload(panel.kind, o.scale, o.seed);
                    workload->run(rec);
                    footprint = workload->info().footprintBytes;
                }
                Fig6Row row;
                {
                    Tracer::Scope s(tr, pfx + "core.translate");
                    TranslationSim sim(cellConfig(o, footprint, w));
                    for (const PackedRef r : rec.refs)
                        sim.access(refAddr(r), refWrite(r));
                    row = rowOf(sim, o.waysList[w]);
                    accesses = sim.totalAccesses();
                }
                const std::uint64_t digest =
                    rowDigest(row, footprint, accesses);
                scalarRows.push_back(digest);
                report.unit(cellKey(panel, row.ways), digest, 1);
                ++report.attempted;
                stream = std::move(rec.refs);
            }

            // Distinct pages in first-reference order (bookkeeping).
            FlatMap<Vpn, std::uint32_t> pageIndex;
            std::vector<Vpn> pages;
            std::vector<std::size_t> firstRef;
            for (std::size_t i = 0; i < stream.size(); ++i) {
                const Vpn vpn = vpnOf(refAddr(stream[i]));
                auto [idx, inserted] = pageIndex.emplace(vpn);
                if (inserted) {
                    idx = static_cast<std::uint32_t>(pages.size());
                    pages.push_back(vpn);
                    firstRef.push_back(i);
                }
            }

            // Demand mapping: tabulation hash + iceberg placement.
            const MemoryGeometry geometry = ampleGeometry(footprint);
            std::vector<Cpfn> cpfns(pages.size());
            MosaicAllocator allocator(geometry);
            bool placed = true;
            {
                Tracer::Scope s(tr, pfx + "mem.place");
                FrameTable frames(geometry.numFrames);
                for (std::size_t i = 0; i < pages.size(); ++i) {
                    const PageId id{1, pages[i]};
                    const CandidateSet cand =
                        allocator.mapper().candidates(id);
                    const std::optional<Placement> p =
                        allocator.place(cand, frames);
                    if (!p) {
                        placed = false;
                        break;
                    }
                    frames.map(p->pfn, id, i + 1);
                    cpfns[i] = p->cpfn;
                }
            }
            report.check(pfx + "placement_fits", placed,
                         "ample memory saw a conflict");

            // Each design alone on the data stream.
            ReplayWalker walker(pageIndex, firstRef, cpfns,
                                allocator.mapper().codec().invalid());
            for (std::size_t d = 0; d < std::size(designs); ++d) {
                Tracer::Scope s(tr, pfx + "tlb." + designs[d].name +
                                        ".access");
                auto made = makeTranslationDesign(designs[d].spec);
                if (!made.ok())
                    throw std::runtime_error(made.status().toString());
                TranslationDesign &design = *made.value();
                for (std::size_t i = 0; i < stream.size(); ++i) {
                    walker.pos = i;
                    design.access(1, vpnOf(refAddr(stream[i])), walker);
                }
                designStats[d] = design.stats();
            }
            report.metric(pfx + "workloads.refs",
                          static_cast<double>(stream.size()));
            report.metric(pfx + "mem.placements",
                          static_cast<double>(pages.size()));
            const double translate = tr.total(pfx + "core.translate");
            report.metric(pfx + "core.translate_ns_per_ref",
                          1e9 * translate /
                              static_cast<double>(accesses *
                                                  o.waysList.size()));
        }

        for (const std::size_t d : {std::size_t{0}, std::size_t{2}}) {
            const TlbStats &s = designStats[d];
            const std::string name =
                pfx + "tlb." + designs[d].name + ".";
            report.metric(name + "misses", static_cast<double>(s.misses));
            report.metric(name + "hit_ratio",
                          static_cast<double>(s.hits) /
                              static_cast<double>(s.accesses));
        }

        // Outside the accounting: the designs must reproduce the
        // builtin grid on the same data stream (kernel stream off,
        // as in test_bakeoff).
        {
            TranslationSimConfig config;
            config.memory = ampleGeometry(footprint);
            config.waysList = {4, 1024};
            config.arities = {4};
            config.kernel.accessEvery = 0;
            config.seed = o.seed;
            TranslationSim sim(config);
            for (const PackedRef r : stream)
                sim.access(refAddr(r), refWrite(r));
            const bool ok =
                sameStats(designStats[0], sim.vanillaStats(1)) &&
                sameStats(designStats[1], sim.mosaicStats(0, 0)) &&
                sameStats(designStats[2], sim.mosaicStats(1, 0));
            report.check(pfx + "designs_equal_grid", ok,
                         "registry design misses differ from the "
                         "TranslationSim grid");
        }

        // Graph500: the batched translation path against the scalar
        // one, cell by cell; outputs must be identical.
        if (panel.kind == WorkloadKind::Graph500) {
            bool same = true;
            for (std::size_t w = 0; w < o.waysList.size(); ++w) {
                const auto t = Clock::now();
                TranslationSim sim(cellConfig(o, footprint, w));
                {
                    BatchTranslationSink sink(sim, 64);
                    for (const PackedRef r : stream)
                        sink.access(refAddr(r), refWrite(r));
                    sink.flush();
                }
                batchBatched += secondsSince(t);
                same = same &&
                       rowDigest(rowOf(sim, o.waysList[w]), footprint,
                                 sim.totalAccesses()) == scalarRows[w];
            }
            batchScalar = tr.total(pfx + "core.translate");
            report.check(pfx + "batch64_equals_scalar", same,
                         "BatchTranslationSink(64) changed the misses");
        }
    }

    // Accounting: layer spans + other_s = traced wall.
    const double wall = tr.total("fig6.panel");
    double layers = 0.0;
    double equivalent = 0.0;
    for (const auto &[name, self] : tr.selfSeconds()) {
        if (name == "fig6.panel")
            continue;
        report.metric(name + "_s", self);
        layers += self;
        if (name.ends_with("workloads.generate") ||
                name.ends_with("core.translate"))
            equivalent += self;
    }
    report.metric("fig6.graph500.core.batch64_speedup",
                  batchScalar / batchBatched);
    report.metric("fig6.other_s", wall - layers);
    report.metric("fig6.trace.overhead_frac",
                  (equivalent - untraced) / untraced);
    report.config("fig6.traced_wall_s", wall);
    report.config("fig6.untraced_wall_s", untraced);
    tr.write(opt.workDir + "/spans-fig6.jsonl");
}

} // namespace

void
benchFig6(const Options &opt, Report &report)
{
    if (opt.mode == "traced")
        traced(opt, report);
    else
        endToEnd(opt, report);
}

} // namespace perfbench
