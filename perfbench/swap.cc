/**
 * @file
 * Workload `swap`: two Table 4 overcommit rows through runTable4, 4
 * repetitions each, both rows at once on one shared pool. The LinuxVm
 * / MosaicVm touch paths, Horizon-LRU eviction, placement under
 * conflicts and swap do the work; no TLB runs. The rows use eviction
 * differently: XSBench reads only (clean victims), GUPS writes half
 * its touches (dirty write-back).
 *
 * The traced run repeats runTable4's cells by hand, one after another:
 * it records each cell's stream (workloads.generate, once per VM as
 * the cell does), replays it through VirtualMemory::touch on each VM
 * (os.<vm>.touch), and times the tabulation hash alone on the same
 * stream (hash.candidates).
 */

#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "mem/mosaic_mapper.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "perfbench.hh"
#include "util/thread_pool.hh"
#include "workloads/factory.hh"

namespace perfbench
{

namespace
{

using namespace mosaic;

struct Row
{
    WorkloadKind kind;
    const char *name;
    std::size_t memFrames;
};

constexpr Row rows[] = {
    {WorkloadKind::XsBench, "xsbench", 8 * 1024},
    {WorkloadKind::Gups, "gups", 2 * 1024},
};

constexpr double overcommit = 1.3;

/** Table 4 repetitions per row (cells seeded by experimentCellSeed). */
constexpr unsigned repetitions = 2;

Table4Options
rowOptions(const Row &row, std::uint64_t seed)
{
    Table4Options o;
    o.memFrames = row.memFrames;
    o.footprintFactor = overcommit;
    o.runs = repetitions;
    o.seed = seed;
    return o;
}

/** The footprint runTable4's cell asks the workload for. */
std::uint64_t
footprintOf(const Table4Options &o)
{
    return static_cast<std::uint64_t>(
        static_cast<double>(std::uint64_t{o.memFrames} * pageSize) *
        o.footprintFactor);
}

/** Digest of one row: swap I/O of every repetition, as runTable4
 *  folds it (count, sum, min, max per VM). */
std::uint64_t
swapDigest(std::uint64_t footprint, const RunningStat &linux_io,
           const RunningStat &mosaic_io)
{
    Digest d;
    d.mix(footprint);
    for (const RunningStat *s : {&linux_io, &mosaic_io}) {
        d.mix(s->count());
        for (const double v : {s->sum(), s->min(), s->max()})
            d.mix(static_cast<std::uint64_t>(v));
    }
    return d.value();
}

void
mixStats(Digest &d, const VirtualMemory &vm)
{
    const VmStats &s = vm.stats();
    for (const std::uint64_t v :
         {s.minorFaults, s.majorFaults, s.swapIns, s.swapOuts,
          s.conflicts, s.recoveredConflicts, s.ghostEvictions,
          s.ghostRescues, std::uint64_t{vm.residentPages()}})
        d.mix(v);
}

void
endToEnd(const Options &opt, Report &report)
{
    // Touches per iteration: every cell's stream, once per VM.
    double touches = 0.0;
    for (const Row &row : rows) {
        const Table4Options o = rowOptions(row, opt.seed);
        for (unsigned r = 0; r < repetitions; ++r) {
            CountingSink count;
            makeFootprintWorkload(row.kind, footprintOf(o),
                                  experimentCellSeed(o.seed, r))
                ->run(count);
            touches += 2.0 * static_cast<double>(count.accesses());
        }
    }

    LoopTimes times;
    times.opsPerIteration = touches;
    const auto start = Clock::now();
    while (times.more(start, opt.seconds, 3)) {
        auto t = Clock::now();
        auto pool = std::make_unique<ThreadPool>(opt.threads);
        times.setup.push_back(secondsSince(t));

        std::vector<Table4Row> results(std::size(rows));
        std::vector<double> latency(std::size(rows));
        const double cpu0 = cpuSeconds();
        t = Clock::now();
        concurrently(std::size(rows), [&](std::size_t i) {
            const auto r0 = Clock::now();
            results[i] = runTable4(rows[i].kind,
                                   rowOptions(rows[i], opt.seed), *pool);
            latency[i] = secondsSince(r0);
        });
        times.wall.push_back(secondsSince(t));
        times.cpu.push_back(cpuSeconds() - cpu0);
        times.addLatencies(latency);

        for (std::size_t i = 0; i < results.size(); ++i) {
            const Table4Row &r = results[i];
            report.unit(std::string("swap/") + rows[i].name,
                        swapDigest(r.footprintBytes, r.linuxSwapIo,
                                   r.mosaicSwapIo),
                        1);
            ++report.attempted;
        }
    }
    reportEndToEnd(report, times);
    report.config("swap.overcommit", overcommit);
    report.config("swap.repetitions", repetitions);
    report.config("swap.xsbench.frames", rows[0].memFrames);
    report.config("swap.gups.frames", rows[1].memFrames);
}

MosaicVmConfig
mosaicConfig(const Table4Options &o, std::uint64_t cell_seed)
{
    MosaicVmConfig c;
    c.geometry.numFrames = o.memFrames;
    c.geometry.hashSeed = cell_seed ^ 0xA110C;
    c.seed = cell_seed;
    return c;
}

LinuxVmConfig
linuxConfig(const Table4Options &o)
{
    LinuxVmConfig c;
    c.numFrames = o.memFrames;
    return c;
}

/** Replay @p refs through VirtualMemory::touchBatch in blocks of
 *  @p block; returns seconds. */
double
replayBatched(VirtualMemory &vm, const std::vector<PackedRef> &refs,
              std::size_t block)
{
    std::vector<PageTouch> touches;
    std::vector<Pfn> out(block);
    touches.reserve(block);
    const auto t = Clock::now();
    for (std::size_t i = 0; i < refs.size(); i += block) {
        touches.clear();
        const std::size_t end = std::min(refs.size(), i + block);
        for (std::size_t j = i; j < end; ++j) {
            touches.push_back(PageTouch{1, vpnOf(refAddr(refs[j])),
                                        refWrite(refs[j])});
        }
        vm.touchBatch(touches, out.data());
    }
    return secondsSince(t);
}

void
traced(const Options &opt, Report &report)
{
    // Reference: the end-to-end work once, untraced and serial like
    // the replay below.
    double untraced = 0.0;
    {
        ThreadPool pool(1);
        const auto t = Clock::now();
        for (const Row &row : rows)
            (void)runTable4(row.kind, rowOptions(row, opt.seed), pool);
        untraced = secondsSince(t);
    }

    Tracer tr;
    double batchScalar = 0.0, batchBatched = 0.0;
    for (const Row &row : rows) {
        const std::string pfx = std::string("swap.") + row.name + ".";
        const Table4Options o = rowOptions(row, opt.seed);
        RunningStat linuxIo, mosaicIo;
        VmStats mosaicStats;
        Digest vmDigest;
        std::uint64_t footprint = 0, refs = 0, writes = 0;
        for (unsigned rep = 0; rep < repetitions; ++rep) {
            const std::uint64_t seed = experimentCellSeed(o.seed, rep);
            std::unique_ptr<Workload> workload;
            RecordSink rec;
            Digest cellDigest;
            {
                Tracer::Scope cellSpan(tr, "swap.cell");
                {
                    Tracer::Scope s(tr, pfx + "workloads.generate");
                    workload = makeFootprintWorkload(row.kind,
                                                     footprintOf(o), seed);
                    workload->run(rec);
                }
                {
                    Tracer::Scope s(tr, pfx + "os.linux.touch");
                    LinuxVm vm(linuxConfig(o));
                    for (const PackedRef r : rec.refs)
                        vm.touch(1, vpnOf(refAddr(r)), refWrite(r));
                    linuxIo.add(static_cast<double>(vm.stats().swapIo()));
                    mixStats(cellDigest, vm);
                }
                // runTable4's cell regenerates the stream for its
                // second VM; so does the replay.
                {
                    Tracer::Scope s(tr, pfx + "workloads.generate");
                    rec.refs.clear();
                    workload->run(rec);
                }
                {
                    Tracer::Scope s(tr, pfx + "os.mosaic.touch");
                    MosaicVm vm(mosaicConfig(o, seed));
                    for (const PackedRef r : rec.refs)
                        vm.touch(1, vpnOf(refAddr(r)), refWrite(r));
                    mosaicIo.add(static_cast<double>(vm.stats().swapIo()));
                    const VmStats &st = vm.stats();
                    mosaicStats.conflicts += st.conflicts;
                    mosaicStats.ghostEvictions += st.ghostEvictions;
                    mosaicStats.ghostRescues += st.ghostRescues;
                    mosaicStats.majorFaults += st.majorFaults;
                    mixStats(cellDigest, vm);
                }
                {
                    Tracer::Scope s(tr, pfx + "hash.candidates");
                    const MosaicMapper mapper(
                        mosaicConfig(o, seed).geometry);
                    for (const PackedRef r : rec.refs) {
                        (void)mapper.candidates(
                            PageId{1, vpnOf(refAddr(r))});
                    }
                }
            }
            vmDigest.mix(cellDigest.value());
            footprint = workload->info().footprintBytes;
            refs += rec.refs.size();
            for (const PackedRef r : rec.refs)
                writes += refWrite(r) ? 1 : 0;

            // XSBench, first cell: touchBatch(64) against the scalar
            // touches above, outside the accounting; the VM outputs
            // must be identical.
            if (row.kind == WorkloadKind::XsBench && rep == 0) {
                Digest batched;
                LinuxVm linux_vm(linuxConfig(o));
                batchBatched += replayBatched(linux_vm, rec.refs, 64);
                mixStats(batched, linux_vm);
                MosaicVm mosaic_vm(mosaicConfig(o, seed));
                batchBatched += replayBatched(mosaic_vm, rec.refs, 64);
                mixStats(batched, mosaic_vm);
                batchScalar = tr.total(pfx + "os.linux.touch") +
                              tr.total(pfx + "os.mosaic.touch");
                report.check(pfx + "batch64_equals_scalar",
                             batched.value() == cellDigest.value(),
                             "touchBatch(64) changed the VM outputs");
            }
        }

        report.unit(std::string("swap/") + row.name,
                    swapDigest(footprint, linuxIo, mosaicIo), 1);
        report.unit(std::string("swap/") + row.name + "/vmstats",
                    vmDigest.value(), 1);
        report.attempted += 1;

        report.metric(pfx + "workloads.write_frac",
                      static_cast<double>(writes) /
                          static_cast<double>(refs));
        report.metric(pfx + "os.linux.swap_io", linuxIo.sum());
        report.metric(pfx + "os.mosaic.swap_io", mosaicIo.sum());
        report.metric(pfx + "os.mosaic.conflicts",
                      static_cast<double>(mosaicStats.conflicts));
        report.metric(pfx + "os.mosaic.ghost_evictions",
                      static_cast<double>(mosaicStats.ghostEvictions));
        report.metric(pfx + "os.mosaic.ghost_rescues",
                      static_cast<double>(mosaicStats.ghostRescues));
        report.metric(pfx + "os.mosaic.major_faults",
                      static_cast<double>(mosaicStats.majorFaults));
    }

    const double wall = tr.total("swap.cell");
    double layers = 0.0, equivalent = 0.0;
    for (const auto &[name, self] : tr.selfSeconds()) {
        if (name == "swap.cell")
            continue;
        report.metric(name + "_s", self);
        layers += self;
        if (!name.ends_with("hash.candidates"))
            equivalent += self;
    }
    report.metric("swap.xsbench.core.batch64_speedup",
                  batchScalar / batchBatched);
    report.metric("swap.other_s", wall - layers);
    report.metric("swap.trace.overhead_frac",
                  (equivalent - untraced) / untraced);
    report.config("swap.traced_wall_s", wall);
    report.config("swap.untraced_wall_s", untraced);
    tr.write(opt.workDir + "/spans-swap.jsonl");
}

} // namespace

void
benchSwap(const Options &opt, Report &report)
{
    if (opt.mode == "traced")
        traced(opt, report);
    else
        endToEnd(opt, report);
}

} // namespace perfbench
