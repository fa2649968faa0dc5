#include "core/experiments.hh"

#include <chrono>
#include <functional>
#include <memory>

#include "core/batch_pipeline.hh"
#include "core/translation_sim.hh"
#include "core/vm_touch_sink.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/parse.hh"

namespace mosaic
{

MemoryGeometry
ampleGeometry(std::uint64_t footprint_bytes)
{
    MemoryGeometry g;
    const std::uint64_t pages = footprint_bytes / pageSize + 1;
    const std::uint64_t frames = pages * 13 / 10 + 4096;
    g.numFrames = (frames / g.slotsPerBucket() + 1) * g.slotsPerBucket();
    return g;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One Table 3 repetition, fully self-contained. */
struct Table3Sample
{
    std::uint64_t footprintBytes = 0;
    double firstConflictPct = -1.0; // < 0: no conflict observed
    double steadyPct = -1.0;        // < 0: no steady-state samples
    double seconds = 0.0;
};

Table3Sample
runTable3Cell(WorkloadKind kind, const Table3Options &options,
              unsigned run)
{
    const auto start = Clock::now();
    const std::uint64_t seed = experimentCellSeed(options.seed, run);

    const std::uint64_t mem_bytes =
        std::uint64_t{options.memFrames} * pageSize;
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * options.footprintFactor);
    const std::unique_ptr<Workload> workload =
        makeFootprintWorkload(kind, footprint, seed);

    MosaicVmConfig config;
    config.geometry.numFrames = options.memFrames;
    config.geometry.hashSeed = seed ^ 0xA110C;
    config.seed = seed;
    MosaicVm vm(config);

    // Scalar or batched per MOSAIC_BATCH; results are identical by
    // the touchBatch contract (tests/test_batch_pipeline.cc).
    const auto sink = makeVmTouchSink(vm, 1, batchBlockFromEnv());
    workload->run(*sink);
    sink->flush();

    Table3Sample sample;
    sample.footprintBytes = workload->info().footprintBytes;
    if (vm.stats().firstConflictUtilization >= 0) {
        sample.firstConflictPct =
            100.0 * vm.stats().firstConflictUtilization;
    }
    if (vm.stats().steadyUtilization.count() > 0)
        sample.steadyPct = 100.0 * vm.stats().steadyUtilization.mean();
    sample.seconds = secondsSince(start);
    return sample;
}

/** One Table 4 repetition (both VMs), fully self-contained. */
struct Table4Sample
{
    std::uint64_t footprintBytes = 0;
    double linuxSwapIo = 0.0;
    double mosaicSwapIo = 0.0;
    double seconds = 0.0;
};

Table4Sample
runTable4Cell(WorkloadKind kind, const Table4Options &options,
              unsigned run)
{
    const auto start = Clock::now();
    const std::uint64_t seed = experimentCellSeed(options.seed, run);

    const std::uint64_t mem_bytes =
        std::uint64_t{options.memFrames} * pageSize;
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * options.footprintFactor);
    const std::unique_ptr<Workload> workload =
        makeFootprintWorkload(kind, footprint, seed);

    Table4Sample sample;
    sample.footprintBytes = workload->info().footprintBytes;

    LinuxVmConfig linux_config;
    linux_config.numFrames = options.memFrames;
    LinuxVm linux_vm(linux_config);
    const unsigned block = batchBlockFromEnv();
    const auto linux_sink = makeVmTouchSink(linux_vm, 1, block);
    workload->run(*linux_sink);
    linux_sink->flush();
    sample.linuxSwapIo =
        static_cast<double>(linux_vm.stats().swapIns +
                            linux_vm.stats().swapOuts);

    MosaicVmConfig mosaic_config;
    mosaic_config.geometry.numFrames = options.memFrames;
    mosaic_config.geometry.hashSeed = seed ^ 0xA110C;
    mosaic_config.seed = seed;
    MosaicVm mosaic_vm(mosaic_config);
    const auto mosaic_sink = makeVmTouchSink(mosaic_vm, 1, block);
    workload->run(*mosaic_sink);
    mosaic_sink->flush();
    sample.mosaicSwapIo =
        static_cast<double>(mosaic_vm.stats().swapIns +
                            mosaic_vm.stats().swapOuts);

    sample.seconds = secondsSince(start);
    return sample;
}

/**
 * A workload's reference stream, recorded once so that every ways
 * cell of a Figure 6 panel replays the identical trace. References
 * are packed into 8 bytes (vaddr << 1 | write; virtual addresses are
 * far below 2^63) and stored in fixed 64 Ki-reference chunks, so
 * recording never copies what it already holds.
 */
class RecordedStream final : public AccessSink
{
  public:
    void
    access(Addr vaddr, bool write) override
    {
        if (used_ == chunkRefs) {
            chunks_.push_back(
                std::make_unique_for_overwrite<std::uint64_t[]>(
                    chunkRefs));
            used_ = 0;
        }
        chunks_.back()[used_++] = vaddr << 1 | (write ? 1 : 0);
    }

    /** Feed the recorded references to @p sink, in order. */
    void
    replay(AccessSink &sink) const
    {
        for (std::size_t c = 0; c < chunks_.size(); ++c) {
            const std::uint64_t *refs = chunks_[c].get();
            const std::size_t n =
                c + 1 == chunks_.size() ? used_ : chunkRefs;
            for (std::size_t i = 0; i < n; ++i)
                sink.access(refs[i] >> 1, (refs[i] & 1) != 0);
        }
    }

  private:
    static constexpr std::size_t chunkRefs = std::size_t{64} << 10;

    std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
    std::size_t used_ = chunkRefs;
};

/**
 * Simulate cell @p ways_index of a Figure 6 panel: build the cell's
 * TranslationSim and let @p feed deliver the panel's data stream
 * into it (scalar, or batched per MOSAIC_BATCH).
 */
Fig6Cell
simulateFig6Cell(const Fig6Options &options, std::size_t ways_index,
                 std::uint64_t footprint_bytes,
                 const std::function<void(AccessSink &)> &feed)
{
    const auto start = Clock::now();
    TranslationSimConfig config;
    config.memory = ampleGeometry(footprint_bytes);
    config.tlbEntries = options.tlbEntries;
    config.waysList = {options.waysList.at(ways_index)};
    config.arities = options.arities;
    if (!options.kernelHugePages)
        config.kernel.accessEvery = 0;
    config.seed = options.seed;

    // MOSAIC_FULL_POOL=k (k >= 1) lifts the scaled-down-memory wart:
    // the cell runs against the paper's real 4 GiB / 1 Mi-frame pool,
    // demand-paged through a k-shard ShardedMosaicVm (DESIGN.md §17)
    // instead of a footprint-sized ample pool. Malformed values exit
    // via envUnsigned's strict parse — never a silent default.
    if (const std::uint64_t shards = envUnsigned("MOSAIC_FULL_POOL", 0);
            shards >= 1) {
        MemoryGeometry full = MemoryGeometry::paperLinuxPool();
        full.hashSeed = config.memory.hashSeed;
        config.memory = full;
        config.vmShards = shards;
    }

    TranslationSim sim(config);
    if (const unsigned block = batchBlockFromEnv(); block > 1) {
        BatchTranslationSink sink(sim, block);
        feed(sink);
        sink.flush();
    } else {
        feed(sim);
    }

    Fig6Cell cell;
    cell.footprintBytes = footprint_bytes;
    cell.accesses = sim.totalAccesses();
    cell.row.ways = options.waysList.at(ways_index);
    cell.row.vanillaMisses = sim.vanillaStats(0).misses;
    for (std::size_t a = 0; a < options.arities.size(); ++a)
        cell.row.mosaicMisses.push_back(sim.mosaicStats(0, a).misses);
    cell.seconds = secondsSince(start);
    return cell;
}

} // namespace

Fig6Cell
runFig6Cell(WorkloadKind kind, const Fig6Options &options,
            std::size_t ways_index)
{
    const auto start = Clock::now();

    // The reference stream is shared by every cell of the panel (the
    // figure compares TLB geometries on one trace), so the workload
    // and sim seeds come from options.seed alone; this cell merely
    // owns a private generator instance and streams it straight in.
    const std::unique_ptr<Workload> workload =
        makeFig6Workload(kind, options.scale, options.seed);
    Fig6Cell cell = simulateFig6Cell(
        options, ways_index, workload->info().footprintBytes,
        [&](AccessSink &sink) { workload->run(sink); });
    cell.seconds = secondsSince(start);
    return cell;
}

Fig6Result
runFig6(WorkloadKind kind, const Fig6Options &options,
        ThreadPool &pool)
{
    // Generate the panel's stream once; the generator's memory is
    // released before the cells build their simulators.
    const auto start = Clock::now();
    RecordedStream stream;
    std::uint64_t footprint = 0;
    {
        const std::unique_ptr<Workload> workload =
            makeFig6Workload(kind, options.scale, options.seed);
        footprint = workload->info().footprintBytes;
        workload->run(stream);
    }
    const double generate_seconds = secondsSince(start);

    // Each cell is one task owning its simulator from construction
    // to the last reference, so its allocations stay in one thread.
    std::vector<Fig6Cell> cells(options.waysList.size());
    parallelFor(pool, cells.size(), [&](std::size_t w) {
        cells[w] = simulateFig6Cell(
            options, w, footprint,
            [&](AccessSink &sink) { stream.replay(sink); });
    });

    Fig6Result result;
    result.kind = kind;
    result.arities = options.arities;
    result.footprintBytes = footprint;
    result.cellSeconds = generate_seconds;
    for (Fig6Cell &cell : cells) {
        // Identical across cells (one shared reference stream).
        result.accesses = cell.accesses;
        result.cellSeconds += cell.seconds;
        result.rows.push_back(std::move(cell.row));
    }
    return result;
}

Fig6Result
runFig6(WorkloadKind kind, const Fig6Options &options)
{
    return runFig6(kind, options, ThreadPool::shared());
}

Table3Row
runTable3(WorkloadKind kind, const Table3Options &options,
          ThreadPool &pool)
{
    std::vector<Table3Sample> samples(options.runs);
    parallelFor(pool, samples.size(), [&](std::size_t run) {
        samples[run] =
            runTable3Cell(kind, options, static_cast<unsigned>(run));
    });

    Table3Row row;
    row.kind = kind;
    for (const Table3Sample &sample : samples) {
        row.footprintBytes = sample.footprintBytes;
        if (sample.firstConflictPct >= 0)
            row.firstConflictPct.add(sample.firstConflictPct);
        if (sample.steadyPct >= 0)
            row.steadyPct.add(sample.steadyPct);
        row.cellSeconds += sample.seconds;
    }
    return row;
}

Table3Row
runTable3(WorkloadKind kind, const Table3Options &options)
{
    return runTable3(kind, options, ThreadPool::shared());
}

double
Table4Row::differencePct() const
{
    const double linux_io = linuxSwapIo.mean();
    const double mosaic_io = mosaicSwapIo.mean();
    if (linux_io == 0.0)
        return 0.0;
    return 100.0 * (linux_io - mosaic_io) / linux_io;
}

Table4Row
runTable4(WorkloadKind kind, const Table4Options &options,
          ThreadPool &pool)
{
    std::vector<Table4Sample> samples(options.runs);
    parallelFor(pool, samples.size(), [&](std::size_t run) {
        samples[run] =
            runTable4Cell(kind, options, static_cast<unsigned>(run));
    });

    Table4Row row;
    row.kind = kind;
    for (const Table4Sample &sample : samples) {
        row.footprintBytes = sample.footprintBytes;
        row.linuxSwapIo.add(sample.linuxSwapIo);
        row.mosaicSwapIo.add(sample.mosaicSwapIo);
        row.cellSeconds += sample.seconds;
    }
    return row;
}

Table4Row
runTable4(WorkloadKind kind, const Table4Options &options)
{
    return runTable4(kind, options, ThreadPool::shared());
}

} // namespace mosaic
