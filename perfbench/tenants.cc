/**
 * @file
 * Workload `tenants`: the million-tenants stream of
 * bench/bench_million_tenants.cc through ShardedMosaicVm::touchBatch.
 * The full 1 Mi-frame pool in 8 shards, 4,096 ASIDs at 1.15x
 * overcommit: a fill phase, then churn (80% hot / 20% cold, 30%
 * writes), in blocks of 8,192 touches on the shared pool's threads.
 * The only workload where sharding, the batch pipeline and the thread
 * pool carry the load.
 *
 * The PFN + stats digest is the one bench_million_tenants prints. The
 * whole-machine conservation oracle runs every 64 blocks (shallow) and
 * at the end (deep); its time is excluded from the end-to-end figures.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/geometry.hh"
#include "oracle/shard_oracle.hh"
#include "os/sharded_vm.hh"
#include "perfbench.hh"
#include "util/random.hh"

namespace perfbench
{

namespace
{

using namespace mosaic;

constexpr std::size_t blockTouches = 8192;
constexpr std::size_t defaultShards = 8;

/** Sizes of bench_million_tenants at scale 1. */
struct Sizes
{
    MemoryGeometry geometry;
    std::size_t shards = defaultShards;
    std::size_t asids = 4096;
    std::size_t pagesPerAsid = 0;
    std::size_t churnOps = 0;
};

Sizes
tenantSizes(std::uint64_t seed, std::size_t shards)
{
    Sizes s;
    s.shards = shards;
    MemoryGeometry &g = s.geometry;
    // Aligned for 8 shards even when a shards=1 replay uses it, so
    // both see the same pool.
    const std::size_t align = defaultShards * g.slotsPerBucket();
    const std::size_t target = MemoryGeometry::paperLinuxPool().numFrames;
    g.numFrames = (target + align - 1) / align * align;
    g.hashSeed = seed ^ 0xA110C;
    const std::size_t total_pages = g.numFrames * 23 / 20;
    s.pagesPerAsid = std::max<std::size_t>(16, total_pages / s.asids);
    s.churnOps = g.numFrames * 3;
    return s;
}

/** The stream, block by block: fill every tenant's range in order,
 *  then random hot/cold touches. */
class TenantStream
{
  public:
    TenantStream(const Sizes &sizes, std::uint64_t seed)
        : sizes_(sizes), rng_(seed)
    {
    }

    /** Next block into @p out; returns its size, 0 at the end. */
    std::size_t
    next(std::vector<PageTouch> &out, bool &fill)
    {
        out.clear();
        fill = asid_ <= sizes_.asids;
        if (fill) {
            while (out.size() < blockTouches && asid_ <= sizes_.asids) {
                out.push_back(PageTouch{static_cast<Asid>(asid_),
                                        Vpn{page_}, true});
                if (++page_ == sizes_.pagesPerAsid) {
                    page_ = 0;
                    ++asid_;
                }
            }
            return out.size();
        }
        const std::size_t n =
            std::min(blockTouches, sizes_.churnOps - churned_);
        for (std::size_t i = 0; i < n; ++i) {
            const auto asid = static_cast<Asid>(1 + rng_.below(sizes_.asids));
            const std::size_t span =
                rng_.chance(0.8)
                    ? std::max<std::size_t>(1, sizes_.pagesPerAsid / 4)
                    : sizes_.pagesPerAsid;
            out.push_back(
                PageTouch{asid, Vpn{rng_.below(span)}, rng_.chance(0.3)});
        }
        churned_ += n;
        return n;
    }

  private:
    const Sizes &sizes_;
    Rng rng_;
    std::size_t asid_ = 1;
    std::size_t page_ = 0;
    std::size_t churned_ = 0;
};

std::unique_ptr<ShardedMosaicVm>
makeVm(const Sizes &sizes, std::uint64_t seed)
{
    ShardedVmConfig config;
    config.base.geometry = sizes.geometry;
    config.base.seed = seed;
    config.shards = sizes.shards;
    return std::make_unique<ShardedMosaicVm>(config);
}

/** Where one pass over the stream spent its time. */
struct PassTimes
{
    double fill = 0.0;
    double churn = 0.0;
    double oracle = 0.0;
    double oracleCpu = 0.0;
    std::size_t blocks = 0;
    std::size_t touches = 0;
    bool conserved = true;
    std::uint64_t digest = 0;
};

/**
 * Drive the whole stream through @p vm. Block latencies go to
 * @p latency and spans to @p tr when given. The oracle's time is kept
 * apart.
 */
PassTimes
runStream(ShardedMosaicVm &vm, const Sizes &sizes, std::uint64_t seed,
          std::vector<double> *latency, Tracer *tr)
{
    PassTimes pt;
    TenantStream stream(sizes, seed);
    std::vector<PageTouch> touches;
    std::vector<Pfn> out(blockTouches);
    Digest digest;
    const auto conserve = [&](bool deep) {
        std::optional<Tracer::Scope> span;
        if (tr != nullptr)
            span.emplace(*tr, "tenants.oracle.conservation");
        const double cpu0 = cpuSeconds();
        const auto t = Clock::now();
        if (checkShardConservation(vm, deep))
            pt.conserved = false;
        pt.oracle += secondsSince(t);
        pt.oracleCpu += cpuSeconds() - cpu0;
    };
    bool fill = true;
    while (const std::size_t n = stream.next(touches, fill)) {
        std::optional<Tracer::Scope> span;
        if (tr != nullptr) {
            span.emplace(*tr, fill ? "tenants.os.sharded.fill"
                                   : "tenants.os.sharded.churn");
        }
        const auto t = Clock::now();
        vm.touchBatch({touches.data(), n}, out.data());
        const double dt = secondsSince(t);
        span.reset();
        (fill ? pt.fill : pt.churn) += dt;
        if (latency != nullptr)
            latency->push_back(dt);
        for (std::size_t i = 0; i < n; ++i)
            digest.mix(out[i]);
        pt.touches += n;
        if (++pt.blocks % 64 == 0)
            conserve(false);
    }
    conserve(true);

    const VmStats &stats = vm.stats();
    const ShardCounters &counters = vm.counters();
    for (const std::uint64_t v :
         {stats.minorFaults, stats.majorFaults, stats.swapIns,
          stats.swapOuts, stats.conflicts, stats.recoveredConflicts,
          stats.ghostEvictions, stats.ghostRescues, counters.steals,
          std::uint64_t{vm.residentPages()},
          std::uint64_t{vm.forwardEntries()}})
        digest.mix(v);
    pt.digest = digest.value();
    return pt;
}

void
record(Report &report, const PassTimes &pt)
{
    report.unit("tenants", pt.digest, pt.blocks);
    report.attempted += pt.blocks;
    report.check("tenants.conservation", pt.conserved,
                 "checkShardConservation reported a violation");
    if (!pt.conserved)
        report.failed += pt.blocks;
}

void
configSizes(Report &report, const Sizes &s)
{
    report.config("tenants.frames", static_cast<double>(s.geometry.numFrames));
    report.config("tenants.shards", static_cast<double>(s.shards));
    report.config("tenants.asids", static_cast<double>(s.asids));
    report.config("tenants.pages_per_asid",
                  static_cast<double>(s.pagesPerAsid));
    report.config("tenants.churn_ops", static_cast<double>(s.churnOps));
}

void
endToEnd(const Options &opt, Report &report)
{
    const Sizes sizes = tenantSizes(opt.seed, defaultShards);
    LoopTimes times;
    const auto start = Clock::now();
    while (times.more(start, opt.seconds, 3)) {
        auto t = Clock::now();
        auto vm = makeVm(sizes, opt.seed);
        times.setup.push_back(secondsSince(t));

        std::vector<double> latency;
        const double cpu0 = cpuSeconds();
        t = Clock::now();
        const PassTimes pt = runStream(*vm, sizes, opt.seed, &latency, nullptr);
        times.wall.push_back(secondsSince(t) - pt.oracle);
        times.cpu.push_back(cpuSeconds() - cpu0 - pt.oracleCpu);
        times.addLatencies(latency);
        times.opsPerIteration = static_cast<double>(pt.touches);
        record(report, pt);
    }
    reportEndToEnd(report, times);
    configSizes(report, sizes);
}

double
maxOverMean(const std::vector<double> &v)
{
    double max = 0.0, sum = 0.0;
    for (const double x : v) {
        max = std::max(max, x);
        sum += x;
    }
    return max / (sum / static_cast<double>(v.size()));
}

void
traced(const Options &opt, Report &report)
{
    const Sizes sizes = tenantSizes(opt.seed, defaultShards);

    // Reference: the end-to-end work untraced. The first pass in a
    // process also pays for faulting in the 1 Mi-frame tables, which
    // the end-to-end medians do not see; keep the faster of two.
    double untraced = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        auto vm = makeVm(sizes, opt.seed);
        const auto t = Clock::now();
        const PassTimes pt =
            runStream(*vm, sizes, opt.seed, nullptr, nullptr);
        const double seconds = secondsSince(t) - pt.oracle;
        untraced = pass == 0 ? seconds : std::min(untraced, seconds);
    }

    Tracer tr;
    auto vm = makeVm(sizes, opt.seed);
    PassTimes pt;
    {
        Tracer::Scope root(tr, "tenants.stream");
        pt = runStream(*vm, sizes, opt.seed, nullptr, &tr);
    }
    record(report, pt);

    const double wall = tr.total("tenants.stream");
    double layers = 0.0;
    for (const auto &[name, self] : tr.selfSeconds()) {
        if (name == "tenants.stream")
            continue;
        report.metric(name + "_s", self);
        layers += self;
    }
    const double oracle = tr.total("tenants.oracle.conservation");
    report.metric("tenants.other_s", wall - layers);
    report.metric("tenants.trace.overhead_frac",
                  (wall - oracle - untraced) / untraced);
    report.config("tenants.traced_wall_s", wall);
    report.config("tenants.untraced_wall_s", untraced);
    tr.write(opt.workDir + "/spans-tenants.jsonl");

    const VmStats &stats = vm->stats();
    const ShardCounters &counters = vm->counters();
    report.metric("tenants.os.sharded.swap_outs",
                  static_cast<double>(stats.swapOuts));
    report.metric("tenants.os.sharded.minor_faults",
                  static_cast<double>(stats.minorFaults));
    report.metric("tenants.os.sharded.conflicts",
                  static_cast<double>(stats.conflicts));
    report.metric("tenants.os.sharded.ghost_evictions",
                  static_cast<double>(stats.ghostEvictions));
    report.metric("tenants.os.sharded.steals",
                  static_cast<double>(counters.steals));
    report.metric("tenants.os.sharded.deferred_batch_ops",
                  static_cast<double>(counters.deferredBatchOps));

    std::vector<double> swapOuts, faults, resident;
    for (std::size_t s = 0; s < vm->numShards(); ++s) {
        const MosaicVm &shard = vm->shard(s);
        swapOuts.push_back(static_cast<double>(shard.stats().swapOuts));
        faults.push_back(static_cast<double>(shard.stats().faults()));
        resident.push_back(static_cast<double>(shard.residentPages()));
    }
    report.metric("tenants.os.sharded.swap_out_max_shard",
                  *std::max_element(swapOuts.begin(), swapOuts.end()));
    report.metric("tenants.os.sharded.swap_out_min_shard",
                  *std::min_element(swapOuts.begin(), swapOuts.end()));
    report.metric("tenants.os.sharded.faults_max_over_mean",
                  maxOverMean(faults));
    report.metric("tenants.os.sharded.resident_max_over_mean",
                  maxOverMean(resident));

    // The same stream on one shard: the cost of departing from a
    // single global Horizon LRU, in the paper's swap-I/O metric.
    const std::uint64_t swapOuts8 = stats.swapOuts;
    vm.reset();
    const Sizes one = tenantSizes(opt.seed, 1);
    auto single = makeVm(one, opt.seed);
    const PassTimes pt1 =
        runStream(*single, one, opt.seed, nullptr, nullptr);
    report.check("tenants.single_shard.conservation", pt1.conserved,
                 "checkShardConservation failed at shards=1");
    report.metric("tenants.os.sharding_tax",
                  static_cast<double>(swapOuts8) /
                      static_cast<double>(single->stats().swapOuts));
    configSizes(report, sizes);
}

/** One pass for the thread-scaling comparison: run.py runs this in a
 *  1-thread process and divides by the traced run's touch time. */
void
scaling(const Options &opt, Report &report)
{
    const Sizes sizes = tenantSizes(opt.seed, defaultShards);
    auto vm = makeVm(sizes, opt.seed);
    const PassTimes pt = runStream(*vm, sizes, opt.seed, nullptr, nullptr);
    record(report, pt);
    report.metric("tenants.scaling.touch_s", pt.fill + pt.churn);
}

} // namespace

void
benchTenants(const Options &opt, Report &report)
{
    if (opt.mode == "traced")
        traced(opt, report);
    else if (opt.mode == "scaling")
        scaling(opt, report);
    else
        endToEnd(opt, report);
}

} // namespace perfbench
