/**
 * @file
 * Ablation: hash-function quality. Fills an iceberg-structured
 * memory with sequential VPNs (the realistic allocation pattern)
 * under different hash families and reports the load factor at the
 * first conflict.
 *
 * Expected shape: tabulation hashing (the paper's choice, cheap
 * enough for the TLB critical path) and xxHash64 (the Linux
 * prototype's choice) both reach ~98 %; a weak multiplicative hash
 * collapses because its probe outputs are correlated — the d
 * backyard "choices" all shift together, defeating power-of-d.
 *
 * Knobs: MOSAIC_ABL_BUCKETS (default 1024), MOSAIC_ABL_RUNS
 * (default 3).
 */

#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "hash/mix.hh"
#include "hash/tabulation.hh"
#include "hash/xxhash64.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

using HashFn =
    std::function<std::uint64_t(std::uint64_t key, unsigned probe)>;

/** How allocation keys are drawn. */
enum class KeyPattern
{
    /** Dense sequential VPNs (single big heap region). */
    Sequential,

    /** Sparse random VPNs (many regions / many address spaces). */
    Random,
};

/** Fill an (f=56, b=8, d=6) iceberg memory until the first conflict
 *  and return the load factor reached. */
double
firstConflictLoad(std::size_t buckets, const HashFn &hash,
                  KeyPattern pattern, std::uint64_t seed)
{
    constexpr unsigned front = 56, back = 8, d = 6;
    std::vector<unsigned> front_used(buckets, 0);
    std::vector<unsigned> back_used(buckets, 0);
    const std::size_t capacity = buckets * (front + back);
    std::size_t stored = 0;
    Rng rng(seed ^ 0x4B455953ull);

    for (std::uint64_t next = 0;; ++next) {
        const std::uint64_t key =
            pattern == KeyPattern::Sequential ? next : rng();
        const std::size_t fb = hash(key, 0) % buckets;
        if (front_used[fb] < front) {
            ++front_used[fb];
            ++stored;
            continue;
        }
        std::size_t best = buckets;
        unsigned best_occ = back + 1;
        for (unsigned k = 1; k <= d; ++k) {
            const std::size_t bb = hash(key, k) % buckets;
            if (back_used[bb] < best_occ) {
                best_occ = back_used[bb];
                best = bb;
            }
        }
        if (best == buckets || best_occ >= back) {
            return static_cast<double>(stored) /
                   static_cast<double>(capacity);
        }
        ++back_used[best];
        ++stored;
    }
}

} // namespace

int
main()
{
    const auto buckets = static_cast<std::size_t>(
        bench::envLong("MOSAIC_ABL_BUCKETS", 1024));
    const auto runs = static_cast<unsigned>(
        bench::envLong("MOSAIC_ABL_RUNS", 3));

    std::cout << "Ablation: hash family vs achievable utilization "
                 "(sequential VPN fill, f=56 b=8 d=6, " << buckets
              << " buckets)\n\n";

    TextTable table({"Hash family", "seq keys %", "+/-",
                     "random keys %", "+/-", "note"});

    struct Family
    {
        const char *name;
        const char *note;
        std::function<HashFn(std::uint64_t seed)> make;
    };
    const Family families[] = {
        {"tabulation (probed)", "paper's TLB-path hash",
         [](std::uint64_t seed) -> HashFn {
             auto hash = std::make_shared<TabulationHash>(seed);
             return [hash](std::uint64_t key, unsigned probe) {
                 return std::uint64_t{hash->hash(key, probe)};
             };
         }},
        {"xxHash64 (seeded)", "Linux prototype's hash",
         [](std::uint64_t seed) -> HashFn {
             return [seed](std::uint64_t key, unsigned probe) {
                 return xxhash64(key, seed * 31 + probe);
             };
         }},
        {"fmix64 (probed)", "strong mixer, probe-by-add",
         [](std::uint64_t seed) -> HashFn {
             return [seed](std::uint64_t key, unsigned probe) {
                 return mix64(key ^ seed) + probe * 0x9E3779B9u;
             };
         }},
        {"weak multiplicative", "correlated probes",
         [](std::uint64_t seed) -> HashFn {
             return [seed](std::uint64_t key, unsigned probe) {
                 return weakMultiplicativeHash(key ^ seed, probe);
             };
         }},
    };

    // One pool task per (family, run, pattern) fill; fold the runs
    // into the stats in index order.
    constexpr std::size_t num_families = std::size(families);
    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    std::vector<double> loads(num_families * runs * 2, 0.0);
    const double cell_seconds = bench::timedParallelFor(
        pool, loads.size(), [&](std::size_t i) {
            const Family &family = families[i / (runs * 2)];
            const unsigned r =
                static_cast<unsigned>((i / 2) % runs);
            const KeyPattern pattern = i % 2 == 0
                                           ? KeyPattern::Sequential
                                           : KeyPattern::Random;
            loads[i] = 100.0 * firstConflictLoad(
                                   buckets, family.make(r + 1),
                                   pattern, r);
        });

    auto report = bench::makeReport("ablation_hash", 1,
                                    pool.threadCount());
    report.config("buckets", static_cast<std::uint64_t>(buckets));
    report.config("runs", static_cast<std::uint64_t>(runs));
    // Metric keys per hash family, aligned with `families` below.
    const char *family_keys[] = {"tabulation", "xxhash64", "fmix64",
                                 "weakMultiplicative"};
    static_assert(std::size(family_keys) == num_families);

    for (std::size_t f = 0; f < num_families; ++f) {
        const Family &family = families[f];
        RunningStat seq, random;
        for (unsigned r = 0; r < runs; ++r) {
            seq.add(loads[f * runs * 2 + r * 2]);
            random.add(loads[f * runs * 2 + r * 2 + 1]);
        }
        {
            const std::string base =
                std::string("abl.hash.") + family_keys[f];
            report.metrics().stat(base + ".seqUtilizationPct", seq);
            report.metrics().stat(base + ".randomUtilizationPct",
                                  random);
        }
        table.beginRow()
            .cell(family.name)
            .cell(seq.mean(), 2)
            .cell(seq.stddev(), 2)
            .cell(random.mean(), 2)
            .cell(random.stddev(), 2)
            .cell(family.note);
    }
    bench::printTable(table, std::cout);

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nDesign takeaway: a regular multiplicative hash "
                 "can look perfect on a dense sequential fill (it "
                 "degenerates to round-robin) but degrades on the "
                 "sparse, multi-region patterns real address spaces "
                 "produce; correlated probe outputs (fmix64+add, "
                 "multiplicative) cost several points of memory "
                 "because the d backyard choices stop being "
                 "independent. Tabulation probing keeps both "
                 "patterns at ~98 % at a hardware cost low enough "
                 "for the L1 TLB path (Table 5).\n";
    return 0;
}
