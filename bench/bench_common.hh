/**
 * @file
 * Shared helpers for the experiment benches: environment-variable
 * knobs so the default run finishes in minutes while a full,
 * paper-scale run stays one variable away.
 */

#ifndef MOSAIC_BENCH_BENCH_COMMON_HH_
#define MOSAIC_BENCH_BENCH_COMMON_HH_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "fault/sweep.hh"
#include "telemetry/report.hh"
#include "util/parse.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace mosaic::bench
{

/** Process CPU seconds so far, all threads (user + system). */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Wall-clock and process-CPU stopwatch for parallelism reporting. */
class WallTimer
{
  public:
    WallTimer()
        : start_(std::chrono::steady_clock::now()),
          cpuStart_(processCpuSeconds())
    {
    }

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** Process CPU seconds spent since construction. */
    double cpuSeconds() const { return processCpuSeconds() - cpuStart_; }

  private:
    std::chrono::steady_clock::time_point start_;
    double cpuStart_;
};

/**
 * Report how a parallel sweep went: worker count, wall-clock time,
 * the process CPU seconds spent meanwhile, and CPU/wall — the cores
 * the run kept busy on average. Unlike a sum of per-cell elapsed
 * times, CPU time neither double-counts work that cells share nor
 * inflates when more threads than cores take turns.
 */
inline void
reportParallelism(std::ostream &os, const ThreadPool &pool,
                  const WallTimer &timer)
{
    const double wall = timer.seconds();
    const double cpu = timer.cpuSeconds();
    char line[160];
    std::snprintf(line, sizeof line,
                  "threads=%u (MOSAIC_THREADS overrides)  wall=%.2fs  "
                  "cpu=%.2fs  cpu/wall=%.2f",
                  pool.threadCount(), wall, cpu,
                  wall > 0.0 ? cpu / wall : 0.0);
    os << line << "\n";
}

/** Render a result table: aligned text by default, CSV when the
 *  MOSAIC_CSV environment variable is set (machine-readable runs). */
inline void
printTable(const TextTable &table, std::ostream &os)
{
    const char *csv = std::getenv("MOSAIC_CSV");
    if (csv && *csv && *csv != '0')
        table.printCsv(os);
    else
        table.print(os);
}

/**
 * parallelFor wrapper that times every task and returns the summed
 * per-cell wall-clock seconds (the serial-equivalent cost recorded in
 * a report's timing section).
 */
template <typename Fn>
inline double
timedParallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    std::vector<double> seconds(n, 0.0);
    parallelFor(pool, n, [&](std::size_t i) {
        const WallTimer timer;
        fn(i);
        seconds[i] = timer.seconds();
    });
    double total = 0.0;
    for (const double s : seconds)
        total += s;
    return total;
}

/**
 * Start the machine-readable report of a bench run: every bench
 * creates one, registers its config knobs and metrics, and calls
 * finishReport() last, so a BENCH_<name>.json artifact appears next
 * to the stdout tables (opt-out: MOSAIC_NO_JSON; target directory:
 * MOSAIC_JSON_DIR). See DESIGN.md §9 for the schema.
 */
inline telemetry::BenchReport
makeReport(const std::string &bench, std::uint64_t seed,
           unsigned threads = 1)
{
    telemetry::BenchReport report(bench);
    report.manifest().seed = seed;
    report.manifest().threads = threads;
    return report;
}

/**
 * Stamp timings into @p report and write it out, echoing the
 * artifact path to @p os so runs show where their JSON landed.
 */
inline void
finishReport(telemetry::BenchReport &report, std::ostream &os,
             double wall_seconds, double cell_seconds = 0.0)
{
    report.timing().wallSeconds = wall_seconds;
    report.timing().serialSeconds = cell_seconds;
    if (const auto path = report.write())
        os << "telemetry: " << *path << "\n";
}

/**
 * Record a resilient sweep's outcome (fault::SweepRunner) in the
 * report and on stdout.
 *
 * Everything lands in the manifest *config* section, never in
 * metrics: failure manifests, retry counts, and resume counters are
 * run-shape data, and keeping them out of the metrics object is what
 * lets an interrupted-and-resumed run's metrics compare byte-for-byte
 * against an uninterrupted one (DESIGN.md §11). Counters are only
 * recorded when nonzero, so a clean sweep's report is byte-identical
 * to a pre-resilience one.
 */
inline void
recordSweep(telemetry::BenchReport &report, std::ostream &os,
            const fault::SweepRunner &runner,
            const fault::SweepStats &stats)
{
    const std::string base = "sweep." + runner.name();
    if (!stats.failures.empty()) {
        report.config(base + ".failedCells", stats.failures.size());
        std::size_t idx = 0;
        for (const fault::CellFailure &f : stats.failures) {
            report.config(base + ".failure" + std::to_string(idx++),
                          f.cell + " (attempts=" +
                              std::to_string(f.attempts) +
                              "): " + f.error);
            os << "sweep " << runner.name() << ": cell " << f.cell
               << " FAILED after " << f.attempts
               << " attempts: " << f.error << "\n";
        }
    }
    if (stats.retries > 0)
        report.config(base + ".retries", stats.retries);
    if (stats.watchdogTimeouts > 0)
        report.config(base + ".watchdogTimeouts",
                      stats.watchdogTimeouts);
    if (stats.resumedCells > 0)
        report.config(base + ".resumedCells", stats.resumedCells);
    if (stats.checkpointedCells > 0)
        report.config(base + ".checkpointedCells",
                      stats.checkpointedCells);
    if (stats.injectedCellFaults > 0)
        report.config(base + ".injectedCellFaults",
                      stats.injectedCellFaults);
    if (stats.resumedCells > 0)
        os << "sweep " << runner.name() << ": resumed "
           << stats.resumedCells << " cell(s) from "
           << runner.options().resumeDir << "\n";
}

/**
 * Read a double knob from the environment. Malformed values exit
 * with a quoted-offender InvalidArgument via util/parse.hh — a
 * typo'd MOSAIC_FIG6_SCALE=0.5x must not silently run the default.
 */
inline double
envDouble(const char *name, double fallback)
{
    return envFinite(name, fallback);
}

/** Read a non-negative integer knob from the environment (strict:
 *  set-but-malformed values are fatal, never the fallback). */
inline long
envLong(const char *name, long fallback)
{
    const std::uint64_t v = envUnsigned(
        name, static_cast<std::uint64_t>(fallback));
    if (v > static_cast<std::uint64_t>(
            std::numeric_limits<long>::max())) {
        fatal(std::string(name) + ": value " + std::to_string(v) +
              " does not fit in a long");
    }
    return static_cast<long>(v);
}

} // namespace mosaic::bench

#endif // MOSAIC_BENCH_BENCH_COMMON_HH_
