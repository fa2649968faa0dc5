/**
 * @file
 * Shared pieces of the host-time benchmark: the timing loop, the
 * in-memory span tracer, output digests, and the one-line JSON result
 * run.py reads.
 *
 * Every layer is measured from outside: spans wrap calls into a
 * layer's public functions from this directory's files; nothing
 * inside src/ is instrumented.
 */

#ifndef MOSAIC_PERFBENCH_PERFBENCH_HH_
#define MOSAIC_PERFBENCH_PERFBENCH_HH_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/types.hh"
#include "workloads/access_sink.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Process user + system CPU seconds (all threads). */
double cpuSeconds();

/** Process peak resident set, MiB. */
double peakRssMb();

/** Command-line options of one invocation. */
struct Options
{
    std::string workload;
    std::string mode = "e2e"; // e2e | traced | scaling
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned threads = 1;

    /** Scratch directory inside the checkout (serve state, spans). */
    std::string workDir = ".bench_build/work";
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in (0, 1]. */
double percentile(std::vector<double> v, double q);

/** FNV-1a over 64-bit words: the digest the repository's benches use
 *  (bench_million_tenants, ServeSession::stateDigest). */
class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * One recorded data reference, packed: the write flag lives in bit 63
 * (simulated addresses stay far below it). Half the size of MemRef, so
 * a recorded panel stream stays small.
 */
using PackedRef = std::uint64_t;

inline PackedRef
packRef(mosaic::Addr vaddr, bool write)
{
    return vaddr | (std::uint64_t{write} << 63);
}

inline mosaic::Addr
refAddr(PackedRef r)
{
    return r & ~(std::uint64_t{1} << 63);
}

inline bool
refWrite(PackedRef r)
{
    return (r >> 63) != 0;
}

/** AccessSink that records a workload's stream (generation layer). */
class RecordSink : public mosaic::AccessSink
{
  public:
    void
    access(mosaic::Addr vaddr, bool write) override
    {
        refs.push_back(packRef(vaddr, write));
    }

    std::vector<PackedRef> refs;
};

/**
 * Spans kept in memory: name, start, end, parent. Scope opens a span
 * and closes it when it goes out of scope; selfSeconds() subtracts the
 * time covered by child spans.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_;
    };

    Tracer() : origin_(Clock::now()) {}

    /** Summed duration of every span named @p name. */
    double total(const std::string &name) const;

    /** Summed self time (duration minus child spans) per name. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as one JSON object per line to @p path. */
    void write(const std::string &path) const;

  private:
    double now() const { return secondsSince(origin_); }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    int open_ = -1;
};

/**
 * What one invocation reports. Units are the digests run.py checks
 * against perfbench/pinned.json and across iterations: a unit with a
 * mismatching digest counts its weight as failed.
 */
class Report
{
  public:
    void metric(const std::string &name, double value);
    void config(const std::string &key, const std::string &value);
    void config(const std::string &key, double value);
    void unit(const std::string &key, std::uint64_t digest,
              std::uint64_t weight);

    /** A cross-check; a false one makes the run incorrect. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Print the single JSON line run.py parses. */
    void print() const;

  private:
    struct Unit
    {
        std::string key;
        std::uint64_t digest;
        std::uint64_t weight;
    };
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<Unit> units_;
    std::vector<Check> checks_;
};

/**
 * Timings of the end-to-end loop. Each iteration sets up afresh
 * (setup), then runs the timed region (wall, cpu) and appends the
 * latency of each operation in it (a panel, row, block or request:
 * the workload decides).
 */
struct LoopTimes
{
    std::vector<double> setup;
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> latency;

    /** Work per iteration (fixed by the workload's sizes). */
    double opsPerIteration = 0.0;

    /** Append one iteration's per-operation latencies. */
    void addLatencies(const std::vector<double> &more);

    /** True while another iteration fits in @p seconds from
     *  @p start, or fewer than @p min_iterations ran. */
    bool more(Clock::time_point start, double seconds,
              unsigned min_iterations) const;
};

/**
 * Run @p fn(i) for every i in [0, n) on n threads at once and join
 * them all; then rethrow the lowest-index exception, if any.
 */
void concurrently(std::size_t n, const std::function<void(std::size_t)> &fn);

/** Report the end-to-end metric set from @p times. */
void reportEndToEnd(Report &report, const LoopTimes &times);

// Workload entry points (one file each).
void benchFig6(const Options &opt, Report &report);
void benchSwap(const Options &opt, Report &report);
void benchTenants(const Options &opt, Report &report);
void benchServe(const Options &opt, Report &report);

} // namespace perfbench

#endif // MOSAIC_PERFBENCH_PERFBENCH_HH_
