/**
 * @file
 * mosaic_perfbench: one workload of the host-time benchmark per
 * invocation. run.py builds this binary, runs it, checks the digests it
 * reports against perfbench/pinned.json, and prints the result line.
 *
 *   mosaic_perfbench --workload fig6|swap|tenants|serve
 *                    --mode e2e|traced|scaling --seed N --seconds S
 *                    --threads T [--work-dir DIR]
 *
 * The configuration is hermetic: every MOSAIC_* environment variable
 * is cleared before anything runs, and the thread count, sizes and
 * seed come from the command line only.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hh"

extern char **environ;

namespace perfbench
{

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------ Tracer

Tracer::Scope::Scope(Tracer &tracer, std::string name)
    : tracer_(tracer), id_(static_cast<int>(tracer.spans_.size()))
{
    tracer_.spans_.push_back(
        Span{std::move(name), tracer_.now(), 0.0, tracer_.open_});
    tracer_.open_ = id_;
}

Tracer::Scope::~Scope()
{
    Span &span = tracer_.spans_[static_cast<std::size_t>(id_)];
    span.end = tracer_.now();
    tracer_.open_ = span.parent;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::map<std::string, double> self;
    for (const Span &s : spans_)
        self[s.name] += s.end - s.start;
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            self[spans_[static_cast<std::size_t>(s.parent)].name] -=
                s.end - s.start;
        }
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out.precision(12);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start\": " << s.start << ", \"end\": " << s.end
            << ", \"parent\": " << s.parent << "}\n";
    }
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

// ------------------------------------------------------------ Report

namespace
{

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

void
Report::metric(const std::string &name, double value)
{
    metrics_.emplace_back(name, value);
}

void
Report::config(const std::string &key, const std::string &value)
{
    config_.emplace_back(key, quote(value));
}

void
Report::config(const std::string &key, double value)
{
    std::ostringstream out;
    out.precision(17);
    out << value;
    config_.emplace_back(key, out.str());
}

void
Report::unit(const std::string &key, std::uint64_t digest,
             std::uint64_t weight)
{
    units_.push_back(Unit{key, digest, weight});
}

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    checks_.push_back(Check{name, ok, detail});
}


void
Report::print() const
{
    std::ostringstream out;
    out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out << (i ? ", " : "") << quote(metrics_[i].first) << ": "
            << number(metrics_[i].second);
    }
    out << "}, \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
        out << (i ? ", " : "") << quote(config_[i].first) << ": "
            << config_[i].second;
    }
    out << "}, \"units\": [";
    for (std::size_t i = 0; i < units_.size(); ++i) {
        out << (i ? ", " : "") << "[" << quote(units_[i].key) << ", "
            << quote(hex(units_[i].digest)) << ", " << units_[i].weight
            << "]";
    }
    out << "], \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
        out << (i ? ", " : "") << "[" << quote(checks_[i].name) << ", "
            << (checks_[i].ok ? "true" : "false") << ", "
            << quote(checks_[i].detail) << "]";
    }
    out << "]}\n";
    std::cout << out.str() << std::flush;
}

// ---------------------------------------------------------- LoopTimes

void
concurrently(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(n);
    {
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < n; ++i) {
            threads.emplace_back([&, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
    }
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

void
LoopTimes::addLatencies(const std::vector<double> &more)
{
    latency.insert(latency.end(), more.begin(), more.end());
}

bool
LoopTimes::more(Clock::time_point start, double seconds,
                unsigned min_iterations) const
{
    if (wall.size() < min_iterations)
        return true;
    const double elapsed = secondsSince(start);
    return elapsed * static_cast<double>(wall.size() + 1) /
               static_cast<double>(wall.size()) <=
           seconds;
}

/*
 * On a shared 4-vCPU Xeon VM, identical iterations ran anywhere from
 * 1.0x to 1.7x their fastest time, switching every few seconds with
 * no steal time reported: the host's speed, not the code's. Medians
 * over many iterations damp that; README.md gives the run-to-run
 * spreads it leaves.
 */
void
reportEndToEnd(Report &report, const LoopTimes &times)
{
    const double wall = median(times.wall);
    report.metric("wall_s", wall);
    report.metric("ops_per_s", times.opsPerIteration / wall);
    report.metric("cpu_s", median(times.cpu));
    report.metric("setup_s", median(times.setup));
    report.metric("peak_rss_mb", peakRssMb());
    report.metric("latency_p50_us", 1e6 * median(times.latency));
    report.config("iterations", static_cast<double>(times.wall.size()));
    report.config("latency_samples",
                  static_cast<double>(times.latency.size()));
    std::ostringstream walls;
    for (std::size_t i = 0; i < times.wall.size(); ++i)
        walls << (i ? " " : "") << times.wall[i];
    report.config("iteration_wall_s", walls.str());
}

} // namespace perfbench

namespace
{

using perfbench::Options;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mosaic_perfbench: " << why
              << "\nusage: mosaic_perfbench --workload "
                 "fig6|swap|tenants|serve --mode e2e|traced|scaling "
                 "--seed N --seconds S --threads T [--work-dir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + " wants a whole number, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--mode")
            opt.mode = value;
        else if (flag == "--seed")
            opt.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            opt.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--threads")
            opt.threads = static_cast<unsigned>(parseCount(flag, value));
        else if (flag == "--work-dir")
            opt.workDir = value;
        else
            usage("unknown flag " + flag);
    }
    if (opt.mode != "e2e" && opt.mode != "traced" && opt.mode != "scaling")
        usage("unknown mode '" + opt.mode + "'");
    if (opt.threads == 0 || opt.threads > 256)
        usage("--threads must be in [1, 256]");
    if (opt.seconds < 1)
        usage("--seconds must be at least 1");
    return opt;
}

/** Drop every MOSAIC_* variable, then pin the one knob the library
 *  offers for the shared pool's size (used by ShardedMosaicVm). */
void
hermeticEnvironment(unsigned threads)
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("MOSAIC_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("MOSAIC_THREADS", std::to_string(threads).c_str(), 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    hermeticEnvironment(opt.threads);

    perfbench::Report report;
    report.config("workload", opt.workload);
    report.config("mode", opt.mode);
    report.config("seed", std::to_string(opt.seed));
    report.config("seconds", opt.seconds);
    report.config("threads", static_cast<double>(opt.threads));
    report.config("nproc",
                  static_cast<double>(std::thread::hardware_concurrency()));
    report.config("build_type", PERFBENCH_BUILD_TYPE);

    try {
        std::filesystem::create_directories(opt.workDir);
        if (opt.workload == "fig6")
            perfbench::benchFig6(opt, report);
        else if (opt.workload == "swap")
            perfbench::benchSwap(opt, report);
        else if (opt.workload == "tenants")
            perfbench::benchTenants(opt, report);
        else if (opt.workload == "serve")
            perfbench::benchServe(opt, report);
        else
            usage("unknown workload '" + opt.workload + "'");
        report.print();
    } catch (const std::exception &e) {
        std::cerr << "mosaic_perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
