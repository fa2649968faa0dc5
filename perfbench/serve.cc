/**
 * @file
 * Workload `serve`: mosaicd in an open loop. One generator thread
 * submits two independent tenants' request streams (GUPS and XSBench
 * traces, interleaved) at a fixed offered rate, about half the
 * daemon's closed-loop capacity on a 4-core host; 2 workers apply them.
 * The only workload that runs admission, the WAL and the SPSC rings.
 *
 * Latency runs from a request's scheduled send time to its accepted
 * (durable) ack, so a stall also delays the requests queued behind it;
 * generator lag is how late the generator sent. Each iteration starts
 * a fresh daemon (setup), so session ids, seeds and digests repeat.
 */

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "core/request_log.hh"
#include "perfbench.hh"
#include "serve/daemon.hh"
#include "workloads/factory.hh"

namespace perfbench
{

namespace
{

using namespace mosaic;
using namespace mosaic::serve;
namespace fs = std::filesystem;

/** Offered load, requests per second (see README.md). */
constexpr double offeredRate = 250000.0;

/** Requests per iteration, split evenly over the sessions. */
constexpr std::size_t requestsPerIteration = 100000;

constexpr WorkloadKind tenantKinds[] = {WorkloadKind::Gups,
                                        WorkloadKind::XsBench};
constexpr std::size_t numTenants = std::size(tenantKinds);
constexpr double traceScale = 0.02;

struct Tenant
{
    std::string client;
    std::uint64_t footprint = 0;
    std::vector<PackedRef> trace;
};

std::vector<Tenant>
makeTenants(std::uint64_t seed)
{
    std::vector<Tenant> tenants;
    for (std::size_t k = 0; k < numTenants; ++k) {
        const auto workload = makeFig6Workload(
            tenantKinds[k], traceScale, experimentCellSeed(seed, k));
        RecordSink rec;
        workload->run(rec);
        if (rec.refs.size() < requestsPerIteration / numTenants)
            throw std::runtime_error("serve: tenant trace too short");
        rec.refs.resize(requestsPerIteration / numTenants);
        tenants.push_back(Tenant{workloadName(tenantKinds[k]),
                                 workload->info().footprintBytes,
                                 std::move(rec.refs)});
    }
    return tenants;
}

ServeConfig
serveConfig(const Options &opt)
{
    ServeConfig c;
    c.workers = 2;
    // Deep enough that the offered rate never meets backpressure.
    c.ringCapacity = 16384;
    c.stateDir = opt.workDir + "/serve";
    c.seed = opt.seed;
    return c;
}

/** A started daemon with one session per tenant. */
struct Daemon
{
    std::unique_ptr<Mosaicd> daemon;
    std::vector<SessionHandle> sessions;
};

Daemon
startDaemon(const ServeConfig &config, const std::vector<Tenant> &tenants)
{
    fs::remove_all(config.stateDir);
    fs::create_directories(fs::path(config.stateDir).parent_path());
    Daemon d;
    d.daemon = std::make_unique<Mosaicd>(config);
    if (const Status st = d.daemon->start(); !st.ok())
        throw std::runtime_error("serve: start: " + st.toString());
    for (const Tenant &t : tenants) {
        auto handle = d.daemon->connect(t.client, t.footprint);
        if (!handle.ok()) {
            throw std::runtime_error("serve: connect: " +
                                     handle.status().toString());
        }
        d.sessions.push_back(handle.value());
    }
    return d;
}

/** What one open-loop pass measured. */
struct LoopResult
{
    double submit = 0.0;   // seconds inside submit()
    double wait = 0.0;     // seconds the generator waited for schedule
    double drain = 0.0;
    std::vector<double> latency;
    std::vector<double> lag;
    std::uint64_t errors = 0;
};

LoopResult
openLoop(Daemon &d, const std::vector<Tenant> &tenants)
{
    LoopResult r;
    r.latency.reserve(requestsPerIteration);
    r.lag.reserve(requestsPerIteration);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / offeredRate));
    const auto t0 = Clock::now() + std::chrono::microseconds(100);
    for (std::size_t i = 0; i < requestsPerIteration; ++i) {
        const std::size_t k = i % numTenants;
        const PackedRef ref = tenants[k].trace[i / numTenants];
        const auto due = t0 + period * static_cast<long>(i);
        const auto waitStart = Clock::now();
        auto now = waitStart;
        while (now < due)
            now = Clock::now();
        const Status st =
            d.sessions[k].submit(refAddr(ref), refWrite(ref));
        const auto ack = Clock::now();
        r.wait += std::chrono::duration<double>(now - waitStart).count();
        r.submit += std::chrono::duration<double>(ack - now).count();
        r.lag.push_back(std::chrono::duration<double>(now - due).count());
        r.latency.push_back(
            std::chrono::duration<double>(ack - due).count());
        if (!st.ok())
            ++r.errors;
    }
    const auto drainStart = Clock::now();
    if (const Status st = d.daemon->drain(60.0); !st.ok())
        throw std::runtime_error("serve: drain: " + st.toString());
    r.drain = secondsSince(drainStart);
    return r;
}

/** Conservation, per-session digests and failures of one pass. */
void
record(Report &report, Daemon &d, const LoopResult &r)
{
    const ServeTotals t = d.daemon->totals();
    const bool conserved = t.submitted == t.accepted + t.shedTotal &&
                           t.accepted == t.completed &&
                           t.submitted == requestsPerIteration;
    report.check("serve.conservation", conserved,
                 "submitted != accepted + shed, or accepted != "
                 "completed after drain");
    report.attempted += requestsPerIteration;
    report.failed += conserved ? r.errors : requestsPerIteration;
    for (std::size_t k = 0; k < d.sessions.size(); ++k) {
        const auto digest = d.daemon->stateDigest(d.sessions[k].id());
        if (!digest.ok())
            throw std::runtime_error("serve: " + digest.status().toString());
        report.unit("serve/session" + std::to_string(k), digest.value(),
                    d.sessions[k].nextSeq());
    }
}

void
stopDaemon(Daemon &d, const ServeConfig &config)
{
    d.daemon->stop();
    d.sessions.clear();
    d.daemon.reset();
    fs::remove_all(config.stateDir);
}

void
endToEnd(const Options &opt, Report &report)
{
    const std::vector<Tenant> tenants = makeTenants(opt.seed);
    const ServeConfig config = serveConfig(opt);
    LoopTimes times;
    const auto start = Clock::now();
    while (times.more(start, opt.seconds, 3)) {
        const auto t = Clock::now();
        Daemon d = startDaemon(config, tenants);
        times.setup.push_back(secondsSince(t));

        const double cpu0 = cpuSeconds();
        LoopResult r = openLoop(d, tenants);
        // Elapsed time is fixed by the offered schedule; the host time
        // of the serving path is what the generator spent in submit()
        // plus the drain.
        times.wall.push_back(r.submit + r.drain);
        times.cpu.push_back(cpuSeconds() - cpu0);
        times.addLatencies(r.latency);
        record(report, d, r);
        stopDaemon(d, config);
    }
    // ops_per_s counts accepted requests only.
    times.opsPerIteration =
        static_cast<double>(report.attempted - report.failed) /
        static_cast<double>(times.wall.size());
    reportEndToEnd(report, times);
    report.config("serve.offered_rate", offeredRate);
    report.config("serve.requests_per_iteration",
                  static_cast<double>(requestsPerIteration));
    report.config("serve.workers", config.workers);
}

void
traced(const Options &opt, Report &report)
{
    const std::vector<Tenant> tenants = makeTenants(opt.seed);
    const ServeConfig config = serveConfig(opt);

    // Reference: one open-loop pass, untraced.
    double untraced = 0.0;
    {
        Daemon d = startDaemon(config, tenants);
        const auto t = Clock::now();
        (void)openLoop(d, tenants);
        untraced = secondsSince(t);
        stopDaemon(d, config);
    }

    Daemon d = startDaemon(config, tenants);
    Tracer tr;
    LoopResult r;
    double live = 0.0;
    {
        Tracer::Scope root(tr, "serve.run");
        const auto t = Clock::now();
        r = openLoop(d, tenants);
        live = secondsSince(t);
        record(report, d, r);

        std::uint64_t walBytes = 0;
        for (const auto &entry : fs::directory_iterator(config.stateDir)) {
            if (entry.path().extension() == ".log")
                walBytes += entry.file_size();
        }
        const ServeTotals totals = d.daemon->totals();
        report.metric("serve.accepted", static_cast<double>(totals.accepted));
        report.metric("serve.completed",
                      static_cast<double>(totals.completed));
        report.metric("serve.epoch_checkpoints",
                      static_cast<double>(totals.epochCheckpoints));
        report.metric("serve.wal_bytes", static_cast<double>(walBytes));
        for (const auto &[name, cls] :
             {std::pair{"backpressure", ShedClass::Backpressure},
              std::pair{"rate_limit", ShedClass::RateLimit},
              std::pair{"quota", ShedClass::Quota}}) {
            report.metric(std::string("serve.shed.") + name,
                          static_cast<double>(
                              totals.shed[static_cast<int>(cls)]));
        }

        // The WAL alone: every request appended and flushed, as
        // submit() does before it acks.
        {
            Tracer::Scope s(tr, "serve.core.request_log.append");
            RequestLogWriter log;
            Status st = log.open(config.stateDir + "/probe.wal",
                                 "perfbench probe");
            for (std::size_t i = 0; st.ok() && i < requestsPerIteration;
                 ++i) {
                const PackedRef ref =
                    tenants[i % numTenants].trace[i / numTenants];
                st = log.append(LogRecord{LogRecordKind::Translate,
                                          refWrite(ref), i / numTenants,
                                          refAddr(ref)});
                if (st.ok())
                    st = log.flush();
            }
            log.close();
            report.check("serve.probe_log", st.ok(), st.toString());
        }

        // The sessions' simulators alone, rebuilt as the daemon builds
        // them; the state digests must match the daemon's.
        {
            Tracer::Scope s(tr, "serve.core.translate");
            bool same = true;
            for (std::size_t k = 0; k < numTenants; ++k) {
                const SessionHandle &h = d.sessions[k];
                ServeSession probe(config, h.id(), h.client(), h.asid(),
                                   tenants[k].footprint, nullptr);
                for (const PackedRef ref : tenants[k].trace)
                    probe.sim->access(refAddr(ref), refWrite(ref));
                same = same && probe.stateDigest() ==
                                   d.daemon->stateDigest(h.id()).value();
            }
            report.check("serve.replay_digest", same,
                         "a replayed session's digest differs from the "
                         "daemon's");
        }
    }
    stopDaemon(d, config);

    const double wall = tr.total("serve.run");
    const double append = tr.total("serve.core.request_log.append");
    const double translate = tr.total("serve.core.translate");
    report.metric("serve.submit_s", r.submit);
    report.metric("serve.generator_wait_s", r.wait);
    report.metric("serve.drain_s", r.drain);
    report.metric("serve.core.request_log.append_s", append);
    report.metric("serve.core.translate_s", translate);
    report.metric("serve.other_s",
                  wall - r.submit - r.wait - r.drain - append - translate);
    report.metric("serve.latency_p99_us",
                  1e6 * percentile(r.latency, 0.99));
    report.metric("serve.generator_lag_p99_us",
                  1e6 * percentile(r.lag, 0.99));
    report.metric("serve.trace.overhead_frac", (live - untraced) / untraced);
    report.config("serve.traced_wall_s", wall);
    report.config("serve.untraced_wall_s", untraced);
    tr.write(opt.workDir + "/spans-serve.jsonl");
}

} // namespace

void
benchServe(const Options &opt, Report &report)
{
    if (opt.mode == "traced")
        traced(opt, report);
    else
        endToEnd(opt, report);
}

} // namespace perfbench
