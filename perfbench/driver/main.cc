/**
 * @file
 * perfbench_driver: runs one pass of a benchmark workload against the
 * dstrain public API and prints JSON lines for perfbench/run.py, which
 * owns the time loop, the output check and the aggregation.
 *
 *   perfbench_driver --workload W --seed N --batch K [--traced]
 *                    [--trace-out PATH]   # one timed pass
 *   perfbench_driver --workload W --seed N --probes [--trace-out PATH]
 *   perfbench_driver --workload W --seed N --list   # the generated keys
 *   perfbench_driver --workload W --menu            # every drawable key
 *   perfbench_driver --workload W --record          # run the menu once
 *
 * Each pass runs in a process of its own, so one pass's memory and a
 * crash stay out of the next. Records (one JSON object per line; "t"
 * names the kind):
 *
 *   exp    one experiment: key, host seconds of Experiment construction
 *          (setup_s), of Experiment::run() (run_s) and of the whole
 *          experiment (wall_s), a hash of its reportFingerprint, and its
 *          simulated outputs.
 *   batch  the pass: host seconds for the whole pass (wall_s), summed
 *          setup and run, layer counters summed over its experiments,
 *          peak resident memory; a traced pass adds per-span totals.
 *   probes the standalone per-layer probes (probes.hh).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "core/report.hh"
#include "engine/trace_export.hh"
#include "probes.hh"
#include "telemetry/summary.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace dstrain;
using namespace perfbench;

namespace {

/** A flat JSON object built field by field. */
class Json
{
  public:
    /** A non-finite @p v is written as null (JSON has no NaN). */
    Json &num(const std::string &key, double v)
    {
        if (!std::isfinite(v))
            return raw(key, "null");
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }

    Json &str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        q += jsonEscape(v);
        q += '"';
        return raw(key, q);
    }

    Json &nums(const std::string &key, const std::map<std::string, double> &m)
    {
        Json o;
        for (const auto &[k, v] : m)
            o.num(k, v);
        return raw(key, o.text());
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    Json &raw(const std::string &key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + key + "\":" + v;
        return *this;
    }

    std::string body_;
};

/** FNV-1a of a report fingerprint: the in-run determinism check. */
std::string
hashOf(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return csprintf("%016llx", static_cast<unsigned long long>(h));
}

/** Lower-case, dash-free link class name for output keys. */
std::string
classKey(LinkClass cls)
{
    std::string out;
    for (const char *p = linkClassName(cls); *p; ++p)
        if (std::isalnum(static_cast<unsigned char>(*p)))
            out += static_cast<char>(std::tolower(*p));
    return out;
}

/** The simulated outputs checked against the recorded ones. */
std::map<std::string, double>
outputsOf(const ExperimentReport &r)
{
    std::map<std::string, double> out;
    out["model_b"] = r.model.billions;
    out["iter_s"] = r.iteration_time;
    out["tflops"] = r.tflops;
    out["window_end"] = r.execution.measured_end;
    const std::vector<LinkClass> &classes = tableIvClasses();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        out["bw." + classKey(classes[i])] = r.bandwidth.per_class[i].avg;
        if (classes[i] == LinkClass::Roce)
            out["bw.roce.peak"] = r.bandwidth.per_class[i].peak;
    }
    double fabric = 0.0;
    for (const CollectiveUsage &u : r.collectives)
        fabric += u.fabric_bytes;
    out["coll_fabric_bytes"] = fabric;
    if (r.recovery.active)
        out["goodput_tflops"] = r.recovery.goodput_tflops;
    return out;
}

/** Layer counters of one experiment, read from public stats. */
void
addCounters(Experiment &exp, const ExperimentReport &r,
            std::map<std::string, double> &c)
{
    const FlowScheduler::Stats &s = r.scheduler;
    const TransferManager::Stats &t = exp.transfers().stats();
    c["events"] += static_cast<double>(exp.sim().events().executedCount());
    c["transfers"] += t.started;
    c["reroutes"] += t.reroutes;
    c["bytes_aborted"] += t.bytes_aborted;
    c["solves"] += s.recomputes;
    c["fast_starts"] += s.fast_starts;
    c["fast_finishes"] += s.fast_finishes;
    c["index_updates"] += s.completion_index_updates;
    c["region_solves"] += s.region_solves;
    c["region_flows"] += s.region_flows;
    c["region_peak"] = std::max(c["region_peak"],
                                static_cast<double>(s.region_peak));
    c["rate_updates"] += s.rate_updates;
    c["capacity_updates"] += s.capacity_updates;
    c["cancels"] += s.cancels;
    c["stalled_parks"] += s.stalled_parks;
    c["batched_events"] += s.batched_events;
    for (const CollectiveUsage &u : r.collectives) {
        c["coll_invocations"] += u.invocations;
        c["coll_fabric_bytes"] += u.fabric_bytes;
    }
    c["spans"] += r.execution.spans.size();
    c["deposits"] += r.telemetry.buckets_touched;
    c["stream_buckets"] += r.telemetry.stream_buckets;
    c["telemetry_bytes"] += r.telemetry.memory_bytes;
    c["fault_impacts"] += r.faults.size();
    c["route_invalidations"] += r.resilience.route_invalidations;
    c["reconvergence_waits"] += r.resilience.reconvergence_waits;
    c["collective_timeouts"] += r.resilience.collective_timeouts;
    c["checkpoints"] += r.recovery.checkpoints;
    c["recoveries"] += r.recovery.recoveries;
    c["lost_iterations"] += r.recovery.lost_iterations;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One pass over the workload: an exp record per point, then the
 * batch record. */
void
runBatch(const Workload &w, int batch, bool traced, Tracer &tracer)
{
    tracer.setEnabled(traced);
    const std::size_t first_span = tracer.size();
    std::vector<std::string> lines;
    std::map<std::string, double> counters;
    std::map<std::string, std::pair<double, double>> windows;
    double setup_total = 0.0;
    double run_total = 0.0;
    double untimed = 0.0;  // traced-only re-probes, kept out of wall_s

    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Span batch_span(tracer, "batch");
        for (const Point &p : w.points) {
            Tracer::Span exp_span(tracer, "experiment");
            const Clock::time_point te = Clock::now();
            double probe_s = 0.0;
            Json rec;
            rec.str("t", "exp").num("batch", batch).num("traced", traced)
                .str("key", p.key);
            try {
                ExperimentConfig cfg = p.config;
                if (!p.faults.empty()) {
                    const auto window =
                        p.base.empty() ? p.window : windows.at(p.base);
                    cfg.faults = placeFaults(p.faults, window.first,
                                             window.second);
                }
                std::unique_ptr<Experiment> exp;
                double setup_s = 0.0;
                {
                    Tracer::Span s(tracer, "core.setup");
                    const Clock::time_point ts = Clock::now();
                    exp = std::make_unique<Experiment>(cfg);
                    setup_s = secondsSince(ts);
                }

                ExperimentReport report;
                const Clock::time_point tr = Clock::now();
                {
                    Tracer::Span s(tracer, "engine.run");
                    report = exp->run();
                }
                const double run_s = secondsSince(tr);

                std::string fingerprint;
                {
                    Tracer::Span s(tracer, "core.fingerprint");
                    fingerprint = reportFingerprint(report);
                }
                if (traced) {
                    const Clock::time_point tp = Clock::now();
                    Tracer::Span s(tracer, "telemetry.probe");
                    measureBandwidthRow(
                        p.key, exp->cluster().topology(),
                        report.execution.measured_begin,
                        report.execution.measured_end,
                        exp->config().telemetry.bucket);
                    probe_s = secondsSince(tp);
                    untimed += probe_s;
                }

                const TransferManager::Stats &t = exp->transfers().stats();
                const bool conserved =
                    t.conservation_violations == 0 &&
                    std::abs(t.bytes_requested - t.bytes_delivered -
                             t.bytes_aborted) <=
                        1e-9 * t.bytes_requested + 1.0;
                const std::map<std::string, double> outputs =
                    outputsOf(report);
                const bool finite = std::all_of(
                    outputs.begin(), outputs.end(),
                    [](const auto &kv) { return std::isfinite(kv.second); });
                windows[p.key] = {report.execution.measured_begin,
                                  report.execution.measured_end};
                addCounters(*exp, report, counters);
                setup_total += setup_s;
                run_total += run_s;
                rec.num("ok", conserved && finite)
                    .str("error", !conserved ? "byte conservation"
                                  : !finite  ? "non-finite output"
                                             : "")
                    .num("setup_s", setup_s)
                    .num("run_s", run_s)
                    .str("fp", hashOf(fingerprint))
                    .nums("out", outputs);
            } catch (const std::exception &e) {
                rec.num("ok", 0).str("error", e.what());
            }
            rec.num("wall_s", secondsSince(te) - probe_s);
            lines.push_back(rec.text());
        }
    }
    const double wall = secondsSince(t0) - untimed;

    for (const std::string &line : lines)
        std::cout << line << "\n";
    Json rec;
    rec.str("t", "batch").num("batch", batch).num("traced", traced)
        .num("wall_s", wall).num("setup_s", setup_total)
        .num("run_s", run_total).num("peak_rss_mb", peakRssMb())
        .nums("counters", counters);
    if (traced)
        rec.nums("spans", tracer.totals(first_span));
    std::cout << rec.text() << std::endl;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    std::string mode;  // batch | probes | list | menu | record
    int batch = 0;
    bool traced = false;
    std::string trace_out;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--list" || flag == "--menu" || flag == "--record" ||
            flag == "--probes") {
            a.mode = flag.substr(2);
        } else if (flag == "--traced") {
            a.traced = true;
        } else if (flag == "--batch" && has_value) {
            a.mode = "batch";
            a.batch = std::atoi(argv[++i]);
        } else if (flag == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (flag == "--seed" && has_value) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--trace-out" && has_value) {
            a.trace_out = argv[++i];
        } else {
            std::cerr << "perfbench_driver: bad argument '" << flag << "'\n";
            return false;
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
        std::cerr << "perfbench_driver: unknown workload '" << a.workload
                  << "'\n";
        return false;
    }
    if (a.mode.empty()) {
        std::cerr << "perfbench_driver: give --batch, --probes, --list, "
                     "--menu or --record\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return 2;
    setLogLevel(LogLevel::Silent);

    const Workload w = args.mode == "menu" || args.mode == "record"
                           ? menuOf(args.workload)
                           : makeWorkload(args.workload, args.seed);
    Tracer tracer;
    if (args.mode == "list" || args.mode == "menu") {
        for (const Point &p : w.points)
            std::cout << Json().str("t", "point").str("key", p.key).text()
                      << "\n";
    } else if (args.mode == "record") {
        runBatch(w, 0, false, tracer);
    } else if (args.mode == "batch") {
        runBatch(w, args.batch, args.traced, tracer);
    } else {
        tracer.setEnabled(true);
        std::cout << Json().str("t", "probes")
                         .nums("metrics", runProbes(w, tracer))
                         .text()
                  << std::endl;
    }
    if (!args.trace_out.empty() && !tracer.writeChrome(args.trace_out)) {
        std::cerr << "perfbench_driver: cannot write " << args.trace_out
                  << "\n";
        return 1;
    }
    return 0;
}
