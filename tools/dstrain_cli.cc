/**
 * @file
 * The dstrain command-line tool: run one simulated training
 * experiment from flags and print (or export) the paper-style
 * metrics. The scriptable face of the library.
 *
 *   dstrain --nodes 2 --strategy zero3 --model 6.6
 *   dstrain --strategy zero2-cpu --model 11.4 --energy
 *   dstrain --strategy zero3-nvme --placement G --trace out.json
 *   dstrain --strategy megatron --tp 4 --csv
 *   dstrain --nodes 2 --faults 'degrade@2+1:roce:0.25'
 *
 * The `sweep` subcommand runs a whole family of configurations
 * through the parallel SweepRunner:
 *
 *   dstrain sweep --nodes 1,2 --strategies zero1,zero2,zero3 --jobs 4
 *   dstrain sweep --strategies all --jobs 8 --csv
 *
 * The `faults` subcommand is a guided demo of the fault-injection
 * subsystem: it runs the same experiment clean and faulted and
 * prints the per-link impact table plus the RoCE rate sparkline.
 *
 *   dstrain faults
 *   dstrain faults --spec 'flap@2+0.3:roce/n1' --nodes 2
 *
 * The `recovery` subcommand demos checkpoint/restore under hard
 * failures: the same experiment clean, checkpointed, and
 * checkpointed with a nodedown, with the goodput table.
 *
 *   dstrain recovery
 *   dstrain recovery --checkpoint 2i --policy elastic
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/config_args.hh"
#include "core/energy.hh"
#include "core/presets.hh"
#include "strategies/strategy.hh"
#include "core/report.hh"
#include "core/sweep_runner.hh"
#include "telemetry/probe.hh"
#include "telemetry/timeline.hh"
#include "engine/trace_export.hh"
#include "util/args.hh"
#include "util/logging.hh"

namespace dstrain {
namespace {

/** Print each config error on its own line to stderr. */
void
printConfigErrors(const std::vector<ConfigError> &errors)
{
    std::fprintf(stderr, "dstrain: invalid configuration:\n%s\n",
                 formatConfigErrors(errors).c_str());
}

/** Split a comma-separated list, skipping empty items. */
std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> items;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/** The `sweep --strategies all` lineup: every registered name. */
std::string
allStrategiesCsv()
{
    std::string csv;
    for (const std::string &name : Strategy::names()) {
        if (!csv.empty())
            csv += ",";
        csv += name;
    }
    return csv;
}

int
runSweep(int argc, const char *const *argv)
{
    ArgParser args(
        "dstrain sweep",
        "run a family of experiments through the parallel sweep "
        "runner");
    args.addOption("nodes", "1", "comma-separated node counts");
    args.addOption(
        "strategies", "ddp,megatron,zero1,zero2,zero3",
        "comma-separated strategy names (see the single-run help), "
        "or 'all'");
    args.addOption("model", "0",
                   "model size in billions (0 = largest that fits)");
    args.addOption("batch", "16", "per-GPU batch size");
    args.addOption("iterations", "4", "iterations to simulate");
    args.addOption(
        "faults", "",
        "fault spec applied to every sweep point (see dstrain --help)");
    args.addOption("jobs", "0",
                   "worker threads (0 = one per hardware thread)");
    args.addFlag("csv", "emit the bandwidth rows as CSV");
    args.addFlag("quiet", "suppress the progress ticker");
    if (!args.parse(argc, argv))
        return 1;

    std::string strategy_csv = args.get("strategies");
    if (strategy_csv == "all")
        strategy_csv = allStrategiesCsv();

    FaultPlan faults;
    if (!args.get("faults").empty()) {
        std::vector<ConfigError> errors;
        faults = parseFaultSpec(args.get("faults"), &errors);
        if (!errors.empty()) {
            printConfigErrors(errors);
            return 1;
        }
    }

    std::vector<ExperimentConfig> configs;
    std::vector<std::string> names;
    for (const std::string &nodes_str : splitList(args.get("nodes"))) {
        const int nodes = std::atoi(nodes_str.c_str());
        if (nodes < 1) {
            std::fprintf(stderr, "dstrain: bad node count '%s'\n",
                         nodes_str.c_str());
            return 1;
        }
        for (const std::string &name : splitList(strategy_csv)) {
            const auto strategy = parseStrategyName(name);
            if (!strategy) {
                std::fprintf(stderr,
                             "dstrain: unknown strategy '%s'\n%s",
                             name.c_str(), args.helpText().c_str());
                return 1;
            }
            ExperimentConfig cfg = paperExperiment(
                nodes, *strategy, args.getDouble("model"));
            cfg.batch_per_gpu = args.getInt("batch");
            cfg.iterations =
                iterationsPastWarmup(cfg.warmup, args.getInt("iterations"));
            cfg.faults = faults;
            names.push_back(csprintf("%dn %s", nodes,
                                     strategy->displayName().c_str()));
            configs.push_back(std::move(cfg));
        }
    }
    if (configs.empty()) {
        std::fprintf(stderr, "dstrain: empty sweep\n");
        return 1;
    }
    // Validate every point before the first one runs, so a bad value
    // exits here instead of aborting the sweep mid-run.
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::vector<ConfigError> errors = configs[i].validate();
        if (!errors.empty()) {
            std::fprintf(stderr, "dstrain: sweep point '%s':\n",
                         names[i].c_str());
            printConfigErrors(errors);
            return 1;
        }
    }

    const bool quiet = args.getFlag("quiet");
    SweepRunner runner(args.getInt("jobs"));
    inform("sweep: %zu points on %d worker(s)", configs.size(),
           runner.jobs());
    const std::vector<ExperimentReport> reports = runner.run(
        std::move(configs),
        [&](std::size_t done, std::size_t total, std::size_t index) {
            if (!quiet) {
                inform("sweep: [%zu/%zu] %s", done, total,
                       names[index].c_str());
            }
        });

    std::cout << comparisonTable(reports) << "\n"
              << compositionTable(reports) << "\n";

    TextTable bw = makeBandwidthTable();
    for (std::size_t i = 0; i < reports.size(); ++i) {
        BandwidthRow row = reports[i].bandwidth;
        row.config = names[i];
        addBandwidthRow(bw, row);
    }
    if (args.getFlag("csv")) {
        std::cout << bw.renderCsv();
    } else {
        bw.setTitle(
            "Aggregate bidirectional per-node bandwidth (GBps):");
        std::cout << bw;
    }
    return 0;
}

int
runFaultsDemo(int argc, const char *const *argv)
{
    ArgParser args(
        "dstrain faults",
        "fault-injection demo: run the same experiment clean and "
        "faulted, print the per-link impact");
    args.addOption("nodes", "2", "number of compute nodes");
    args.addOption("strategy", "zero3", strategyNameHelp());
    args.addOption("model", "0",
                   "model size in billions (0 = largest that fits)");
    args.addOption("iterations", "6", "iterations to simulate");
    args.addOption(
        "spec", "degrade@2+1.5:roce:0.25",
        "fault spec <kind>@<begin>[+<duration>]:<target>[:<fraction>]; "
        "kinds: degrade, flap, nicdown, straggler, nvme");
    if (!args.parse(argc, argv))
        return 1;

    const auto strategy = parseStrategyName(args.get("strategy"));
    if (!strategy) {
        std::fprintf(stderr, "dstrain: unknown strategy '%s'\n%s",
                     args.get("strategy").c_str(),
                     args.helpText().c_str());
        return 1;
    }

    std::vector<ConfigError> errors;
    FaultPlan plan = parseFaultSpec(args.get("spec"), &errors);
    if (!errors.empty()) {
        printConfigErrors(errors);
        return 1;
    }

    ExperimentConfig cfg = paperExperiment(
        args.getInt("nodes"), *strategy, args.getDouble("model"));
    cfg.iterations =
        iterationsPastWarmup(cfg.warmup, args.getInt("iterations"));
    errors = cfg.validate();
    if (!errors.empty()) {
        printConfigErrors(errors);
        return 1;
    }

    inform("faults: clean run...");
    const ExperimentReport clean = runExperiment(cfg);

    // Fault begin times are absolute simulation seconds; unless the
    // user pinned a spec, aim the default fault at the middle of the
    // measured window the clean run just revealed.
    if (!args.provided("spec")) {
        const SimTime b = clean.execution.measured_begin;
        const SimTime w = clean.execution.measured_end - b;
        plan.events[0].begin = b + 0.3 * w;
        plan.events[0].duration = 0.3 * w;
    }

    inform("faults: faulted run (%s)...", plan.str().c_str());
    cfg.faults = plan;
    Experiment faulted(std::move(cfg));
    const ExperimentReport report = faulted.run();

    std::cout << "\nclean:   " << summarizeReport(clean)
              << "\nfaulted: " << summarizeReport(report) << "\n\n";

    TextTable impact = faultImpactTable(report);
    impact.setTitle("Per-fault impact:");
    std::cout << impact << "\n";

    // The Fig. 4-style view: per-node RoCE rate over the measured
    // window, so the degraded stretch is visible at a glance.
    const SimTime begin = report.execution.measured_begin;
    const SimTime end = report.execution.measured_end;
    for (int n = 0; n < faulted.cluster().nodeCount(); ++n) {
        const BandwidthSeries series = probeClassBandwidth(
            faulted.cluster().topology(), LinkClass::Roce, begin, end,
            faulted.config().telemetry.bucket, n);
        std::cout << csprintf("n%d roce |", n)
                  << sparkline(series.values) << "|\n";
    }
    std::cout << csprintf(
        "          %s .. %s (reroutes: %llu)\n",
        formatTime(begin).c_str(), formatTime(end).c_str(),
        static_cast<unsigned long long>(
            faulted.transfers().rerouteCount()));
    return 0;
}

int
runRecoveryDemo(int argc, const char *const *argv)
{
    ArgParser args(
        "dstrain recovery",
        "checkpoint/restore demo: run the same experiment clean, "
        "checkpointed, and checkpointed under a hard failure; print "
        "the goodput/recovery table");
    args.addOption("nodes", "2", "number of compute nodes");
    args.addOption("strategy", "zero3", strategyNameHelp());
    args.addOption("model", "0",
                   "model size in billions (0 = largest that fits)");
    args.addOption("iterations", "8", "iterations to simulate");
    args.addOption("checkpoint", "2i",
                   "checkpoint policy: '<seconds>[s]', '<k>i'");
    args.addOption("policy", "restart",
                   "recovery policy: restart | elastic");
    args.addOption(
        "fault", "nodedown@0:n1",
        "hard-fault spec (aimed at mid-window unless provided)");
    if (!args.parse(argc, argv))
        return 1;

    const auto strategy = parseStrategyName(args.get("strategy"));
    if (!strategy) {
        std::fprintf(stderr, "dstrain: unknown strategy '%s'\n%s",
                     args.get("strategy").c_str(),
                     args.helpText().c_str());
        return 1;
    }

    std::vector<ConfigError> errors;
    const CheckpointPolicy ckpt =
        parseCheckpointSpec(args.get("checkpoint"), &errors);
    RecoveryPolicyKind policy = RecoveryPolicyKind::Restart;
    if (!parseRecoveryPolicy(args.get("policy"), &policy)) {
        errors.push_back(
            {"policy", csprintf("unknown recovery policy '%s'",
                                args.get("policy").c_str())});
    }
    FaultPlan plan = parseFaultSpec(args.get("fault"), &errors);
    if (!errors.empty()) {
        printConfigErrors(errors);
        return 1;
    }

    ExperimentConfig cfg = paperExperiment(
        args.getInt("nodes"), *strategy, args.getDouble("model"));
    cfg.iterations =
        iterationsPastWarmup(cfg.warmup, args.getInt("iterations"));
    ExperimentConfig ckpt_cfg = cfg;
    ckpt_cfg.recovery.checkpoint = ckpt;
    ExperimentConfig fault_cfg = ckpt_cfg;
    fault_cfg.recovery.policy = policy;
    fault_cfg.faults = std::move(plan);
    // Validate all three runs before the first one starts; aiming
    // the fault below moves only its begin time, never its validity.
    for (const ExperimentConfig *c : {&cfg, &ckpt_cfg, &fault_cfg}) {
        errors = c->validate();
        if (!errors.empty()) {
            printConfigErrors(errors);
            return 1;
        }
    }

    inform("recovery: clean run...");
    const ExperimentReport clean = runExperiment(cfg);

    inform("recovery: checkpointed run (policy %s)...",
           ckpt.str().c_str());
    const ExperimentReport checkpointed = runExperiment(ckpt_cfg);

    // Aim the default fault at the middle of the measured window the
    // clean run just revealed (begin times are absolute seconds).
    if (!args.provided("fault")) {
        const SimTime b = clean.execution.measured_begin;
        fault_cfg.faults.events[0].begin =
            b + 0.5 * (clean.execution.measured_end - b);
    }

    inform("recovery: faulted run (%s, %s policy)...",
           fault_cfg.faults.str().c_str(), recoveryPolicyName(policy));
    const ExperimentReport recovered = runExperiment(fault_cfg);

    std::cout << "\nclean:        " << summarizeReport(clean)
              << "\ncheckpointed: " << summarizeReport(checkpointed)
              << "\nrecovered:    " << summarizeReport(recovered)
              << "\n\n";
    TextTable table = recoveryTable({clean, checkpointed, recovered});
    table.setTitle("Goodput under failures:");
    std::cout << table << "\n"
              << "recovered:    " << summarizeRecovery(recovered.recovery)
              << "\n";
    return 0;
}

int
runCli(int argc, const char *const *argv)
{
    ArgParser args(
        "dstrain",
        "simulate distributed LLM training on a configurable GPU "
        "cluster (default: XE8545 nodes behind one switch)");
    addExperimentOptions(args);
    args.addOption("trace", "",
                   "write a chrome://tracing JSON of the final "
                   "iteration to this path");
    args.addFlag("telemetry-stats",
                 "print the telemetry-engine and flow-scheduler "
                 "counters");
    args.addFlag("csv", "emit the bandwidth row as CSV");
    args.addFlag("energy", "print the energy-model estimate");
    args.addFlag("timeline", "print the ASCII iteration timeline");
    if (!args.parse(argc, argv))
        return 1;

    ParsedExperiment parsed = experimentFromArgs(args);
    if (!parsed.ok()) {
        printConfigErrors(parsed.errors);
        return 1;
    }

    // A trace path that cannot be written fails before the run, not
    // after it: a trace asked for must not be silently lost.
    const std::string trace = args.get("trace");
    if (!trace.empty() && !std::ofstream(trace))
        fatal("cannot open '%s' for trace export", trace.c_str());

    Experiment experiment(std::move(parsed.config));
    const ExperimentReport report = experiment.run();
    const ExperimentConfig &used = experiment.config();

    std::cout << summarizeReport(report) << "\n\n"
              << compositionTable({report}) << "\n";

    if (args.getFlag("csv")) {
        TextTable bw = makeBandwidthTable();
        addBandwidthRow(bw, report.bandwidth);
        std::cout << bw.renderCsv();
    } else {
        TextTable bw = makeBandwidthTable();
        addBandwidthRow(bw, report.bandwidth);
        bw.setTitle(
            "Aggregate bidirectional per-node bandwidth (GBps):");
        std::cout << bw;
    }

    if (!report.collectives.empty()) {
        TextTable usage = collectiveUsageTable(report);
        usage.setTitle("Collective usage:");
        std::cout << "\n" << usage;
    }

    if (!report.faults.empty()) {
        TextTable impact = faultImpactTable(report);
        impact.setTitle("Per-fault impact:");
        std::cout << "\n" << impact;
    }

    if (report.recovery.active) {
        std::cout << "\nrecovery: " << summarizeRecovery(report.recovery)
                  << "\n";
    }

    if (report.resilience.any())
        std::cout << "\n" << summarizeResilience(report.resilience)
                  << "\n";

    if (args.getFlag("telemetry-stats")) {
        std::cout << "\n" << summarizeTelemetry(report.telemetry) << "\n"
                  << summarizeScheduler(
                         report.scheduler,
                         experiment.transfers().stats().started)
                  << "\n";
    }

    const auto &ends = report.execution.iteration_ends;
    const SimTime last_begin = ends[ends.size() - 2];
    if (args.getFlag("timeline")) {
        std::cout << "\n"
                  << renderTimeline(report.execution.spans,
                                    used.cluster.totalGpus(),
                                    last_begin,
                                    report.execution.measured_end);
    }
    if (args.getFlag("energy")) {
        std::cout << "\nEnergy: "
                  << summarizeEnergy(estimateEnergy(report, used))
                  << "\n";
    }
    if (!trace.empty()) {
        TraceOptions topts;
        topts.begin = last_begin;
        topts.end = report.execution.measured_end;
        if (!writeChromeTrace(trace, report.execution.spans, topts))
            fatal("writing the trace to '%s' failed", trace.c_str());
        std::cout << "\ntrace written to " << trace
                  << " (open in chrome://tracing)\n";
    }
    return 0;
}

} // namespace
} // namespace dstrain

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "sweep")
        return dstrain::runSweep(argc - 1, argv + 1);
    if (argc > 1 && std::string(argv[1]) == "faults")
        return dstrain::runFaultsDemo(argc - 1, argv + 1);
    if (argc > 1 && std::string(argv[1]) == "recovery")
        return dstrain::runRecoveryDemo(argc - 1, argv + 1);
    return dstrain::runCli(argc, argv);
}
