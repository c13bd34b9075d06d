/**
 * @file
 * Implementation of the shared flag-to-config plumbing.
 */

#include "core/config_args.hh"

#include <algorithm>

#include "core/presets.hh"
#include "collectives/algorithms.hh"
#include "strategies/strategy.hh"
#include "util/logging.hh"

namespace dstrain {

std::optional<StrategyConfig>
parseStrategyName(const std::string &name, int tp, int pp)
{
    const StrategyFactory *factory = Strategy::find(name);
    if (!factory)
        return std::nullopt;
    return factory->configure(tp, pp);
}

std::string
strategyNameHelp()
{
    std::string help;
    for (const std::string &name : Strategy::names()) {
        if (!help.empty())
            help += " | ";
        help += name;
    }
    return help;
}

void
addExperimentOptions(ArgParser &args)
{
    args.addOption("nodes", "1", "number of compute nodes");
    args.addOption(
        "fabric", "single",
        "fabric spec: single | fat-tree[:k=<k>[,oversub=<f>]] | rail "
        "| spine-leaf[:leaves=<L>,spines=<S>] (common keys: "
        "ecmp=on|off, seed=<n>, paths=<n>)");
    args.addOption(
        "nodes-spec", "",
        "heterogeneous node groups "
        "'<count>:gpus=<g>,nics=<n>[,roce=<GBps>][,gpu-mem=<GiB>]"
        "[;...]' (overrides --nodes)");
    args.addOption("strategy", "zero3", strategyNameHelp());
    args.addOption("model", "0",
                   "model size in billions (0 = largest that fits)");
    args.addOption("tp", "0",
                   "tensor-parallel degree (megatron/hybrid/hybrid3d)");
    args.addOption("pp", "0",
                   "pipeline-parallel degree (megatron/hybrid3d)");
    args.addOption("experts", "0",
                   "MoE expert count (moe strategy; 0 = one per GPU)");
    args.addOption(
        "collective-algo", "",
        "collective schedule family: '<algo>' default and/or "
        "'<op>=<algo>' overrides, comma-separated (algos: auto | ring "
        "| pairwise | tree | hierarchical; ops: all-reduce, "
        "reduce-scatter, all-gather, broadcast, reduce, all-to-all); "
        "empty = calibrated ring default");
    args.addOption("batch", "16", "per-GPU batch size");
    args.addOption("iterations", "4", "iterations to simulate");
    args.addOption("placement", "B",
                   "NVMe drive placement (A-G paper, H extension)");
    args.addOption("bucket", "0.1",
                   "telemetry sampling bucket in seconds");
    args.addOption(
        "faults", "",
        "comma-separated fault spec "
        "<kind>@<begin>[+<duration>]:<target>[:<fraction>], e.g. "
        "'degrade@1+0.5:roce:0.4,straggler@0+2:rank3:0.6'");
    args.addOption(
        "checkpoint", "off",
        "checkpoint policy: '<seconds>[s]' interval, '<k>i' "
        "every-k-iterations, or 'off'");
    args.addOption("recovery", "restart",
                   "hard-fault recovery policy: restart | elastic");
    args.addFlag("resilience",
                 "enable degraded-mode network resilience: routing "
                 "reconvergence around dead links, the collective "
                 "progress watchdog and elastic communicator shrink");
    args.addOption("reconverge", "0.002",
                   "routing-reconvergence delay in seconds "
                   "(with --resilience)");
    args.addOption("collective-timeout", "0.025",
                   "collective per-round progress timeout in seconds; "
                   "0 disables the watchdog (with --resilience)");
    args.addFlag("verify-fair-share",
                 "re-solve every fair-share component from scratch "
                 "after each scheduler event and abort on any bitwise "
                 "rate divergence (slow)");
    args.addFlag("no-serdes",
                 "disable the IOD SerDes contention model (ablation)");
}

int
iterationsPastWarmup(int warmup, int iterations)
{
    return iterations >= 1 ? std::max(warmup + 1, iterations) : iterations;
}

ParsedExperiment
experimentFromArgs(const ArgParser &args)
{
    ParsedExperiment out;

    auto strategy = parseStrategyName(
        args.get("strategy"), args.getInt("tp"), args.getInt("pp"));
    if (!strategy) {
        out.errors.push_back(
            {"strategy",
             csprintf("unknown strategy '%s' (expected %s)",
                      args.get("strategy").c_str(),
                      strategyNameHelp().c_str())});
        return out;
    }
    if (strategy->kind == StrategyKind::Moe)
        strategy->experts = args.getInt("experts");
    else if (args.getInt("experts") != 0) {
        out.errors.push_back(
            {"experts", "--experts applies to the moe strategy only"});
        return out;
    }
    // A degree the strategy takes no model parallelism for would be
    // silently ignored: reject it, as --experts is.
    const StrategyFactory &factory = *Strategy::find(args.get("strategy"));
    if (args.getInt("tp") != 0 && !factory.takes_tp) {
        out.errors.push_back(
            {"tp", csprintf("--tp does not apply to the %s strategy "
                            "(no tensor parallelism)",
                            factory.name.c_str())});
    }
    if (args.getInt("pp") != 0 && !factory.takes_pp) {
        out.errors.push_back(
            {"pp", csprintf("--pp does not apply to the %s strategy "
                            "(no pipeline parallelism)",
                            factory.name.c_str())});
    }
    if (!out.errors.empty())
        return out;

    out.config = paperExperiment(args.getInt("nodes"), *strategy,
                                 args.getDouble("model"));
    out.config.batch_per_gpu = args.getInt("batch");
    out.config.iterations = iterationsPastWarmup(
        out.config.warmup, args.getInt("iterations"));

    const std::string placement = args.get("placement");
    if (placement.size() != 1 || placement[0] < 'A' ||
        placement[0] > 'H') {
        out.errors.push_back(
            {"placement", csprintf("'%s' is not a placement letter "
                                   "(A-G paper, H extension)",
                                   placement.c_str())});
    } else {
        out.config.placement = nvmePlacementConfig(placement[0]);
    }

    out.config.cluster.fabric =
        parseFabricSpec(args.get("fabric"), &out.errors);
    if (!args.get("nodes-spec").empty()) {
        out.config.cluster.groups = parseNodesSpec(
            args.get("nodes-spec"), out.config.cluster.node,
            &out.errors);
    }

    if (!args.get("collective-algo").empty()) {
        std::string algo_err;
        const auto spec = parseCollectiveAlgoSpec(
            args.get("collective-algo"), &algo_err);
        if (spec)
            out.config.collective_algos = *spec;
        else
            out.errors.push_back({"collective-algo", algo_err});
    }

    out.config.cluster.node.model_serdes_contention =
        !args.getFlag("no-serdes");
    out.config.telemetry.bucket = args.getDouble("bucket");

    out.config.verify_fair_share = args.getFlag("verify-fair-share");

    if (!args.get("faults").empty())
        out.config.faults =
            parseFaultSpec(args.get("faults"), &out.errors);

    out.config.resilience.enabled = args.getFlag("resilience");
    out.config.resilience.reconvergence_delay =
        args.getDouble("reconverge");
    out.config.resilience.collective_timeout =
        args.getDouble("collective-timeout");

    out.config.recovery.checkpoint =
        parseCheckpointSpec(args.get("checkpoint"), &out.errors);
    if (!parseRecoveryPolicy(args.get("recovery"),
                             &out.config.recovery.policy)) {
        out.errors.push_back(
            {"recovery",
             csprintf("unknown recovery policy '%s' (expected "
                      "restart | elastic)",
                      args.get("recovery").c_str())});
    }

    // Structural validation last; skip anything already reported
    // (parseFaultSpec runs the plan's own validate()).
    for (ConfigError &e : out.config.validate()) {
        const bool dup = std::any_of(
            out.errors.begin(), out.errors.end(),
            [&](const ConfigError &have) {
                return have.field == e.field &&
                       have.message == e.message;
            });
        if (!dup)
            out.errors.push_back(std::move(e));
    }
    return out;
}

} // namespace dstrain
