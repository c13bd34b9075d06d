/**
 * @file
 * Implementation of the experiment facade.
 */

#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "model/flops.hh"
#include "util/logging.hh"

namespace dstrain {

namespace {

/**
 * Per-fault iteration-time delta: mean length of measured iterations
 * overlapping the fault window over the mean of clean ones.
 */
void
fillIterationSlowdowns(const IterationResult &ex,
                       std::vector<FaultImpact> &faults)
{
    for (FaultImpact &im : faults) {
        const SimTime f0 = im.applied_at;
        const SimTime f1 =
            im.restored ? im.restored_at : ex.measured_end;
        double dirty_sum = 0.0;
        double clean_sum = 0.0;
        int dirty_n = 0;
        int clean_n = 0;
        SimTime begin = 0.0;
        for (SimTime end : ex.iteration_ends) {
            const SimTime start = begin;
            begin = end;
            if (start < ex.measured_begin)
                continue;  // warm-up iteration
            if (start < f1 && end > f0) {
                dirty_sum += end - start;
                ++dirty_n;
            } else {
                clean_sum += end - start;
                ++clean_n;
            }
        }
        if (dirty_n > 0 && clean_n > 0) {
            im.iteration_slowdown =
                (dirty_sum / dirty_n) / (clean_sum / clean_n);
        }
    }
}

/**
 * The spec of the cluster shrunk to the surviving nodes (the elastic
 * recovery path). Group-aware: a dead node shrinks the group that
 * owned it, so the survivors keep their own hardware.
 */
ClusterSpec
degradedSpec(const ClusterSpec &full, const std::vector<bool> &alive)
{
    ClusterSpec degraded = full;
    if (degraded.groups.empty()) {
        degraded.nodes = 0;
        for (const bool a : alive)
            degraded.nodes += a ? 1 : 0;
        return degraded;
    }
    for (std::size_t n = 0; n < alive.size(); ++n) {
        if (alive[n])
            continue;
        // Walk the dead node to its owning group in the *full* spec
        // (indices there are stable) and shrink the degraded copy.
        int rest = static_cast<int>(n);
        for (std::size_t gi = 0; gi < full.groups.size(); ++gi) {
            if (rest < full.groups[gi].count) {
                degraded.groups[gi].count -= 1;
                break;
            }
            rest -= full.groups[gi].count;
        }
    }
    return degraded;
}

} // namespace

std::vector<ConfigError>
ExperimentConfig::validate() const
{
    std::vector<ConfigError> errors;
    // Count nodes in 64 bits: group counts near INT_MAX would
    // overflow ClusterSpec::nodeCount(), and every check below that
    // multiplies nodes by GPUs needs a bounded shape.
    std::int64_t nodes = cluster.nodes;
    if (!cluster.groups.empty()) {
        nodes = 0;
        for (const NodeGroup &g : cluster.groups)
            nodes += std::max(g.count, 0);
    }
    bool bounded = nodes <= kMaxClusterNodes;
    if (nodes < 1)
        errors.push_back({"cluster.nodes", "must be >= 1"});
    else if (!bounded)
        errors.push_back(
            {"cluster.nodes",
             csprintf("must be <= %d (got %lld)", kMaxClusterNodes,
                      static_cast<long long>(nodes))});
    if (cluster.groups.empty()) {
        if (cluster.node.gpus < 1 || cluster.node.gpus > kMaxNodeDevices)
            errors.push_back(
                {"cluster.node.gpus",
                 csprintf("must be in [1, %d]", kMaxNodeDevices)});
        bounded = bounded && cluster.node.gpus <= kMaxNodeDevices;
    }
    for (std::size_t i = 0; i < cluster.groups.size(); ++i) {
        const NodeGroup &g = cluster.groups[i];
        if (g.count < 1 || g.node.gpus < 1 || g.node.nics < 1 ||
            g.node.gpus > kMaxNodeDevices ||
            g.node.nics > kMaxNodeDevices) {
            errors.push_back(
                {csprintf("cluster.groups[%zu]", i),
                 csprintf("needs count >= 1 and gpus, nics in [1, %d]",
                          kMaxNodeDevices)});
            bounded = false;
        }
        const double roce = g.node.roce_per_dir / units::GBps;
        if (!(roce >= kMinRoceGBps && roce <= kMaxRoceGBps &&
              std::isfinite(g.node.gpu_memory) &&
              g.node.gpu_memory > 0.0)) {
            errors.push_back(
                {csprintf("cluster.groups[%zu]", i),
                 csprintf("needs roce in [%g, %g] GBps and a finite, "
                          "positive gpu-mem",
                          kMinRoceGBps, kMaxRoceGBps)});
        }
    }
    for (ConfigError &e : cluster.fabric.validate())
        errors.push_back(std::move(e));
    // Group shapes the strategies would otherwise assert on.
    const int gpus = bounded ? cluster.totalGpus() : 0;
    if (gpus >= 1) {
        const int mp = strategy.modelParallelSize();
        if (mp < 1 || gpus % mp != 0)
            errors.push_back(
                {"strategy",
                 csprintf("model-parallel size %d (TP=%d x PP=%d) does "
                          "not divide the %d GPUs",
                          mp, strategy.tensor_parallel,
                          strategy.pipeline_parallel, gpus)});
        if (strategy.kind == StrategyKind::Moe && strategy.experts > 0) {
            // MoeStrategy::expertParallelSize's rule.
            const int ep = std::min(strategy.experts, gpus);
            if (gpus % ep != 0)
                errors.push_back(
                    {"strategy.experts",
                     csprintf("expert-parallel size %d does not divide "
                              "the %d GPUs",
                              ep, gpus)});
        }
    }
    if (!std::isfinite(model_billions) || model_billions < 0.0)
        errors.push_back({"model_billions",
                          "must be finite and >= 0 (0 = largest that "
                          "fits)"});
    if (batch_per_gpu < 1 || batch_per_gpu > kMaxBatchPerGpu)
        errors.push_back(
            {"batch_per_gpu",
             csprintf("must be in [1, %d]", kMaxBatchPerGpu)});
    if (iterations < 1 || iterations > kMaxIterations)
        errors.push_back(
            {"iterations",
             csprintf("must be in [1, %d]", kMaxIterations)});
    if (warmup < 0)
        errors.push_back({"warmup", "must be >= 0"});
    else if (iterations >= 1 && warmup >= iterations)
        errors.push_back(
            {"warmup", csprintf("must be < iterations (%d >= %d)",
                                warmup, iterations)});
    if (!std::isfinite(telemetry.bucket) ||
        telemetry.bucket < kMinTelemetryBucket)
        errors.push_back(
            {"telemetry.bucket",
             csprintf("must be finite and >= %g s (got %g)",
                      kMinTelemetryBucket, telemetry.bucket)});
    for (ConfigError &e : faults.validate())
        errors.push_back(std::move(e));
    for (ConfigError &e :
         recovery.validate(faults, bounded ? cluster.nodeCount() : 1))
        errors.push_back(std::move(e));
    for (ConfigError &e : resilience.validate())
        errors.push_back(std::move(e));
    return errors;
}

Experiment::Experiment(ExperimentConfig cfg)
    : cfg_(std::move(cfg))
{
    validateStrategy(cfg_.strategy);

    // NVMe strategies must train against the configured placement's
    // drives; install them into the node spec before building.
    // Checkpoints write to the same volumes, so a checkpoint policy
    // also needs the drives installed.
    if (cfg_.strategy.offload == OffloadTarget::Nvme ||
        cfg_.recovery.checkpoint.enabled()) {
        applyPlacement(cfg_.placement, cfg_.cluster.node);
        for (NodeGroup &g : cfg_.cluster.groups)
            applyPlacement(cfg_.placement, g.node);
    }

    // Resolve the model size.
    if (cfg_.model_billions > 0.0) {
        model_ = ladderEntryFor(cfg_.model_billions);
        if (!fitsCluster(TransformerConfig::gpt2Like(model_.layers),
                         cfg_.strategy, cfg_.cluster, cfg_.batch_per_gpu,
                         cfg_.memory_cal)) {
            warn("%s cannot fit %.1fB on this cluster per the memory "
                 "model; simulating anyway (throughput study)",
                 cfg_.strategy.displayName().c_str(), model_.billions);
        }
    } else {
        model_ = solveMaxModel(cfg_.strategy, cfg_.cluster,
                               cfg_.batch_per_gpu, cfg_.memory_cal)
                     .entry;
    }

    sim_ = std::make_unique<Simulation>();
    cluster_ = std::make_unique<Cluster>(cfg_.cluster);
    flows_ = std::make_unique<FlowScheduler>(
        *sim_, cluster_->topology(),
        FlowSchedulerOptions{cfg_.verify_fair_share});
    tm_ = std::make_unique<TransferManager>(*sim_, *cluster_, *flows_);
    coll_ = std::make_unique<CollectiveEngine>(*tm_);
    coll_->setAlgoSpec(cfg_.collective_algos);
    aio_ = std::make_unique<AioEngine>(*tm_);
    executor_ = std::make_unique<Executor>(*sim_, *cluster_, *flows_,
                                           *tm_, *coll_, *aio_,
                                           cfg_.engine_cal);
    executor_->configureStorage(cfg_.placement);
    executor_->configureTelemetry(cfg_.telemetry);
    if (!cfg_.faults.empty()) {
        injector_ = std::make_unique<FaultInjector>(
            *sim_, *cluster_, *flows_, *tm_, *executor_, *aio_,
            cfg_.faults);
    }
    if (cfg_.resilience.enabled) {
        // Degraded mode: routes avoid dead links after the
        // reconvergence window, transfers defer reroute scans to the
        // window's close, collectives get the progress watchdog and
        // the degraded-schedule fallback.
        cluster_->router().setAvoidDeadLinks(true);
        resilience_ = std::make_unique<ResilienceCoordinator>(
            *sim_, cluster_->router(), cfg_.resilience);
        tm_->setResilience(resilience_.get());
        coll_->configureResilience(resilience_.get());
        if (injector_)
            injector_->setResilience(resilience_.get());
    }
    if (cfg_.recovery.checkpoint.enabled() ||
        hasHardFaults(cfg_.faults)) {
        rm_ = std::make_unique<RecoveryManager>(*sim_, *cluster_, *tm_,
                                                *executor_, cfg_.recovery);
        if (injector_)
            rm_->attachInjector(*injector_);
        if (resilience_ &&
            cfg_.recovery.policy == RecoveryPolicyKind::Elastic) {
            rm_->setCommShrinkHook(
                [this](const std::vector<int> &dead_ranks) {
                    coll_->markRanksDead(dead_ranks);
                });
        }
    }
}

Experiment::~Experiment() = default;

ExperimentReport
Experiment::run()
{
    DSTRAIN_ASSERT(!ran_, "Experiment::run() called twice");
    ran_ = true;

    const std::vector<ConfigError> errors = cfg_.validate();
    if (!errors.empty())
        panic("invalid experiment config:\n%s",
              formatConfigErrors(errors).c_str());

    const TransformerConfig model_cfg =
        TransformerConfig::gpt2Like(model_.layers);

    PlanContext ctx{*cluster_, model_cfg, cfg_.batch_per_gpu,
                    cfg_.placement, cfg_.tuning};
    std::unique_ptr<Strategy> strategy =
        Strategy::create(cfg_.strategy);
    IterationPlan plan = strategy->buildIteration(ctx);

    if (injector_)
        injector_->arm();
    if (rm_) {
        rm_->arm(cfg_.strategy, model_.params);
        if (cfg_.recovery.policy == RecoveryPolicyKind::Elastic) {
            // Elastic re-plan: build the same strategy's iteration on
            // a cluster shrunk to the surviving nodes and map its
            // logical ranks/nodes onto the physical survivors.
            auto alive = std::make_shared<std::vector<bool>>(
                static_cast<std::size_t>(cfg_.cluster.nodeCount()),
                true);
            rm_->setReplanner(
                [this, model_cfg, alive](
                    int dead_node, std::vector<int> *rank_map,
                    std::vector<int> *node_map) -> const IterationPlan * {
                    (*alive)[static_cast<std::size_t>(dead_node)] = false;
                    degraded_cluster_ = std::make_unique<Cluster>(
                        degradedSpec(cfg_.cluster, *alive));
                    PlanContext dctx{*degraded_cluster_, model_cfg,
                                     cfg_.batch_per_gpu, cfg_.placement,
                                     cfg_.tuning};
                    degraded_plan_ = std::make_unique<IterationPlan>(
                        Strategy::create(cfg_.strategy)
                            ->buildIteration(dctx));
                    rank_map->clear();
                    node_map->clear();
                    for (int n = 0; n < cluster_->nodeCount(); ++n) {
                        if (!(*alive)[static_cast<std::size_t>(n)])
                            continue;
                        node_map->push_back(n);
                        for (int l = 0; l < cluster_->gpusOfNode(n);
                             ++l) {
                            rank_map->push_back(cluster_->rankOf(n, l));
                        }
                    }
                    return degraded_plan_.get();
                });
        }
    }

    ExperimentReport report;
    report.strategy = cfg_.strategy;
    report.model = model_;
    report.execution =
        executor_->run(plan, cfg_.iterations, cfg_.warmup);
    tm_->verifyConservation();
    report.iteration_time = report.execution.avgIterationTime();
    report.tflops = report.execution.achievedTflops();

    report.footprint = computeFootprint(
        model_cfg, cfg_.strategy, cfg_.cluster, cfg_.batch_per_gpu,
        cfg_.memory_cal);
    report.composition = composeMemory(
        cfg_.strategy.displayName(), report.footprint,
        cfg_.cluster.totalGpus(), cfg_.cluster.nodeCount());

    report.bandwidth = measureBandwidthRow(
        cfg_.strategy.displayName(), cluster_->topology(),
        report.execution.measured_begin, report.execution.measured_end,
        cfg_.telemetry.bucket);
    report.telemetry = cluster_->topology().telemetryStats();

    if (injector_) {
        injector_->finalize(report.execution.measured_begin,
                            report.execution.measured_end);
        report.faults = injector_->impacts();
        fillIterationSlowdowns(report.execution, report.faults);
    }
    if (rm_)
        report.recovery = rm_->buildReport(report.execution);
    if (resilience_)
        report.resilience = resilience_->stats();
    report.collectives = coll_->usage();
    report.scheduler = flows_->stats();
    return report;
}

ExperimentReport
runExperiment(ExperimentConfig cfg)
{
    Experiment exp(std::move(cfg));
    return exp.run();
}

} // namespace dstrain
