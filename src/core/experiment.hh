/**
 * @file
 * The top-level dstrain API: configure a cluster, a strategy and a
 * model size; run the simulated training; get back the paper's
 * metrics (achieved model size, compute throughput, memory
 * composition, per-interconnect bandwidth).
 *
 * Typical use (see examples/quickstart.cpp):
 * @code
 *   ExperimentConfig cfg;
 *   cfg.cluster.nodes = 2;
 *   cfg.strategy = StrategyConfig::zero(3);
 *   cfg.model_billions = 0.0;           // 0 = largest that fits
 *   Experiment exp(cfg);
 *   ExperimentReport report = exp.run();
 * @endcode
 */

#ifndef DSTRAIN_CORE_EXPERIMENT_HH
#define DSTRAIN_CORE_EXPERIMENT_HH

#include <memory>

#include "collectives/communicator.hh"
#include "engine/executor.hh"
#include "fault/fault_injector.hh"
#include "net/flow_scheduler.hh"
#include "net/resilience.hh"
#include "memplan/capacity_solver.hh"
#include "memplan/composition.hh"
#include "recovery/recovery_manager.hh"
#include "telemetry/summary.hh"
#include "util/config_error.hh"

namespace dstrain {

/**
 * Size limits validate() enforces. They sit far past the testbed
 * (XE8545 nodes: 4 GPUs, 2 NICs, batch 16) and the 1024-rank fabrics
 * the simulator targets; beyond them counts overflow int or a run
 * could not finish.
 */
inline constexpr int kMaxClusterNodes = 1024;
inline constexpr int kMaxNodeDevices = 64;  ///< GPUs or NICs per node
inline constexpr int kMaxIterations = 10000;
inline constexpr int kMaxBatchPerGpu = 65536;

/** Per-direction RoCE rates a node group may declare (GBps). */
inline constexpr double kMinRoceGBps = 0.1;
inline constexpr double kMaxRoceGBps = 1e4;

/** Everything that defines one experiment run. */
struct ExperimentConfig {
    /** The cluster (defaults to one XE8545 node). */
    ClusterSpec cluster;

    /** The training strategy. */
    StrategyConfig strategy;

    /**
     * Model size in billions of parameters (snapped to the paper
     * ladder); 0 means "the largest model that fits" (the paper's
     * achieved-model-size methodology).
     */
    double model_billions = 0.0;

    int batch_per_gpu = 16;

    /** Iterations to simulate and how many to discard as warm-up. */
    int iterations = 6;
    int warmup = 2;

    PlanTuning tuning;

    /** NVMe drive placement (ZeRO-Infinity only). */
    NvmePlacement placement = nvmePlacementConfig('B');

    MemoryCalibration memory_cal;
    EngineCalibration engine_cal;

    /**
     * Collective-algorithm selection (`--collective-algo`): a default
     * schedule family plus optional per-op overrides. The shipped
     * default (ring everywhere, all-to-all pairwise) reproduces the
     * NCCL-ring behavior every baseline was calibrated against.
     */
    CollectiveAlgoSpec collective_algos;

    /**
     * The telemetry grid (bucket width) the run arms at the start of
     * measurement. Post-run probes can read only this grid: a bench
     * that wants another bucket width sets it here and runs again.
     */
    TelemetryConfig telemetry;

    /**
     * Faults to inject during the run (empty = none; an empty plan
     * produces bit-identical reports to a plain run). See
     * fault/fault_plan.hh and the README quickstart.
     */
    FaultPlan faults;

    /**
     * Checkpoint policy and hard-failure recovery. A disabled
     * checkpoint policy with no hard faults is a guaranteed no-op
     * (bit-identical reports to a plain run). Hard faults (gpudown /
     * nodedown) in `faults` require either a checkpoint policy or
     * acceptance of a full from-scratch replay. See
     * recovery/recovery_manager.hh and DESIGN.md "Recovery model".
     */
    RecoveryConfig recovery;

    /**
     * Degraded-mode network resilience (`--resilience`): routing
     * reconvergence after hard link cuts, the collective progress
     * watchdog and elastic communicator shrink. Disabled (the
     * default) is bit-identical to the pre-resilience engine; see
     * net/resilience.hh and DESIGN.md "Degraded-mode semantics".
     */
    ResilienceConfig resilience;

    /**
     * Debug cross-check: run the from-scratch fair-share oracle after
     * every scheduler event and fatal() if any flow's rate differs
     * bitwise from the region solver's. Slow; use for fuzzing and CI
     * smoke, not runs.
     */
    bool verify_fair_share = false;

    /**
     * Check every field for structural validity; empty result = OK.
     * Experiment::run() panics on a non-empty result; the CLI prints
     * each error and exits instead.
     */
    std::vector<ConfigError> validate() const;
};

/** The metrics one run produces. */
struct ExperimentReport {
    StrategyConfig strategy;
    LadderEntry model;              ///< the size actually trained
    SimTime iteration_time = 0.0;   ///< mean measured iteration time
    double tflops = 0.0;            ///< aggregate achieved TFLOP/s
    MemoryFootprint footprint;
    MemoryComposition composition;
    BandwidthRow bandwidth;         ///< Table IV row
    IterationResult execution;      ///< raw timings + spans
    TelemetryStats telemetry;       ///< telemetry-engine counters

    /** Flow-scheduler work counters (solves, fast paths, completion
     * index, batching; not part of the report fingerprint). */
    FlowScheduler::Stats scheduler;

    /** Per-fault impact deltas (empty when no faults configured). */
    std::vector<FaultImpact> faults;

    /** Per-(op, algorithm) collective usage and volume accounting. */
    std::vector<CollectiveUsage> collectives;

    /** Goodput/recovery accounting (inactive when no checkpoint
     * policy and no hard faults are configured). */
    RecoveryReport recovery;

    /** Degraded-mode counters (all zero unless resilience was enabled
     * and the fabric was actually damaged). */
    ResilienceStats resilience;
};

/**
 * One experiment: owns the simulation, the cluster and every engine;
 * remains inspectable after run() for figure-specific probing.
 */
class Experiment
{
  public:
    explicit Experiment(ExperimentConfig cfg);
    ~Experiment();

    Experiment(const Experiment &) = delete;
    Experiment &operator=(const Experiment &) = delete;

    /** Run the experiment (once per Experiment instance). */
    ExperimentReport run();

    // --- post-run inspection --------------------------------------------

    const ExperimentConfig &config() const { return cfg_; }
    Cluster &cluster() { return *cluster_; }
    Simulation &sim() { return *sim_; }

    /** The resolved model (after ladder snap / capacity solve). */
    const LadderEntry &model() const { return model_; }

    /** The flow scheduler (post-run stats inspection). */
    FlowScheduler &flows() { return *flows_; }

    /** The transfer manager (post-run reroute counters). */
    TransferManager &transfers() { return *tm_; }

    /** The recovery manager (null without checkpoints/hard faults). */
    RecoveryManager *recovery() { return rm_.get(); }

    /** The resilience coordinator (null unless enabled). */
    ResilienceCoordinator *resilience() { return resilience_.get(); }

  private:
    ExperimentConfig cfg_;
    LadderEntry model_;
    std::unique_ptr<Simulation> sim_;
    std::unique_ptr<Cluster> cluster_;
    std::unique_ptr<FlowScheduler> flows_;
    std::unique_ptr<TransferManager> tm_;
    std::unique_ptr<CollectiveEngine> coll_;
    std::unique_ptr<AioEngine> aio_;
    std::unique_ptr<Executor> executor_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<ResilienceCoordinator> resilience_;
    std::unique_ptr<RecoveryManager> rm_;
    /** Elastic recovery's degraded planning context + plan: built by
     * the replan callback, kept alive for the rest of the run. */
    std::unique_ptr<Cluster> degraded_cluster_;
    std::unique_ptr<IterationPlan> degraded_plan_;
    bool ran_ = false;
};

/** Convenience: configure + run in one call. */
ExperimentReport runExperiment(ExperimentConfig cfg);

} // namespace dstrain

#endif // DSTRAIN_CORE_EXPERIMENT_HH
