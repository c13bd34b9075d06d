/**
 * @file
 * The plan executor: runs an IterationPlan on the simulated cluster,
 * dispatching compute to GPU/CPU queues, collectives to the
 * collective engine, staging transfers to the fabric, and IO to the
 * storage engine; produces iteration timings, spans, and (via the
 * topology's rate logs) all telemetry.
 */

#ifndef DSTRAIN_ENGINE_EXECUTOR_HH
#define DSTRAIN_ENGINE_EXECUTOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collectives/communicator.hh"
#include "engine/iteration_result.hh"
#include "storage/placement.hh"
#include "storage/volume.hh"
#include "strategies/strategy.hh"
#include "telemetry/probe.hh"

namespace dstrain {

/**
 * Calibration constants of the execution model. Like the memory
 * calibration, each constant documents the paper observation it is
 * fitted against.
 */
struct EngineCalibration {
    /**
     * Achievable fraction of the A100's 312 TFLOP/s fp16 peak for
     * the GEMM-dominated kernel blocks. Deeper models amortize the
     * fixed per-iteration framework/launch overheads better, so the
     * efficiency rises with the layer count (the paper's Sec. V-D
     * observation that throughput grows with model size):
     *
     *   eff(L) = max * (1 - dip * exp(-L / scale))
     *
     * Fitted to Table V: DDP@1.4B -> 438 TFLOP/s (L=26, eff 0.38),
     * ZeRO-2@5.2B -> 524 (L=101, eff 0.45).
     */
    double gemm_eff_max = 0.46;
    double gemm_eff_dip = 0.35;
    double gemm_eff_layer_scale = 40.0;

    /** eff(L) per the curve above. */
    double gemmEfficiency(int layers) const;

    /**
     * DeepSpeedCPUAdam throughput per socket. Fitted so ZeRO-Offload
     * on ZeRO-2 at 11.4 B reaches ~191 TFLOP/s (Fig. 11-a).
     */
    double cpu_adam_params_per_sec = 1.5e9;

    /** Host DRAM traffic of the CPU Adam step (fp32 state r/w). */
    double cpu_adam_dram_bytes_per_param = 28.0;

    /** Kernel-launch/setup overhead charged per collective. */
    SimTime collective_launch = 30e-6;

    /**
     * Fixed per-iteration framework overhead (data loader, Python
     * dispatch, profiler hooks). Amortizes away for large models —
     * part of the Table V size-sensitivity shape.
     */
    SimTime iteration_fixed = 20e-3;

    /**
     * Achievable fraction of the route cap for NCCL rings that span
     * nodes. With the end-to-end SerDes model of hw/serdes.cc the
     * per-flow caps already land on the stress-test rates, so the
     * default is 1.0; the knob remains for sensitivity studies.
     * Replaces (not compounds) a collective's own bandwidth factor
     * for spanning groups (large-block inter-node gathers are
     * efficient; the ZeRO-3 granularity penalty is an NVLink-side
     * effect).
     */
    double internode_comm_factor = 1.0;
};

/**
 * Executes plans. One executor per experiment; owns the storage
 * volumes derived from the NVMe placement.
 */
class Executor
{
  public:
    Executor(Simulation &sim, Cluster &cluster, FlowScheduler &flows,
             TransferManager &tm, CollectiveEngine &coll,
             AioEngine &aio, EngineCalibration cal = {});

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * Build the per-node storage volumes for @p placement (required
     * before running plans with NvmeIo tasks).
     */
    void configureStorage(const NvmePlacement &placement);

    /**
     * Set the telemetry grid runs arm at the measurement boundary
     * (see TelemetryConfig). Applies to subsequent run() calls.
     */
    void configureTelemetry(const TelemetryConfig &telemetry)
    {
        telemetry_ = telemetry;
    }

    /** The telemetry configuration in use. */
    const TelemetryConfig &telemetry() const { return telemetry_; }

    /**
     * Run @p plan @p iterations times back to back, excluding the
     * first @p warmup iterations from the measurement window.
     * Runs the simulation to completion (synchronous).
     */
    IterationResult run(const IterationPlan &plan, int iterations,
                        int warmup = 1);

    /**
     * Called at each iteration boundary (after iteration @p completed
     * iterations have finished; never after the final one) with the
     * boundary time. Return true to *hold* the run: no further
     * iteration starts until resumeRun() — the checkpoint-write path.
     * Install before run(); cleared by nothing (reused across runs).
     */
    using IterationHook = std::function<bool(int, SimTime)>;

    /** Install the boundary hook (the RecoveryManager). */
    void setIterationHook(IterationHook hook)
    {
        iteration_hook_ = std::move(hook);
    }

    /**
     * Continue a run held by the iteration hook or rewound by
     * abortRun(). Schedules the next iteration on a fresh event.
     */
    void resumeRun();

    /**
     * Hard-failure abort: invalidate every scheduled continuation of
     * the current attempt, abort all in-flight transfers through
     * TransferManager::abortAll() (delivered vs aborted bytes land in
     * its stats()) and the IO still inside its submit latency through
     * the AioEngine epoch, and rewind the iteration clock so the run
     * resumes from iteration @p resume_iter (the last committed
     * checkpoint boundary). The run stays held until resumeRun().
     */
    void abortRun(int resume_iter);

    /**
     * Execute subsequent iterations from @p plan instead of the run's
     * original plan, mapping the override plan's logical ranks and
     * nodes onto surviving physical ones (elastic recovery after a
     * node loss). @p plan must outlive the run; empty maps = identity.
     * Pass nullptr to clear.
     */
    void setPlanOverride(const IterationPlan *plan,
                         std::vector<int> rank_map,
                         std::vector<int> node_map);

    /** Iterations fully committed so far in the current run. */
    int completedIterations() const { return iter_index_; }

    /** End time of committed iteration @p i of the current run. */
    SimTime iterationEndTime(int i) const;

    /**
     * Issue a storage IO on behalf of logical rank @p plan_rank
     * against its placement volume (the checkpoint read/write path —
     * checkpoint traffic competes for the same simulated drives and
     * PCIe lanes as offload traffic). Physical node/socket/volume are
     * derived through the active rank map.
     */
    void rankStorageIo(int plan_rank, bool write, Bytes bytes,
                       const std::string &tag,
                       std::function<void()> on_done);

    /** Issue a storage IO against an explicit node/socket/volume. */
    void nodeStorageIo(int node, int socket, int volume, bool write,
                       Bytes bytes, const std::string &tag,
                       std::function<void()> on_done);

    /** The NVMe placement configured via configureStorage(). */
    const NvmePlacement &placement() const { return placement_; }

    /** The calibration in use. */
    const EngineCalibration &calibration() const { return cal_; }

    /**
     * Scale GPU @p rank's compute speed by @p factor in (0, 1]: the
     * fault injector's straggler model. A factor of 0.5 makes every
     * kernel block on that rank take twice as long. 1.0 = healthy.
     * Takes effect for subsequently dispatched compute tasks.
     */
    void setGpuSpeedFactor(int rank, double factor);

    /** Current compute-speed factor of GPU @p rank. */
    double gpuSpeedFactor(int rank) const;

  private:
    struct RunState;

    /** Dependency bookkeeping: called when a task finishes. */
    void onTaskDone(RunState &st, int task_id);

    /** Launch a task whose dependencies are satisfied. */
    void startTask(RunState &st, int task_id);

    /** Actually run a GPU compute task (front of the rank queue). */
    void dispatchGpu(RunState &st, int rank);

    /** Actually run a CPU optimizer task (front of a socket queue). */
    void dispatchCpu(RunState &st, int node, int socket);

    /**
     * The measurement window opens at @p t: truncate warm-up rate-log
     * history and arm the streaming accumulators on the measurement
     * grid.
     */
    void beginMeasurement(SimTime t);

    /** The plan iterations currently execute from. */
    const IterationPlan &activePlan() const
    {
        return plan_override_ != nullptr ? *plan_override_ : *run_plan_;
    }

    /** Logical plan rank -> physical rank (identity without a map). */
    int mapRank(int plan_rank) const
    {
        return rank_map_.empty()
                   ? plan_rank
                   : rank_map_[static_cast<std::size_t>(plan_rank)];
    }

    /** Logical plan node -> physical node (identity without a map). */
    int mapNode(int plan_node) const
    {
        return node_map_.empty()
                   ? plan_node
                   : node_map_[static_cast<std::size_t>(plan_node)];
    }

    /** Set up and launch iteration iter_index_ of the current run. */
    void startIteration();

    /** Iteration-boundary bookkeeping: hook, measurement, next iter. */
    void onIterationDone();

    /** Defer startIteration() to a fresh event (callbacks unwind). */
    void scheduleNextIteration();

    Simulation &sim_;
    Cluster &cluster_;
    FlowScheduler &flows_;
    TransferManager &tm_;
    CollectiveEngine &coll_;
    AioEngine &aio_;
    EngineCalibration cal_;
    TelemetryConfig telemetry_;

    /** Per-rank straggler factors; empty = all healthy. */
    std::vector<double> gpu_speed_;

    NvmePlacement placement_ = nvmePlacementConfig('B');
    /** volumes_[node][volume index] */
    std::vector<std::vector<std::unique_ptr<StorageVolume>>> volumes_;

    // --- run context (reset by run(), mutated by abort/resume) -----------
    const IterationPlan *run_plan_ = nullptr;   ///< run()'s plan
    const IterationPlan *plan_override_ = nullptr;  ///< elastic re-plan
    std::vector<int> rank_map_;  ///< plan rank -> physical rank
    std::vector<int> node_map_;  ///< plan node -> physical node
    int iterations_ = 0;
    int warmup_ = 0;
    int iter_index_ = 0;         ///< iterations committed so far
    bool paused_ = false;        ///< held by the hook or an abort
    bool measurement_started_ = false;
    /**
     * Attempt generation: bumped by abortRun() (and each run()); every
     * executor-scheduled event captures it and becomes a no-op when
     * stale, so an aborted iteration's in-flight continuations cannot
     * corrupt the replay.
     */
    std::uint64_t gen_ = 0;
    IterationHook iteration_hook_;
    std::shared_ptr<IterationResult> result_;
    std::shared_ptr<RunState> state_;
};

} // namespace dstrain

#endif // DSTRAIN_ENGINE_EXECUTOR_HH
