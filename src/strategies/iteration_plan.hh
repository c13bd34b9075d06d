/**
 * @file
 * The iteration plan: a task graph describing one training iteration
 * of a strategy — GPU compute blocks, collectives, host staging
 * transfers, CPU optimizer work and NVMe IO, with explicit
 * dependencies. Strategies *build* plans; the engine *executes* them
 * on the simulated hardware.
 */

#ifndef DSTRAIN_STRATEGIES_ITERATION_PLAN_HH
#define DSTRAIN_STRATEGIES_ITERATION_PLAN_HH

#include <string>
#include <vector>

#include "collectives/communicator.hh"
#include "model/transformer.hh"
#include "util/units.hh"

namespace dstrain {

/** The kinds of work a plan can schedule. */
enum class TaskKind {
    GpuCompute,   ///< GEMM-dominated kernel block on one GPU
    Collective,   ///< a NCCL-style collective over a group
    HostTransfer, ///< GPU <-> host-DRAM staging over PCIe
    CpuOptimizer, ///< CPU Adam over a parameter partition
    NvmeIo,       ///< read/write against an NVMe volume
    Barrier,      ///< pure synchronization point
};

/** Human-readable task-kind name. */
const char *taskKindName(TaskKind kind);

/** Phases for timeline coloring (paper Fig. 5 categories). */
enum class ComputePhase {
    Forward,
    Backward,
    Optimizer,
    Communication,
    Io,
    Idle,
};

/** Short phase label for timeline rendering. */
const char *computePhaseName(ComputePhase phase);

/** One node of the task graph. */
struct PlanTask {
    int id = -1;
    TaskKind kind = TaskKind::Barrier;
    ComputePhase phase = ComputePhase::Idle;
    std::string label;
    std::vector<int> deps;  ///< ids of prerequisite tasks

    // GpuCompute / HostTransfer / NvmeIo: the acting global GPU rank.
    int rank = -1;

    // GpuCompute.
    Flops flops = 0.0;

    // Collective.
    CollectiveOp op = CollectiveOp::AllReduce;
    CommGroup group;
    Bytes bytes = 0.0;
    int root = 0;
    /** Pin the collective's channels to NICs (inter-node groups). */
    bool pin_channels = true;

    /** Per-hop bandwidth factor of the collective (see strategy.hh). */
    double comm_bw_factor = 1.0;

    /**
     * Schedule family for the collective; Auto defers to the
     * engine's `--collective-algo` spec (default: ring).
     */
    CollectiveAlgo algo = CollectiveAlgo::Auto;

    // HostTransfer: direction and size.
    bool to_host = false;
    // (bytes field shared with Collective.)

    // CpuOptimizer: parameters to process and where.
    double cpu_params = 0.0;
    int node = -1;
    int socket = -1;

    // NvmeIo: volume index within the node's placement, direction.
    int volume = -1;
    bool io_write = false;

    /**
     * Extra fixed software latency charged before the task starts
     * (Collective only): models DeepSpeed's parameter-fetch
     * coordination in ZeRO-3 (see kZero3FetchOverhead in sharded_dp.hh).
     */
    SimTime extra_latency = 0.0;
};

/**
 * A buildable, immutable-after-build task graph.
 */
class IterationPlan
{
  public:
    /** Add a task; its id is assigned and returned. */
    int add(PlanTask task);

    /** All tasks, id-ordered. */
    const std::vector<PlanTask> &tasks() const { return tasks_; }

    /** Number of tasks. */
    std::size_t size() const { return tasks_.size(); }

    /**
     * Total executed FLOPs of the plan's GpuCompute tasks (the
     * quantity the achieved-TFLOP/s metric divides by the measured
     * iteration time).
     */
    Flops totalGpuFlops() const;

    /** Total collective payload bytes (diagnostics/tests). */
    Bytes totalCollectiveBytes() const;

    /** fatal() if the dependency graph is not a DAG over valid ids. */
    void validate() const;

    /** Record the model depth (drives the engine's efficiency curve). */
    void setModelLayers(int layers) { model_layers_ = layers; }

    /** The recorded model depth (defaults to 24). */
    int modelLayers() const { return model_layers_; }

    // --- convenience builders -----------------------------------------

    int gpuCompute(int rank, Flops flops, ComputePhase phase,
                   std::vector<int> deps, std::string label);

    int collective(CollectiveOp op, CommGroup group, Bytes bytes,
                   std::vector<int> deps, std::string label,
                   bool pin_channels = true, SimTime extra_latency = 0.0,
                   double bw_factor = 1.0,
                   CollectiveAlgo algo = CollectiveAlgo::Auto);

    int hostTransfer(int rank, Bytes bytes, bool to_host,
                     std::vector<int> deps, std::string label);

    int cpuOptimizer(int node, int socket, double params,
                     std::vector<int> deps, std::string label);

    int nvmeIo(int rank, int volume, Bytes bytes, bool write,
               std::vector<int> deps, std::string label);

    int barrier(std::vector<int> deps, std::string label);

  private:
    std::vector<PlanTask> tasks_;
    int model_layers_ = 24;
};

} // namespace dstrain

#endif // DSTRAIN_STRATEGIES_ITERATION_PLAN_HH
