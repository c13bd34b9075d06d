/**
 * @file
 * RecoveryManager: checkpoint scheduling and hard-failure recovery.
 *
 * The manager sits between the fault injector and the executor. At
 * every iteration boundary it decides (per the CheckpointPolicy)
 * whether to hold the run and write a checkpoint — real simulated IO
 * through the executor's storage volumes, competing for the NVMe
 * drives and PCIe lanes the paper characterizes. When the injector
 * applies a hard fault (gpudown/nodedown), the manager aborts the
 * in-flight iteration, rewinds to the last committed checkpoint, and
 * drives one of two recovery policies:
 *
 *  - `restart`: failure detection -> replacement hardware joins (the
 *    dead links come back) -> rendezvous -> every rank reads its
 *    checkpoint shard; shards that lived on a dead node are read from
 *    the next surviving node's mirror and shipped to the replacement
 *    over the fabric -> the lost iterations replay.
 *  - `elastic`: failure detection -> rendezvous among survivors (the
 *    dead node's links stay down) -> survivors read their shards, the
 *    dead node's mirrored bytes are read by its neighbor and
 *    re-scattered across the survivors -> the run continues on a
 *    re-planned, degraded world.
 *
 * Checkpoint mirroring to the next node is assumed (not simulated as
 * extra write traffic); DESIGN.md "Recovery model" discusses the
 * assumption. All scheduling is plain DES events, so checkpointed and
 * recovered runs stay bit-reproducible.
 */

#ifndef DSTRAIN_RECOVERY_RECOVERY_MANAGER_HH
#define DSTRAIN_RECOVERY_RECOVERY_MANAGER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/executor.hh"
#include "fault/fault_injector.hh"
#include "recovery/checkpoint.hh"

namespace dstrain {

/** How a run survives a hard failure. */
enum class RecoveryPolicyKind {
    Restart,  ///< replace the hardware, restore, replay lost work
    Elastic,  ///< re-shard across survivors, continue degraded
};

/** Spec spelling of a policy ("restart", "elastic"). */
const char *recoveryPolicyName(RecoveryPolicyKind kind);

/** Parse a policy spelling; returns false when unknown. */
bool parseRecoveryPolicy(const std::string &name,
                         RecoveryPolicyKind *out);

/** Checkpoint/recovery configuration of one experiment. */
struct RecoveryConfig {
    RecoveryPolicyKind policy = RecoveryPolicyKind::Restart;

    CheckpointPolicy checkpoint;

    /** Time to detect a hard failure (heartbeat timeout). */
    SimTime detect_delay = 5e-3;

    /** Re-rendezvous / communicator re-init time after a failure. */
    SimTime rendezvous = 30e-3;

    /** Restart only: time for replacement hardware to join. */
    SimTime replacement_delay = 0.5;

    /** Anything configured beyond the defaults' no-op? */
    bool enabled() const { return checkpoint.enabled(); }

    /**
     * Structural checks against the fault plan and cluster shape;
     * empty result = valid. Elastic recovery requires a checkpoint
     * policy, nodedown-only hard faults and >= 2 nodes; nodedown
     * always requires >= 2 nodes (the checkpoint mirror must survive).
     */
    std::vector<ConfigError> validate(const FaultPlan &faults,
                                      int nodes) const;
};

/** Goodput/overhead accounting of one recovered run. */
struct RecoveryReport {
    /** Was a RecoveryManager active? (Gates report rendering.) */
    bool active = false;

    int checkpoints = 0;          ///< committed checkpoint writes
    Bytes checkpoint_bytes = 0.0; ///< total bytes persisted
    SimTime checkpoint_time = 0.0;///< run time spent holding for writes
    int recoveries = 0;           ///< hard faults survived
    SimTime recovery_time = 0.0;  ///< fault -> resume, summed
    SimTime lost_time = 0.0;      ///< discarded (replayed) work time
    int lost_iterations = 0;      ///< completed iterations discarded
    SimTime time_to_recover = 0.0;///< last fault -> resume

    /**
     * Committed-work rate over the wall-clock measurement window
     * (TFLOP/s). Counts each iteration once, at its final (committed)
     * completion; always <= throughput_tflops.
     */
    double goodput_tflops = 0.0;

    /** The same committed FLOPs over productive time only (wall minus
     * checkpoint holds, recovery and lost work). */
    double throughput_tflops = 0.0;

    /** Fraction of the measurement window spent in checkpoint holds. */
    double checkpoint_overhead = 0.0;
};

/**
 * Drives checkpoints and hard-failure recovery for one run. Construct
 * after the executor, arm() before running.
 */
class RecoveryManager
{
  public:
    /**
     * Elastic re-planning callback: build a degraded iteration plan
     * after physical node @p dead_node died, filling @p rank_map /
     * @p node_map with the plan-logical -> physical-survivor mapping.
     * The returned plan must stay alive for the rest of the run.
     */
    using ReplanFn = std::function<const IterationPlan *(
        int dead_node, std::vector<int> *rank_map,
        std::vector<int> *node_map)>;

    /** All references must outlive the manager. */
    RecoveryManager(Simulation &sim, Cluster &cluster,
                    TransferManager &tm, Executor &executor,
                    RecoveryConfig cfg);

    RecoveryManager(const RecoveryManager &) = delete;
    RecoveryManager &operator=(const RecoveryManager &) = delete;

    /** Install the elastic re-planner (required for Elastic policy). */
    void setReplanner(ReplanFn fn) { replan_ = std::move(fn); }

    /**
     * Hook fired when elastic recovery drops a node, with the dead
     * node's global GPU ranks. The experiment wires this to
     * CollectiveEngine::markRanksDead so every subsequent communicator
     * group reforms over the survivors (the elastic shrink).
     */
    void setCommShrinkHook(
        std::function<void(const std::vector<int> &)> hook)
    {
        comm_shrink_ = std::move(hook);
    }

    /**
     * Hook this manager up as @p injector's hard-fault sink. Call
     * before the injector arms; optional when the plan has no hard
     * faults.
     */
    void attachInjector(FaultInjector &injector);

    /**
     * Resolve checkpoint sizing for @p strategy / @p params and
     * install the executor's iteration hook. Call exactly once,
     * before Executor::run().
     */
    void arm(const StrategyConfig &strategy, std::int64_t params);

    /** Accounting over the run's measurement window. */
    RecoveryReport buildReport(const IterationResult &ex) const;

    /** The configuration in use. */
    const RecoveryConfig &config() const { return cfg_; }

    /** Bytes one rank persists per checkpoint in the current world. */
    Bytes shardBytes(int rank) const;

  private:
    /** A [begin, end) span of run time, clipped at report time. */
    struct Window {
        SimTime begin = 0.0;
        SimTime end = 0.0;
    };

    /** Executor iteration hook: returns true to hold for a write. */
    bool onBoundary(int iter, SimTime now);

    /** Injector hard-fault sink. */
    void onHardFault(std::size_t event_index);

    /** One checkpoint shard IO landed. */
    void onShardWritten(int iter);

    /** Restart-policy sequence after the abort. */
    void beginRestart(std::size_t event_index, SimTime fault_time);

    /** Elastic-policy sequence after the abort. */
    void beginElastic(std::size_t event_index, SimTime fault_time);

    /**
     * Read every rank's checkpoint shard back, then run @p done: a
     * rank on a surviving node reads its own shard from local NVMe;
     * a shard of @p dead_node is read from the next alive node's
     * mirror and shipped from that node's DRAM, whole to the
     * replacement node (restart) or as a 1/survivors share to each
     * survivor but the mirror (@p elastic).
     */
    void restoreShards(int dead_node, bool elastic,
                       std::function<void()> done);

    /** Elastic, after the reshard: continue on the survivors under a
     * re-planned iteration, then finish the recovery. */
    void replanElastic(int dead_node, SimTime fault_time);

    /** Recovery finished: record windows and release the run. */
    void finishRecovery(SimTime fault_time);

    /** The next surviving node after @p node (wrapping). */
    int nextAliveNode(int node) const;

    /** Plan-logical rank -> physical rank (mirror of the executor's
     * elastic rank map; identity before any re-plan). */
    int physicalRank(int plan_rank) const
    {
        return rank_map_.empty()
                   ? plan_rank
                   : rank_map_[static_cast<std::size_t>(plan_rank)];
    }

    Simulation &sim_;
    Cluster &cluster_;
    TransferManager &tm_;
    Executor &executor_;
    FaultInjector *injector_ = nullptr;
    RecoveryConfig cfg_;
    ReplanFn replan_;
    /** Elastic shrink sink (the collective engine's dead-rank marks). */
    std::function<void(const std::vector<int> &)> comm_shrink_;

    // --- checkpoint sizing (arm()) ---------------------------------------
    StrategyConfig strategy_;
    std::int64_t params_ = 0;
    int world_ = 0;  ///< current rank count (elastic shrinks it)
    bool armed_ = false;

    // --- run bookkeeping --------------------------------------------------
    int committed_iter_ = 0;       ///< iteration a restore resumes at
    bool have_checkpoint_ = false; ///< any committed checkpoint yet?
    SimTime committed_resume_time_ = 0.0;  ///< last commit/resume instant
    SimTime last_ckpt_time_ = 0.0; ///< interval-policy reference point
    bool ckpt_writing_ = false;
    int ckpt_remaining_ = 0;       ///< shard IOs still in flight
    SimTime ckpt_hold_begin_ = 0.0;
    bool in_recovery_ = false;
    std::vector<bool> node_alive_;
    std::vector<int> rank_map_;  ///< mirrors the executor's rank map

    // --- accounting --------------------------------------------------------
    int checkpoints_ = 0;
    Bytes checkpoint_bytes_ = 0.0;
    int recoveries_ = 0;
    int lost_iterations_ = 0;
    SimTime time_to_recover_ = 0.0;
    std::vector<Window> ckpt_windows_;
    std::vector<Window> recovery_windows_;
    std::vector<Window> lost_windows_;
};

} // namespace dstrain

#endif // DSTRAIN_RECOVERY_RECOVERY_MANAGER_HH
