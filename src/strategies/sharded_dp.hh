/**
 * @file
 * Sharded data parallelism: one plan builder for every strategy that
 * runs the whole model on each GPU and differs only in how much model
 * state it partitions across the N ranks (paper Sec. II-C, Table I).
 * Each stage partitions more than the one before:
 *
 *  - DDP (stage 0): states replicated. Gradients all-reduce in buckets
 *    overlapping the backward pass (Fig. 5's first timeline); every
 *    rank runs the full Adam step.
 *  - ZeRO-1: optimizer states partitioned. Gradients all-reduce as in
 *    DDP; each rank updates its 1/N optimizer shard and the updated
 *    fp16 parameters all-gather.
 *  - ZeRO-2: gradients partitioned too; the all-reduce becomes a
 *    reduce-scatter.
 *  - ZeRO-3 and FSDP (stage 3): parameters partitioned too. Each
 *    layer block's parameters all-gather just in time in both the
 *    forward and the backward pass (the +50% volume the paper
 *    quotes), and its gradients reduce-scatter per block. The two
 *    differ only in how they gather (ShardedGathers).
 *
 * ZeRO-Offload (CPU) and ZeRO-Infinity (NVMe) are branches of the same
 * skeleton, not separate builders: gradient shards drain to the host
 * (Fig. 12's DRAM and PCIe signature), parameters page in from NVMe
 * before each gather when offloaded, and the optimizer runs on the CPU
 * — directly, or as a read -> CPU-Adam -> write swap pipeline against
 * the rank's mapped NVMe volume (Fig. 14, Table VI).
 */

#ifndef DSTRAIN_STRATEGIES_SHARDED_DP_HH
#define DSTRAIN_STRATEGIES_SHARDED_DP_HH

#include <string>

#include "strategies/strategy.hh"

namespace dstrain {

/**
 * Fixed software latency of each ZeRO-3 just-in-time parameter
 * gather (DeepSpeed's fetch/partition coordination, Python-side
 * hooks and small-tensor fragmentation). Calibrated so ZeRO-3 lands
 * below ZeRO-1/2 in single-node throughput as in paper Fig. 7-a
 * (381 vs 391/524 TFLOP/s) and its 1.4 B timeline stretches to
 * ~0.7 s as in Fig. 5.
 */
inline constexpr SimTime kZero3FetchOverhead = 4e-3;

/**
 * Achievable fraction of ring bandwidth for ZeRO-3's just-in-time
 * parameter gathers: per-parameter granularity issues many small
 * NCCL calls that cannot saturate the links. Calibrated with
 * kZero3FetchOverhead against Fig. 5 (ZeRO-3 @ 1.4 B: ~0.7 s/iter)
 * and Fig. 7-a (ZeRO-3 @ 6.6 B: 381 TFLOP/s).
 */
inline constexpr double kZero3GatherBandwidthFactor = 0.30;

/**
 * How a stage-3 plan gathers each block's parameters: the four knobs
 * that separate ZeRO-3 (the defaults) from FSDP, whose flat per-block
 * parameters gather in one large NCCL call at full bandwidth inside a
 * bounded prefetch window.
 */
struct ShardedGathers {
    /**
     * Gate block b's gather on the compute of block b-1-window, with
     * window = max(1, PlanTuning::fsdp_prefetch) when set and 0 (the
     * strict depth-1 gather chain) otherwise.
     */
    bool prefetch_window = false;

    /** Does the first backward gather wait for the last forward
     * compute? */
    bool first_bwd_waits_fwd = true;

    /** Fixed software latency charged before each gather. */
    SimTime fetch_overhead = kZero3FetchOverhead;

    /** Per-hop bandwidth factor of each gather. */
    double bw_factor = kZero3GatherBandwidthFactor;
};

/** See file comment. */
class ShardedDpStrategy : public Strategy
{
  public:
    /**
     * @param label    prefix of the plan's labels ("ddp", "zero",
     *                 "zoff", "z3", "z3off", "zinf", "fsdp").
     * @param gathers  the stage-3 gather knobs (unused below stage 3).
     */
    ShardedDpStrategy(StrategyConfig cfg, std::string label,
                      ShardedGathers gathers = {});

    IterationPlan buildIteration(const PlanContext &ctx) const override;

  private:
    /** The ZeRO stage: 0 for DDP, 3 for FSDP. */
    int stage() const;

    /** Stages 0-2: data-parallel compute, then the gradient buckets.
     * @return the last reduction. */
    int buildBuckets(IterationPlan &plan, const PlanContext &ctx,
                     std::vector<std::vector<int>> &drains) const;

    /** Stage 3: the per-block gather -> compute -> reduce-scatter
     * loop. @return the last reduce-scatter. */
    int buildBlocks(IterationPlan &plan, const PlanContext &ctx,
                    std::vector<std::vector<int>> &drains) const;

    /** The optimizer step after @p grads_done (GPU) or after each
     * rank's @p drains (offload), plus the closing all-gather. */
    void buildOptimizer(IterationPlan &plan, const PlanContext &ctx,
                        int grads_done,
                        const std::vector<std::vector<int>> &drains) const;

    std::string label_;
    ShardedGathers gathers_;
};

} // namespace dstrain

#endif // DSTRAIN_STRATEGIES_SHARDED_DP_HH
