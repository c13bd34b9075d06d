/**
 * @file
 * Model-parallel replicas: one plan builder for every strategy that
 * splits the model over a tp x pp group of consecutive ranks and
 * replicates that group dp times (paper Sec. II-B/II-C).
 *
 * Each replica runs a GPipe schedule of (stage, micro-batch) cells:
 * its tp ranks compute in lockstep and all-reduce the activations —
 * two all-reduces per layer per direction, the f/g operators of the
 * Megatron paper — or merely synchronize when tp = 1. Then one
 * data-parallel tail runs across the replicas, per model-parallel
 * position:
 *
 *  - replicated (Megatron-LM): gradients all-reduce, and each rank
 *    updates its 1/mp parameter shard;
 *  - sharded (the 3D hybrid, and hybrid ZeRO-1/2 as the 3D hybrid at
 *    pp = 1): gradients all-reduce (stage 1) or reduce-scatter, each
 *    rank updates a 1/(mp x dp) optimizer shard, and the fresh fp16
 *    parameters all-gather back. Hybrid ZeRO is the DeepSpeed
 *    combination the paper mentions but does not evaluate
 *    (Sec. II-C, [119]); see bench/extension_hybrid.
 *
 * On the paper's dual-node Megatron runs the tensor-parallel group
 * spans both nodes, so the per-layer all-reduces ride RoCE — the cause
 * of the 0.19x-of-DDP throughput collapse (Sec. IV-C2).
 */

#ifndef DSTRAIN_STRATEGIES_MODEL_PARALLEL_HH
#define DSTRAIN_STRATEGIES_MODEL_PARALLEL_HH

#include "strategies/strategy.hh"

namespace dstrain {

/** See file comment. */
class ModelParallelStrategy : public Strategy
{
  public:
    explicit ModelParallelStrategy(StrategyConfig cfg);

    IterationPlan buildIteration(const PlanContext &ctx) const override;
};

} // namespace dstrain

#endif // DSTRAIN_STRATEGIES_MODEL_PARALLEL_HH
