/**
 * @file
 * Implementation of the model-parallel replica plan builder.
 */

#include "strategies/model_parallel.hh"

#include <algorithm>

#include "model/flops.hh"
#include "util/logging.hh"

namespace dstrain {

ModelParallelStrategy::ModelParallelStrategy(StrategyConfig cfg)
    : Strategy(cfg)
{
    DSTRAIN_ASSERT(cfg.kind == StrategyKind::Megatron ||
                       cfg.kind == StrategyKind::Hybrid3d ||
                       cfg.isHybridZero(),
                   "%s has no model-parallel replicas",
                   cfg.displayName().c_str());
}

IterationPlan
ModelParallelStrategy::buildIteration(const PlanContext &ctx) const
{
    IterationPlan plan;
    plan.setModelLayers(ctx.model.layers);
    const int n = ctx.cluster.spec().totalGpus();
    const int tp = cfg_.tensor_parallel;
    const int pp = cfg_.pipeline_parallel;
    const int mp = tp * pp;
    const int dp = cfg_.dataParallelSize(n);
    const double params =
        static_cast<double>(ctx.model.parameterCount());
    const bool replicated = cfg_.kind == StrategyKind::Megatron;
    const char *pre = replicated ? "mlm" : "h3d";

    // Per-GPU batch 16 => each model-parallel replica processes
    // 16 x mp sequences, split into pp micro-batches (GPipe-style).
    const int microbatches = std::max(1, pp);
    const std::int64_t tokens_replica =
        static_cast<std::int64_t>(ctx.batch_per_gpu) * ctx.model.seq_len *
        mp;
    const std::int64_t tokens_mb = tokens_replica / microbatches;
    const Flops fwd_mb = forwardFlops(ctx.model, tokens_mb);

    const int layers_per_stage =
        std::max(1, ctx.model.layers / std::max(1, pp));
    // Sub-blocks per (stage, microbatch), bounded by the tuning.
    const int sub_blocks = std::clamp(
        ctx.tuning.max_blocks / std::max(1, pp * microbatches), 1,
        layers_per_stage);

    // Tensor-parallel all-reduce volume: two activation all-reduces
    // per layer per direction (the f/g operators).
    const Bytes act_mb = static_cast<Bytes>(tokens_mb) * ctx.model.hidden *
                         2.0;  // fp16 activations of one micro-batch
    const Bytes ar_per_subblock =
        2.0 * act_mb * layers_per_stage / sub_blocks;

    // Per-rank compute per (stage, micro-batch, sub-block).
    const Flops fwd_rank_sb = fwd_mb / mp / sub_blocks;

    const auto idx = [&](int s, int m) {
        return static_cast<std::size_t>(s) *
                   static_cast<std::size_t>(microbatches) +
               static_cast<std::size_t>(m);
    };

    // One (stage, micro-batch) cell of replica g: sub_blocks rounds in
    // which the stage's tp ranks compute in lockstep and all-reduce
    // the activations. Recompute re-runs the forward all-reduces, so a
    // backward cell carries 2x the volume. Replica g occupies ranks
    // [g*mp, (g+1)*mp); its stage s owns tp consecutive ranks.
    // @return the cell's last task.
    const auto cell = [&](int g, int s, int m, bool bwd,
                          const std::vector<int> &cell_deps) {
        const char *dir = bwd ? "bwd" : "fwd";
        int prev = -1;
        for (int b = 0; b < sub_blocks; ++b) {
            std::vector<int> rank_tasks;
            for (int t = 0; t < tp; ++t) {
                const int r = g * mp + s * tp + t;
                rank_tasks.push_back(plan.gpuCompute(
                    r, (bwd ? 3.0 : 1.0) * fwd_rank_sb,
                    bwd ? ComputePhase::Backward : ComputePhase::Forward,
                    prev >= 0 ? std::vector<int>{prev} : cell_deps,
                    csprintf("%s %s g%d s%d m%d b%d r%d", pre, dir, g, s,
                             m, b, r)));
            }
            if (tp > 1) {
                CommGroup grp;
                for (int t = 0; t < tp; ++t)
                    grp.ranks.push_back(g * mp + s * tp + t);
                prev = plan.collective(
                    CollectiveOp::AllReduce, std::move(grp),
                    (bwd ? 2.0 : 1.0) * ar_per_subblock,
                    std::move(rank_tasks),
                    csprintf("%s tp-ar %s g%d s%d m%d b%d", pre, dir, g, s,
                             m, b));
            } else {
                prev = plan.barrier(std::move(rank_tasks),
                                    csprintf("%s %s sync", pre, dir));
            }
        }
        return prev;
    };

    // fwd_done[g][idx(s, m)] / bwd_done[g][idx(s, m)]: completion task
    // of each cell, for the pipeline dependencies.
    std::vector<std::vector<int>> fwd_done(
        static_cast<std::size_t>(dp),
        std::vector<int>(static_cast<std::size_t>(pp * microbatches),
                         -1));
    std::vector<std::vector<int>> bwd_done = fwd_done;
    for (int g = 0; g < dp; ++g) {
        for (int s = 0; s < pp; ++s) {
            for (int m = 0; m < microbatches; ++m) {
                std::vector<int> deps;
                if (s > 0)
                    deps.push_back(fwd_done[g][idx(s - 1, m)]);
                if (m > 0)
                    deps.push_back(fwd_done[g][idx(s, m - 1)]);
                fwd_done[g][idx(s, m)] = cell(g, s, m, false, deps);
            }
        }
        // Backward in reverse stage order, after the whole forward.
        for (int s = pp - 1; s >= 0; --s) {
            for (int m = 0; m < microbatches; ++m) {
                std::vector<int> deps = {
                    fwd_done[g][idx(pp - 1, microbatches - 1)]};
                if (s < pp - 1)
                    deps.push_back(bwd_done[g][idx(s + 1, m)]);
                if (m > 0)
                    deps.push_back(bwd_done[g][idx(s, m - 1)]);
                bwd_done[g][idx(s, m)] = cell(g, s, m, true, deps);
            }
        }
    }

    // The data-parallel tail. Per model-parallel position, the dp
    // replicas holding the same shard reduce its gradients: mp
    // concurrent collectives of the shard size. Replicated data
    // parallelism all-reduces; sharded data parallelism all-reduces
    // (stage 1) or reduce-scatters, and all-gathers after the update.
    std::vector<int> grads_ready;
    for (int g = 0; g < dp; ++g)
        grads_ready.push_back(bwd_done[g][idx(0, microbatches - 1)]);
    int opt_dep = plan.barrier(grads_ready, csprintf("%s grads ready", pre));
    const auto dp_group = [&](int pos) {
        CommGroup grp;
        for (int g = 0; g < dp; ++g)
            grp.ranks.push_back(g * mp + pos);
        return grp;
    };
    const bool all_reduce =
        replicated || cfg_.kind == StrategyKind::Zero1;
    const char *red = replicated ? "dp-ar" : all_reduce ? "grad red" : "dp-rs";
    if (dp > 1) {
        std::vector<int> reductions;
        for (int pos = 0; pos < mp; ++pos) {
            reductions.push_back(plan.collective(
                all_reduce ? CollectiveOp::AllReduce
                           : CollectiveOp::ReduceScatter,
                dp_group(pos), 2.0 * params / mp, {opt_dep},
                csprintf("%s %s pos%d", pre, red, pos)));
        }
        opt_dep = plan.barrier(std::move(reductions),
                               csprintf("%s %s done", pre, red));
    }

    // Each rank updates 1/mp (replicated) or 1/(mp x dp) (sharded) of
    // the optimizer states.
    const int shards = replicated ? mp : mp * dp;
    std::vector<int> opt_tasks;
    for (int r = 0; r < n; ++r) {
        opt_tasks.push_back(plan.gpuCompute(
            r, kGpuOptimizerFlopsPerParam * params / shards,
            ComputePhase::Optimizer, {opt_dep}, csprintf("adam r%d", r)));
    }
    if (!replicated && dp > 1) {
        const int opt_done =
            plan.barrier(std::move(opt_tasks), csprintf("%s opt done", pre));
        for (int pos = 0; pos < mp; ++pos) {
            plan.collective(CollectiveOp::AllGather, dp_group(pos),
                            2.0 * params / mp, {opt_done},
                            csprintf("%s dp-ag pos%d", pre, pos));
        }
    }

    plan.validate();
    return plan;
}

} // namespace dstrain
