/**
 * @file
 * Implementation of the sharded data-parallel plan builder.
 */

#include "strategies/sharded_dp.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dstrain {

namespace {

/**
 * Append the plain data-parallel forward+backward compute chains for
 * every rank.
 *
 * @param[out] bwd_blocks  bwd_blocks[rank][block] = task id, in
 *                         *reverse layer order* (block 0 runs first
 *                         in the backward pass = last layer block).
 * @return the block count.
 */
int
buildDataParallelCompute(IterationPlan &plan, const PlanContext &ctx,
                         std::vector<std::vector<int>> &bwd_blocks)
{
    const int n = ctx.cluster.spec().totalGpus();
    const int blocks = planBlocks(ctx.model, ctx.tuning);
    const Flops fwd_block = dpForwardFlopsPerRank(ctx) / blocks;
    const Flops bwd_block = 3.0 * fwd_block;  // recompute + backward

    bwd_blocks.assign(static_cast<std::size_t>(n), {});
    for (int r = 0; r < n; ++r) {
        int prev = -1;
        for (int b = 0; b < blocks; ++b) {
            std::vector<int> deps;
            if (prev >= 0)
                deps.push_back(prev);
            prev = plan.gpuCompute(r, fwd_block, ComputePhase::Forward,
                                   std::move(deps),
                                   csprintf("fwd r%d b%d", r, b));
        }
        for (int b = 0; b < blocks; ++b) {
            prev = plan.gpuCompute(r, bwd_block, ComputePhase::Backward,
                                   {prev}, csprintf("bwd r%d b%d", r, b));
            bwd_blocks[static_cast<std::size_t>(r)].push_back(prev);
        }
    }
    return blocks;
}

} // namespace

ShardedDpStrategy::ShardedDpStrategy(StrategyConfig cfg, std::string label,
                                     ShardedGathers gathers)
    : Strategy(cfg), label_(std::move(label)), gathers_(gathers)
{
    const bool data_parallel = cfg.kind == StrategyKind::Ddp ||
                               cfg.kind == StrategyKind::Zero1 ||
                               cfg.kind == StrategyKind::Zero2 ||
                               cfg.kind == StrategyKind::Zero3 ||
                               cfg.kind == StrategyKind::Fsdp;
    DSTRAIN_ASSERT(data_parallel && !cfg.isHybridZero(),
                   "%s is not a sharded data-parallel strategy",
                   cfg.displayName().c_str());
}

int
ShardedDpStrategy::stage() const
{
    switch (cfg_.kind) {
      case StrategyKind::Zero1:
        return 1;
      case StrategyKind::Zero2:
        return 2;
      case StrategyKind::Zero3:
      case StrategyKind::Fsdp:
        return 3;
      default:
        return 0;
    }
}

IterationPlan
ShardedDpStrategy::buildIteration(const PlanContext &ctx) const
{
    IterationPlan plan;
    plan.setModelLayers(ctx.model.layers);
    // Gradient-shard drains to the host, per rank (offload only).
    std::vector<std::vector<int>> drains(
        static_cast<std::size_t>(ctx.cluster.spec().totalGpus()));
    const int grads_done = stage() < 3 ? buildBuckets(plan, ctx, drains)
                                       : buildBlocks(plan, ctx, drains);
    buildOptimizer(plan, ctx, grads_done, drains);
    plan.validate();
    return plan;
}

int
ShardedDpStrategy::buildBuckets(IterationPlan &plan, const PlanContext &ctx,
                                std::vector<std::vector<int>> &drains) const
{
    const int n = ctx.cluster.spec().totalGpus();
    const Bytes grad_bytes =
        2.0 * static_cast<double>(ctx.model.parameterCount());
    const Bytes shard_grad = grad_bytes / n;
    const bool drain = cfg_.offload == OffloadTarget::Cpu;

    std::vector<std::vector<int>> bwd;
    const int blocks = buildDataParallelCompute(plan, ctx, bwd);

    // Bucket k becomes ready once its backward block group finishes on
    // every rank; buckets reduce in order (NCCL stream semantics). DDP
    // overlaps them with the backward pass. The DeepSpeed release the
    // paper measured (0.7.x) launches the ZeRO-1/2 reduction only after
    // the backward pass — hence Fig. 10's peak-and-trough RoCE pattern
    // and the exposed communication behind Fig. 7-b — unless
    // overlap_grad_reduction asks for the newer behavior. Stages 0-1
    // all-reduce (gradients replicated); stage 2 reduce-scatters.
    const bool overlap =
        stage() == 0 || ctx.tuning.overlap_grad_reduction;
    const CollectiveOp op = stage() < 2 ? CollectiveOp::AllReduce
                                        : CollectiveOp::ReduceScatter;
    const int buckets = std::min(ctx.tuning.grad_buckets, blocks);
    int prev = -1;
    for (int k = 0; k < buckets; ++k) {
        const int b_end = overlap ? (k + 1) * blocks / buckets : blocks;
        std::vector<int> deps;
        for (int r = 0; r < n; ++r)
            deps.push_back(bwd[static_cast<std::size_t>(r)]
                              [static_cast<std::size_t>(b_end - 1)]);
        if (prev >= 0)
            deps.push_back(prev);
        prev = plan.collective(op, CommGroup::worldOf(n),
                               grad_bytes / buckets, std::move(deps),
                               csprintf("%s %s bucket %d", label_.c_str(),
                                        stage() == 0 ? "ar" : "grad", k));
        // ZeRO-2 drains each bucket's shard to the host behind the
        // later buckets.
        if (drain && stage() == 2) {
            for (int r = 0; r < n; ++r)
                drains[static_cast<std::size_t>(r)].push_back(
                    plan.hostTransfer(r, shard_grad / buckets,
                                      /*to_host=*/true, {prev},
                                      csprintf("grad dl r%d k%d", r, k)));
        }
    }
    // ZeRO-1 all-reduces full gradients, so its shards drain only after
    // the whole reduction — why it trails ZeRO-2 in Fig. 11-a.
    if (drain && stage() == 1) {
        for (int r = 0; r < n; ++r)
            drains[static_cast<std::size_t>(r)].push_back(
                plan.hostTransfer(r, shard_grad, /*to_host=*/true, {prev},
                                  csprintf("grad dl r%d", r)));
    }
    return prev;
}

int
ShardedDpStrategy::buildBlocks(IterationPlan &plan, const PlanContext &ctx,
                               std::vector<std::vector<int>> &drains) const
{
    const Cluster &cl = ctx.cluster;
    const int n = cl.spec().totalGpus();
    const int blocks = planBlocks(ctx.model, ctx.tuning);
    const int window =
        gathers_.prefetch_window ? std::max(1, ctx.tuning.fsdp_prefetch) : 0;
    const double params = static_cast<double>(ctx.model.parameterCount());
    const Bytes block_bytes = 2.0 * params / blocks;  // fp16 params/grads
    const Flops fwd_flops = dpForwardFlopsPerRank(ctx) / blocks;

    // fwd / bwd compute task of (rank, block).
    std::vector<int> fwd(static_cast<std::size_t>(n * blocks), -1);
    std::vector<int> bwd(fwd.size(), -1);
    const auto at = [blocks](std::vector<int> &m, int r, int b) -> int & {
        return m[static_cast<std::size_t>(r * blocks + b)];
    };

    // The gather of one block: with offloaded parameters each rank
    // first pages its shard in from NVMe and stages it to the GPU.
    const auto gather = [&](std::vector<int> deps, int b, bool backward) {
        const char *dir = backward ? "bwd " : "";
        if (cfg_.offload_params) {
            std::vector<int> staged;
            for (int r = 0; r < n; ++r) {
                const int vol =
                    ctx.placement.volumeForRank(cl.localOfRank(r));
                const int rd = plan.nvmeIo(
                    r, vol, block_bytes / n, /*write=*/false, deps,
                    csprintf("param pg-in %sr%d b%d", dir, r, b));
                staged.push_back(plan.hostTransfer(
                    r, block_bytes / n, /*to_host=*/false, {rd},
                    csprintf("param h2d %sr%d b%d", dir, r, b)));
            }
            deps = std::move(staged);
        }
        return plan.collective(
            CollectiveOp::AllGather, CommGroup::worldOf(n), block_bytes,
            std::move(deps),
            csprintf("%s %s ag b%d", label_.c_str(),
                     backward ? "bwd" : "fwd", b),
            /*pin_channels=*/true, gathers_.fetch_overhead,
            gathers_.bw_factor);
    };

    // Forward: the gather of block b chains on the previous gather and
    // waits for block b-1-window's compute, bounding how many
    // gathered-but-unconsumed blocks are live.
    int prev_ag = -1;
    for (int b = 0; b < blocks; ++b) {
        std::vector<int> deps;
        if (prev_ag >= 0)
            deps.push_back(prev_ag);
        if (b - 1 - window >= 0)
            for (int r = 0; r < n; ++r)
                deps.push_back(at(fwd, r, b - 1 - window));
        prev_ag = gather(std::move(deps), b, /*backward=*/false);
        for (int r = 0; r < n; ++r) {
            std::vector<int> cdeps = {prev_ag};
            if (b > 0)
                cdeps.push_back(at(fwd, r, b - 1));
            at(fwd, r, b) = plan.gpuCompute(
                r, fwd_flops, ComputePhase::Forward, std::move(cdeps),
                csprintf("fwd r%d b%d", r, b));
        }
    }

    // Backward (reverse block order): parameters were resharded after
    // the forward, so each block gathers again inside the same window,
    // runs recompute + backward, and reduce-scatters its gradients.
    int prev_rs = -1;
    for (int b = blocks - 1; b >= 0; --b) {
        std::vector<int> deps = {prev_ag};
        const int gate = b + 1 + window;
        for (int r = 0; r < n; ++r) {
            if (gate < blocks)
                deps.push_back(at(bwd, r, gate));
            else if (b == blocks - 1 && gathers_.first_bwd_waits_fwd)
                deps.push_back(at(fwd, r, blocks - 1));
        }
        prev_ag = gather(std::move(deps), b, /*backward=*/true);
        std::vector<int> block_tasks;
        for (int r = 0; r < n; ++r) {
            const int last =
                b == blocks - 1 ? at(fwd, r, blocks - 1) : at(bwd, r, b + 1);
            at(bwd, r, b) = plan.gpuCompute(
                r, 3.0 * fwd_flops, ComputePhase::Backward, {prev_ag, last},
                csprintf("bwd r%d b%d", r, b));
            block_tasks.push_back(at(bwd, r, b));
        }
        if (prev_rs >= 0)
            block_tasks.push_back(prev_rs);
        prev_rs = plan.collective(CollectiveOp::ReduceScatter,
                                  CommGroup::worldOf(n), block_bytes,
                                  std::move(block_tasks),
                                  csprintf("%s rs b%d", label_.c_str(), b));
        if (cfg_.offload != OffloadTarget::None) {
            for (int r = 0; r < n; ++r)
                drains[static_cast<std::size_t>(r)].push_back(
                    plan.hostTransfer(r, block_bytes / n, /*to_host=*/true,
                                      {prev_rs},
                                      csprintf("grad dl r%d b%d", r, b)));
        }
    }
    return prev_rs;
}

void
ShardedDpStrategy::buildOptimizer(
    IterationPlan &plan, const PlanContext &ctx, int grads_done,
    const std::vector<std::vector<int>> &drains) const
{
    const Cluster &cl = ctx.cluster;
    const int n = cl.spec().totalGpus();
    const double params = static_cast<double>(ctx.model.parameterCount());
    const int shards = stage() == 0 ? 1 : n;

    // Each rank's freshly updated fp16 parameters (for the all-gather).
    std::vector<int> updated;
    for (int r = 0; r < n; ++r) {
        const std::vector<int> &drained = drains[static_cast<std::size_t>(r)];
        if (cfg_.offload == OffloadTarget::None) {
            updated.push_back(plan.gpuCompute(
                r, kGpuOptimizerFlopsPerParam * params / shards,
                ComputePhase::Optimizer, {grads_done},
                csprintf("adam r%d", r)));
            continue;
        }
        const int node = cl.nodeOfRank(r);
        const int socket = gpuSocket(cl.nodeSpec(node), cl.localOfRank(r));
        if (cfg_.offload == OffloadTarget::Cpu) {
            // Host Adam on the rank's socket; the updated shard uploads.
            const int adam = plan.cpuOptimizer(node, socket, params / n,
                                               drained,
                                               csprintf("cpu adam r%d", r));
            updated.push_back(plan.hostTransfer(
                r, 2.0 * params / n, /*to_host=*/false, {adam},
                csprintf("param ul r%d", r)));
            continue;
        }

        // NVMe swap pipeline: the fp32 optimizer shard (12 bytes/param)
        // streams NVMe -> host, the CPU Adam consumes it chunk by chunk,
        // and the refreshed state streams back.
        const int vol = ctx.placement.volumeForRank(cl.localOfRank(r));
        const int chunks = std::max(1, ctx.tuning.nvme_chunks);
        const Bytes opt_shard = 12.0 * params / n;
        int prev_read = -1;
        int last_adam = -1;
        for (int c = 0; c < chunks; ++c) {
            std::vector<int> rd_deps = drained;
            if (prev_read >= 0)
                rd_deps = {prev_read};
            prev_read = plan.nvmeIo(r, vol, opt_shard / chunks,
                                    /*write=*/false, std::move(rd_deps),
                                    csprintf("opt rd r%d c%d", r, c));
            last_adam = plan.cpuOptimizer(node, socket, params / n / chunks,
                                          {prev_read},
                                          csprintf("cpu adam r%d c%d", r, c));
            plan.nvmeIo(r, vol, opt_shard / chunks, /*write=*/true,
                        {last_adam}, csprintf("opt wr r%d c%d", r, c));
        }
        // Fresh fp16 parameter shard back to the GPU (and to NVMe when
        // parameters are offloaded).
        updated.push_back(plan.hostTransfer(r, 2.0 * params / n,
                                            /*to_host=*/false, {last_adam},
                                            csprintf("param ul r%d", r)));
        if (cfg_.offload_params)
            plan.nvmeIo(r, vol, 2.0 * params / n, /*write=*/true,
                        {last_adam}, csprintf("param pg-out r%d", r));
    }

    // Stages 1-2 keep whole parameters on every rank, so the updated
    // shards all-gather back; stage 3's next gathers pick them up.
    if (stage() == 1 || stage() == 2)
        plan.collective(CollectiveOp::AllGather, CommGroup::worldOf(n),
                        2.0 * params, std::move(updated),
                        csprintf("%s param all-gather", label_.c_str()));
}

} // namespace dstrain
