/**
 * @file
 * Strategy base implementation, factory, and shared plan helpers.
 */

#include "strategies/strategy.hh"

#include <algorithm>

#include "model/flops.hh"
#include "strategies/ddp.hh"
#include "strategies/fsdp.hh"
#include "strategies/hybrid3d.hh"
#include "strategies/hybrid_zero.hh"
#include "strategies/megatron.hh"
#include "strategies/moe.hh"
#include "strategies/zero.hh"
#include "strategies/zero_infinity.hh"
#include "strategies/zero_offload.hh"
#include "util/logging.hh"

namespace dstrain {

std::int64_t
PlanContext::globalTokens() const
{
    return static_cast<std::int64_t>(batch_per_gpu) * model.seq_len *
           cluster.spec().totalGpus();
}

Strategy::Strategy(StrategyConfig cfg)
    : cfg_(cfg)
{
    validateStrategy(cfg_);
}

namespace {

/** The registry storage (lazily filled with the builtins). */
std::vector<StrategyFactory> &
registrySlot()
{
    static std::vector<StrategyFactory> entries;
    return entries;
}

template <typename S>
std::unique_ptr<Strategy>
makeStrategy(const StrategyConfig &cfg)
{
    return std::make_unique<S>(cfg);
}

/**
 * The built-in entries, in `--strategy` help order. zero1/zero2
 * promote to the hybrid TP+ZeRO mode when a TP degree is given, so
 * their configure/instantiate branch on it.
 */
void
registerBuiltins(std::vector<StrategyFactory> &reg)
{
    auto zeroEntry = [&](int stage, StrategyKind kind) {
        reg.push_back(
            {csprintf("zero%d", stage),
             csprintf("DeepSpeed ZeRO stage %d%s", stage,
                      stage < 3 ? " (--tp > 1 selects hybrid TP+ZeRO)"
                                : " (fully partitioned states)"),
             [stage](int tp, int) {
                 return tp > 1 && stage < 3
                            ? StrategyConfig::hybridZero(stage, tp)
                            : StrategyConfig::zero(stage);
             },
             [kind](const StrategyConfig &c) {
                 return c.kind == kind && c.offload == OffloadTarget::None;
             },
             [](const StrategyConfig &c) -> std::unique_ptr<Strategy> {
                 if (c.isHybridZero())
                     return std::make_unique<HybridZeroStrategy>(c);
                 return std::make_unique<ZeroStrategy>(c);
             },
             /*takes_tp=*/stage < 3, /*takes_pp=*/false});
    };
    auto zeroCpuEntry = [&](int stage, StrategyKind kind) {
        reg.push_back(
            {csprintf("zero%d-cpu", stage),
             csprintf("ZeRO-%d + CPU optimizer offload (ZeRO-Offload)",
                      stage),
             [stage](int, int) {
                 return StrategyConfig::zeroOffloadCpu(stage);
             },
             [kind](const StrategyConfig &c) {
                 return c.kind == kind && c.offload == OffloadTarget::Cpu;
             },
             makeStrategy<ZeroOffloadStrategy>});
    };

    reg.push_back({"ddp",
                   "PyTorch DDP (replicated states, gradient all-reduce)",
                   [](int, int) { return StrategyConfig::ddp(); },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Ddp;
                   },
                   makeStrategy<DdpStrategy>});
    reg.push_back({"megatron",
                   "Megatron-LM TP x PP (defaults TP=4, PP=1)",
                   [](int tp, int pp) {
                       return StrategyConfig::megatron(tp > 0 ? tp : 4,
                                                       pp > 0 ? pp : 1);
                   },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Megatron;
                   },
                   makeStrategy<MegatronStrategy>, /*takes_tp=*/true,
                   /*takes_pp=*/true});
    zeroEntry(1, StrategyKind::Zero1);
    zeroEntry(2, StrategyKind::Zero2);
    zeroEntry(3, StrategyKind::Zero3);
    zeroCpuEntry(1, StrategyKind::Zero1);
    zeroCpuEntry(2, StrategyKind::Zero2);
    zeroCpuEntry(3, StrategyKind::Zero3);
    reg.push_back({"zero3-nvme",
                   "ZeRO-Infinity (NVMe optimizer offload)",
                   [](int, int) {
                       return StrategyConfig::zeroInfinityNvme(false);
                   },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Zero3 &&
                              c.offload == OffloadTarget::Nvme &&
                              !c.offload_params;
                   },
                   makeStrategy<ZeroInfinityStrategy>});
    reg.push_back({"zero3-nvme-params",
                   "ZeRO-Infinity (NVMe optimizer + parameter offload)",
                   [](int, int) {
                       return StrategyConfig::zeroInfinityNvme(true);
                   },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Zero3 &&
                              c.offload == OffloadTarget::Nvme &&
                              c.offload_params;
                   },
                   makeStrategy<ZeroInfinityStrategy>});
    reg.push_back({"fsdp",
                   "PyTorch FSDP (flat-param shards, prefetched gathers)",
                   [](int, int) { return StrategyConfig::fsdp(); },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Fsdp;
                   },
                   makeStrategy<FsdpStrategy>});
    reg.push_back({"moe",
                   "Expert parallelism (all-to-all dispatch; --experts)",
                   [](int, int) { return StrategyConfig::moe(); },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Moe;
                   },
                   makeStrategy<MoeStrategy>});
    reg.push_back({"hybrid3d",
                   "3D hybrid: TP x PP + ZeRO-sharded DP "
                   "(defaults TP=2, PP=2)",
                   [](int tp, int pp) {
                       return StrategyConfig::hybrid3d(tp > 0 ? tp : 2,
                                                       pp > 0 ? pp : 2);
                   },
                   [](const StrategyConfig &c) {
                       return c.kind == StrategyKind::Hybrid3d;
                   },
                   makeStrategy<Hybrid3dStrategy>, /*takes_tp=*/true,
                   /*takes_pp=*/true});
}

/**
 * The registry with the builtins guaranteed present. Lazy (not a
 * namespace-scope initializer) so registration survives static
 * archive linking and ordering.
 */
std::vector<StrategyFactory> &
strategyRegistry()
{
    auto &reg = registrySlot();
    static bool builtins_done = (registerBuiltins(reg), true);
    (void)builtins_done;
    return reg;
}

} // namespace

std::unique_ptr<Strategy>
Strategy::create(const StrategyConfig &cfg)
{
    validateStrategy(cfg);
    for (const StrategyFactory &f : strategyRegistry())
        if (f.matches(cfg))
            return f.instantiate(cfg);
    panic("no strategy registered for kind %s",
          strategyKindName(cfg.kind));
}

void
Strategy::registerFactory(StrategyFactory factory)
{
    DSTRAIN_ASSERT(!factory.name.empty() && factory.configure &&
                       factory.matches && factory.instantiate,
                   "incomplete strategy factory");
    DSTRAIN_ASSERT(!find(factory.name),
                   "duplicate strategy name '%s'", factory.name.c_str());
    strategyRegistry().push_back(std::move(factory));
}

std::vector<std::string>
Strategy::names()
{
    std::vector<std::string> out;
    for (const StrategyFactory &f : strategyRegistry())
        out.push_back(f.name);
    return out;
}

const StrategyFactory *
Strategy::find(const std::string &name)
{
    for (const StrategyFactory &f : strategyRegistry())
        if (f.name == name)
            return &f;
    return nullptr;
}

int
planBlocks(const TransformerConfig &model, const PlanTuning &tuning)
{
    return std::max(1, std::min(model.layers, tuning.max_blocks));
}

Flops
dpForwardFlopsPerRank(const PlanContext &ctx)
{
    const std::int64_t tokens_per_rank =
        static_cast<std::int64_t>(ctx.batch_per_gpu) * ctx.model.seq_len;
    return forwardFlops(ctx.model, tokens_per_rank);
}

void
buildDataParallelCompute(IterationPlan &plan, const PlanContext &ctx,
                         std::vector<std::vector<int>> &fwd_blocks,
                         std::vector<std::vector<int>> &bwd_blocks)
{
    const int n = ctx.cluster.spec().totalGpus();
    const int blocks = planBlocks(ctx.model, ctx.tuning);
    const Flops fwd_rank = dpForwardFlopsPerRank(ctx);
    const Flops fwd_block = fwd_rank / blocks;
    const Flops bwd_block = 3.0 * fwd_block;  // recompute + backward

    fwd_blocks.assign(static_cast<std::size_t>(n), {});
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
            fwd_blocks[static_cast<std::size_t>(r)].push_back(prev);
        }
        for (int b = 0; b < blocks; ++b) {
            std::vector<int> deps = {prev};
            prev = plan.gpuCompute(r, bwd_block, ComputePhase::Backward,
                                   std::move(deps),
                                   csprintf("bwd r%d b%d", r, b));
            bwd_blocks[static_cast<std::size_t>(r)].push_back(prev);
        }
    }
}

} // namespace dstrain
