/**
 * @file
 * The strategy interface: each training library/configuration the
 * paper evaluates builds an IterationPlan describing exactly how one
 * training step computes and communicates on the cluster.
 */

#ifndef DSTRAIN_STRATEGIES_STRATEGY_HH
#define DSTRAIN_STRATEGIES_STRATEGY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.hh"
#include "model/parallelism.hh"
#include "model/transformer.hh"
#include "storage/placement.hh"
#include "strategies/iteration_plan.hh"

namespace dstrain {

/** Plan-granularity tuning (bounds simulation event counts). */
struct PlanTuning {
    /** Max compute blocks the layer stack is grouped into. */
    int max_blocks = 24;

    /** Gradient all-reduce/reduce-scatter buckets. */
    int grad_buckets = 8;

    /** NVMe optimizer-swap pipeline chunks per rank. */
    int nvme_chunks = 16;

    /**
     * Overlap the ZeRO-1/2 gradient reduction with the backward pass
     * (per-bucket dependencies), as newer DeepSpeed releases do.
     * Off by default: the DeepSpeed 0.7.x the paper measured reduces
     * after the backward pass (Fig. 10's peak-and-trough pattern).
     * See bench/ablation_overlap for the what-if.
     */
    bool overlap_grad_reduction = false;

    /**
     * FSDP prefetch lookahead: the all-gather for block b may run
     * while up to this many earlier blocks still compute (PyTorch's
     * forward_prefetch/backward_prefetch window). >= 1; unlike
     * ZeRO-3's strict depth-1 gather chain, this is what lets the
     * gather of layer L+1 fully overlap layer L's compute.
     */
    int fsdp_prefetch = 2;
};

/** Everything a strategy needs to build a plan. */
struct PlanContext {
    const Cluster &cluster;
    TransformerConfig model;
    int batch_per_gpu = 16;
    /** NVMe rank->volume mapping (ZeRO-Infinity only). */
    NvmePlacement placement = nvmePlacementConfig('B');
    PlanTuning tuning;

    /** Tokens processed by the whole cluster per iteration. */
    std::int64_t globalTokens() const;
};

class Strategy;

/**
 * One entry of the name-keyed strategy registry: how to spell a
 * strategy on the CLI, configure it from the tp/pp degrees, decide
 * whether a StrategyConfig belongs to it, and instantiate it.
 */
struct StrategyFactory {
    /** CLI spelling (`--strategy <name>`). */
    std::string name;

    /** One-line help text for the name. */
    std::string help;

    /**
     * Build this name's StrategyConfig. @p tp / @p pp are the CLI
     * degrees (0 = the entry's default).
     */
    std::function<StrategyConfig(int tp, int pp)> configure;

    /** Does instantiate() handle @p cfg? First match wins. */
    std::function<bool(const StrategyConfig &)> matches;

    /** Make the strategy for a matching config. */
    std::function<std::unique_ptr<Strategy>(const StrategyConfig &)>
        instantiate;

    /** Does configure() use its @p tp / @p pp argument? A degree
     * given to an entry that ignores it is a user error. */
    bool takes_tp = false;
    bool takes_pp = false;
};

/**
 * Abstract strategy. Concrete classes: DdpStrategy,
 * MegatronStrategy, ZeroStrategy (stages 1-3), ZeroOffloadStrategy,
 * ZeroInfinityStrategy, FsdpStrategy, MoeStrategy, Hybrid3dStrategy.
 */
class Strategy
{
  public:
    explicit Strategy(StrategyConfig cfg);
    virtual ~Strategy() = default;

    Strategy(const Strategy &) = delete;
    Strategy &operator=(const Strategy &) = delete;

    /** The configuration this strategy realizes. */
    const StrategyConfig &config() const { return cfg_; }

    /** Build the task graph for one training iteration. */
    virtual IterationPlan buildIteration(const PlanContext &ctx) const = 0;

    /**
     * Factory dispatching on the configuration: walks the registry
     * in registration order and instantiates the first entry whose
     * matches() accepts @p cfg.
     */
    static std::unique_ptr<Strategy> create(const StrategyConfig &cfg);

    /**
     * Add a registry entry. The built-in strategies self-register on
     * first registry use; additional entries append after them.
     */
    static void registerFactory(StrategyFactory factory);

    /** All registered names, in registration order. */
    static std::vector<std::string> names();

    /** The entry spelled @p name, or nullptr. */
    static const StrategyFactory *find(const std::string &name);

  protected:
    StrategyConfig cfg_;
};

// --- shared helpers used by the concrete strategies --------------------

/**
 * Equivalent GEMM FLOPs of the on-GPU Adam step per parameter (the
 * step is HBM-bound; this constant converts it into engine time —
 * ~17 ms for 1.4 B params at A100 rates).
 */
inline constexpr double kGpuOptimizerFlopsPerParam = 1400.0;

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

/** Effective block count for a model (min(layers, max_blocks)). */
int planBlocks(const TransformerConfig &model, const PlanTuning &tuning);

/**
 * Per-rank forward FLOPs for a pure data-parallel strategy
 * (each DP rank processes batch_per_gpu sequences).
 */
Flops dpForwardFlopsPerRank(const PlanContext &ctx);

/**
 * Append the plain data-parallel forward+backward compute chains for
 * every rank.
 *
 * @param[out] fwd_blocks  fwd_blocks[rank][block] = task id.
 * @param[out] bwd_blocks  bwd_blocks[rank][block] = task id, in
 *                         *reverse layer order* (block 0 runs first
 *                         in the backward pass = last layer block).
 */
void buildDataParallelCompute(
    IterationPlan &plan, const PlanContext &ctx,
    std::vector<std::vector<int>> &fwd_blocks,
    std::vector<std::vector<int>> &bwd_blocks);

} // namespace dstrain

#endif // DSTRAIN_STRATEGIES_STRATEGY_HH
