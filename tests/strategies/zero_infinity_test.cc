/**
 * @file
 * Tests for the ZeRO-Infinity plan builder: NVMe swap volumes, rank
 * to volume mapping, and the optimizer/parameter offload variants.
 */

#include <gtest/gtest.h>

#include "strategies/sharded_dp.hh"

namespace dstrain {
namespace {

class ZeroInfinityPlanTest : public testing::Test
{
  protected:
    ZeroInfinityPlanTest() : cluster_(ClusterSpec{}) {}

    IterationPlan
    build(bool params_too, char placement = 'B', int layers = 26)
    {
        PlanContext ctx{cluster_, TransformerConfig::gpt2Like(layers),
                        16, nvmePlacementConfig(placement),
                        PlanTuning{}};
        return Strategy::create(
                   StrategyConfig::zeroInfinityNvme(params_too))
            ->buildIteration(ctx);
    }

    static Bytes
    nvmeBytes(const IterationPlan &plan, bool writes)
    {
        Bytes total = 0.0;
        for (const PlanTask &t : plan.tasks())
            if (t.kind == TaskKind::NvmeIo && t.io_write == writes)
                total += t.bytes;
        return total;
    }

    Cluster cluster_;
};

TEST_F(ZeroInfinityPlanTest, OptimizerSwapIsTwelveBytesEachWay)
{
    const IterationPlan plan = build(false);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    EXPECT_NEAR(nvmeBytes(plan, false), 12.0 * p, 1e3);
    EXPECT_NEAR(nvmeBytes(plan, true), 12.0 * p, 1e3);
}

TEST_F(ZeroInfinityPlanTest, ParameterOffloadAddsPageTraffic)
{
    const IterationPlan opt = build(false);
    const IterationPlan both = build(true);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    // Params read twice (fwd+bwd page-ins) and written once.
    EXPECT_NEAR(nvmeBytes(both, false) - nvmeBytes(opt, false),
                4.0 * p, 1e3);
    EXPECT_NEAR(nvmeBytes(both, true) - nvmeBytes(opt, true), 2.0 * p,
                1e3);
}

TEST_F(ZeroInfinityPlanTest, SwapPipelineIsChunked)
{
    PlanTuning tuning;
    tuning.nvme_chunks = 8;
    PlanContext ctx{cluster_, TransformerConfig::gpt2Like(26), 16,
                    nvmePlacementConfig('B'), tuning};
    const IterationPlan plan =
        Strategy::create(StrategyConfig::zeroInfinityNvme(false))
            ->buildIteration(ctx);
    int reads = 0;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::NvmeIo && !t.io_write)
            ++reads;
    EXPECT_EQ(reads, 4 * 8);  // ranks x chunks
}

TEST_F(ZeroInfinityPlanTest, RankVolumeMappingFollowsPlacement)
{
    const IterationPlan plan = build(false, 'G');
    const NvmePlacement g = nvmePlacementConfig('G');
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::NvmeIo) {
            EXPECT_EQ(t.volume, g.volumeForRank(t.rank));
        }
    }
}

TEST_F(ZeroInfinityPlanTest, SingleVolumePlacementUsesVolumeZero)
{
    const IterationPlan plan = build(false, 'B');
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::NvmeIo) {
            EXPECT_EQ(t.volume, 0);
        }
    }
}

TEST_F(ZeroInfinityPlanTest, CpuAdamPresentAndSharded)
{
    const IterationPlan plan = build(false);
    double adam_params = 0.0;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::CpuOptimizer)
            adam_params += t.cpu_params;
    EXPECT_NEAR(adam_params,
                static_cast<double>(TransformerConfig::gpt2Like(26)
                                        .parameterCount()),
                1.0);
}

TEST_F(ZeroInfinityPlanTest, ValidatesForAllVariants)
{
    for (bool params_too : {false, true}) {
        for (char placement : {'A', 'D', 'G'}) {
            const IterationPlan plan = build(params_too, placement);
            plan.validate();
            EXPECT_GT(plan.size(), 0u);
        }
    }
}

} // namespace
} // namespace dstrain
