/**
 * @file
 * Tests for the DDP plan builder: compute totals, communication
 * volume, and overlap structure.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "model/flops.hh"
#include "strategies/sharded_dp.hh"

namespace dstrain {
namespace {

class DdpPlanTest : public testing::Test
{
  protected:
    DdpPlanTest() : cluster_(ClusterSpec{}) {}

    IterationPlan
    build(int layers)
    {
        PlanContext ctx{cluster_, TransformerConfig::gpt2Like(layers),
                        16, nvmePlacementConfig('B'), PlanTuning{}};
        return Strategy::create(StrategyConfig::ddp())
            ->buildIteration(ctx);
    }

    Cluster cluster_;
};

TEST_F(DdpPlanTest, ExecutedFlopsMatchProfilerConvention)
{
    const IterationPlan plan = build(26);
    const auto cfg = TransformerConfig::gpt2Like(26);
    // fwd + recompute + bwd per rank, 4 ranks, plus the optimizer.
    const Flops expected =
        iterationFlops(cfg, 16384, /*with_recompute=*/true) +
        4.0 * kGpuOptimizerFlopsPerParam *
            static_cast<double>(cfg.parameterCount());
    EXPECT_NEAR(plan.totalGpuFlops(), expected, expected * 1e-9);
}

TEST_F(DdpPlanTest, CommunicatesExactlyTheGradients)
{
    const IterationPlan plan = build(26);
    const auto cfg = TransformerConfig::gpt2Like(26);
    EXPECT_NEAR(plan.totalCollectiveBytes(),
                2.0 * static_cast<double>(cfg.parameterCount()),
                1e3);
    // All-reduce only.
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective) {
            EXPECT_EQ(t.op, CollectiveOp::AllReduce);
        }
    }
}

TEST_F(DdpPlanTest, BucketsOverlapBackward)
{
    const IterationPlan plan = build(26);
    // The first all-reduce bucket must NOT depend on any rank's last
    // backward block (that's what overlapping means).
    std::vector<int> last_bwd;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::GpuCompute &&
            t.phase == ComputePhase::Backward)
            last_bwd.push_back(t.id);
    std::sort(last_bwd.begin(), last_bwd.end());
    const std::vector<int> tail(last_bwd.end() - 4, last_bwd.end());
    const PlanTask *first_ar = nullptr;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective) {
            first_ar = &t;
            break;
        }
    }
    ASSERT_NE(first_ar, nullptr);
    for (int dep : first_ar->deps) {
        EXPECT_EQ(std::find(tail.begin(), tail.end(), dep),
                  tail.end());
    }
}

TEST_F(DdpPlanTest, NoHostOrNvmeWork)
{
    const IterationPlan plan = build(26);
    for (const PlanTask &t : plan.tasks()) {
        EXPECT_NE(t.kind, TaskKind::HostTransfer);
        EXPECT_NE(t.kind, TaskKind::CpuOptimizer);
        EXPECT_NE(t.kind, TaskKind::NvmeIo);
    }
}

TEST_F(DdpPlanTest, EveryRankGetsOptimizer)
{
    const IterationPlan plan = build(12);
    int optimizers = 0;
    for (const PlanTask &t : plan.tasks())
        if (t.phase == ComputePhase::Optimizer)
            ++optimizers;
    EXPECT_EQ(optimizers, 4);
}

TEST_F(DdpPlanTest, LayerMetadataRecorded)
{
    EXPECT_EQ(build(26).modelLayers(), 26);
}

} // namespace
} // namespace dstrain
