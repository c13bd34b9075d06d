/**
 * @file
 * Tests for the ZeRO-Offload plan builders: host staging volumes,
 * CPU optimizer placement, and stage differences.
 */

#include <gtest/gtest.h>

#include "strategies/sharded_dp.hh"

namespace dstrain {
namespace {

class ZeroOffloadPlanTest : public testing::Test
{
  protected:
    ZeroOffloadPlanTest() : cluster_(ClusterSpec{}) {}

    IterationPlan
    build(int stage, int layers = 26)
    {
        PlanContext ctx{cluster_, TransformerConfig::gpt2Like(layers),
                        16, nvmePlacementConfig('B'), PlanTuning{}};
        return Strategy::create(StrategyConfig::zeroOffloadCpu(stage))
            ->buildIteration(ctx);
    }

    Cluster cluster_;
};

TEST_F(ZeroOffloadPlanTest, OptimizerRunsOnCpuNotGpu)
{
    const IterationPlan plan = build(2);
    int cpu_adam = 0;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::CpuOptimizer)
            ++cpu_adam;
        if (t.kind == TaskKind::GpuCompute) {
            EXPECT_NE(t.phase, ComputePhase::Optimizer) << t.label;
        }
    }
    EXPECT_EQ(cpu_adam, 4);  // one shard per rank
}

TEST_F(ZeroOffloadPlanTest, CpuWorkPinnedToGpuSockets)
{
    const IterationPlan plan = build(2);
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind != TaskKind::CpuOptimizer)
            continue;
        EXPECT_EQ(t.node, 0);
        EXPECT_TRUE(t.socket == 0 || t.socket == 1);
    }
}

TEST_F(ZeroOffloadPlanTest, HostTrafficMatchesShards)
{
    const IterationPlan plan = build(2);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    Bytes down = 0.0;
    Bytes up = 0.0;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind != TaskKind::HostTransfer)
            continue;
        (t.to_host ? down : up) += t.bytes;
    }
    // Gradient shards down (2P total) and fp16 params back (2P).
    EXPECT_NEAR(down, 2.0 * p, 1e3);
    EXPECT_NEAR(up, 2.0 * p, 1e3);
}

TEST_F(ZeroOffloadPlanTest, Stage1DownloadsAfterFullReduction)
{
    const IterationPlan plan = build(1);
    int last_collective = -1;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::Collective &&
            t.op == CollectiveOp::AllReduce)
            last_collective = std::max(last_collective, t.id);
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::HostTransfer && t.to_host) {
            EXPECT_GT(t.id, last_collective);
        }
    }
}

TEST_F(ZeroOffloadPlanTest, Stage3StillGathersParameters)
{
    const IterationPlan plan = build(3);
    Bytes gathered = 0.0;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::Collective &&
            t.op == CollectiveOp::AllGather)
            gathered += t.bytes;
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    EXPECT_NEAR(gathered, 4.0 * p, 1e3);
}

TEST_F(ZeroOffloadPlanTest, NoNvmeWork)
{
    for (int stage : {1, 2, 3}) {
        const IterationPlan plan = build(stage);
        for (const PlanTask &t : plan.tasks())
            EXPECT_NE(t.kind, TaskKind::NvmeIo);
        plan.validate();
    }
}

} // namespace
} // namespace dstrain
