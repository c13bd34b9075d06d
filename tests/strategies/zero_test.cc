/**
 * @file
 * Tests for the ZeRO stage 1-3 plan builders: per-stage collective
 * mixes and the +50% stage-3 volume claim.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "strategies/sharded_dp.hh"

namespace dstrain {
namespace {

class ZeroPlanTest : public testing::Test
{
  protected:
    ZeroPlanTest() : cluster_(ClusterSpec{}) {}

    IterationPlan
    build(int stage, int layers = 26)
    {
        PlanContext ctx{cluster_, TransformerConfig::gpt2Like(layers),
                        16, nvmePlacementConfig('B'), PlanTuning{}};
        return Strategy::create(StrategyConfig::zero(stage))
            ->buildIteration(ctx);
    }

    static Bytes
    bytesOf(const IterationPlan &plan, CollectiveOp op)
    {
        Bytes total = 0.0;
        for (const PlanTask &t : plan.tasks())
            if (t.kind == TaskKind::Collective && t.op == op)
                total += t.bytes;
        return total;
    }

    Cluster cluster_;
};

TEST_F(ZeroPlanTest, Stage1AllReducesAndGathers)
{
    const IterationPlan plan = build(1);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    EXPECT_NEAR(bytesOf(plan, CollectiveOp::AllReduce), 2.0 * p, 1e3);
    EXPECT_NEAR(bytesOf(plan, CollectiveOp::AllGather), 2.0 * p, 1e3);
    EXPECT_DOUBLE_EQ(bytesOf(plan, CollectiveOp::ReduceScatter), 0.0);
}

TEST_F(ZeroPlanTest, Stage2ReduceScattersInstead)
{
    const IterationPlan plan = build(2);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    EXPECT_DOUBLE_EQ(bytesOf(plan, CollectiveOp::AllReduce), 0.0);
    EXPECT_NEAR(bytesOf(plan, CollectiveOp::ReduceScatter), 2.0 * p,
                1e3);
    EXPECT_NEAR(bytesOf(plan, CollectiveOp::AllGather), 2.0 * p, 1e3);
}

TEST_F(ZeroPlanTest, Stage3GathersTwiceAndScattersOnce)
{
    const IterationPlan plan = build(3);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    // fwd + bwd gathers = 2 x 2P; grads reduce-scatter = 2P.
    EXPECT_NEAR(bytesOf(plan, CollectiveOp::AllGather), 4.0 * p, 1e3);
    EXPECT_NEAR(bytesOf(plan, CollectiveOp::ReduceScatter), 2.0 * p,
                1e3);
}

TEST_F(ZeroPlanTest, Stage3GathersCarryFetchCosts)
{
    const IterationPlan plan = build(3);
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective &&
            t.op == CollectiveOp::AllGather) {
            EXPECT_DOUBLE_EQ(t.extra_latency, kZero3FetchOverhead);
            EXPECT_DOUBLE_EQ(t.comm_bw_factor,
                             kZero3GatherBandwidthFactor);
        }
    }
}

TEST_F(ZeroPlanTest, Stage12ReductionWaitsForBackward)
{
    // DeepSpeed 0.7 semantics: reductions start after the full
    // backward pass (the paper's peak-and-trough pattern).
    const IterationPlan plan = build(2);
    int last_bwd = -1;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::GpuCompute &&
            t.phase == ComputePhase::Backward)
            last_bwd = std::max(last_bwd, t.id);
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective) {
            EXPECT_GT(t.id, last_bwd);
        }
    }
}

TEST_F(ZeroPlanTest, OverlapKnobGatesBucketsOnTheirBlocks)
{
    PlanTuning tuning;
    tuning.overlap_grad_reduction = true;
    PlanContext ctx{cluster_, TransformerConfig::gpt2Like(26), 16,
                    nvmePlacementConfig('B'), tuning};
    const IterationPlan plan =
        Strategy::create(StrategyConfig::zero(2))->buildIteration(ctx);
    // The first reduction bucket no longer waits for the last
    // backward block of any rank.
    std::vector<int> bwd_ids;
    for (const PlanTask &t : plan.tasks())
        if (t.kind == TaskKind::GpuCompute &&
            t.phase == ComputePhase::Backward)
            bwd_ids.push_back(t.id);
    std::sort(bwd_ids.begin(), bwd_ids.end());
    const std::vector<int> tail(bwd_ids.end() - 4, bwd_ids.end());
    const PlanTask *first_red = nullptr;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective) {
            first_red = &t;
            break;
        }
    }
    ASSERT_NE(first_red, nullptr);
    for (int dep : first_red->deps)
        EXPECT_EQ(std::find(tail.begin(), tail.end(), dep), tail.end());
}

TEST_F(ZeroPlanTest, OptimizerShardedAcrossRanks)
{
    const IterationPlan plan = build(2);
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    double opt_flops = 0.0;
    for (const PlanTask &t : plan.tasks())
        if (t.phase == ComputePhase::Optimizer)
            opt_flops += t.flops;
    // 4 ranks x P/4 = P parameters' worth of optimizer work total.
    EXPECT_NEAR(opt_flops, kGpuOptimizerFlopsPerParam * p,
                opt_flops * 1e-9);
}

TEST_F(ZeroPlanTest, PlansValidateAndCarryMetadata)
{
    for (int stage : {1, 2, 3}) {
        const IterationPlan plan = build(stage, 40);
        plan.validate();
        EXPECT_EQ(plan.modelLayers(), 40);
        EXPECT_GT(plan.size(), 0u);
    }
}

} // namespace
} // namespace dstrain
