/**
 * @file
 * Tests for the Megatron-LM plan builder: TP groups, pipeline
 * structure, DP gradient reduction and volumes.
 */

#include <gtest/gtest.h>

#include "model/flops.hh"
#include "strategies/model_parallel.hh"

namespace dstrain {
namespace {

IterationPlan
build(int nodes, int tp, int pp, int layers)
{
    ClusterSpec spec;
    spec.nodes = nodes;
    Cluster cluster(spec);
    PlanContext ctx{cluster, TransformerConfig::gpt2Like(layers), 16,
                    nvmePlacementConfig('B'), PlanTuning{}};
    return Strategy::create(StrategyConfig::megatron(tp, pp))
        ->buildIteration(ctx);
}

TEST(MegatronPlanTest, TpCollectivesStayInGroup)
{
    const IterationPlan plan = build(1, 4, 1, 26);
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind != TaskKind::Collective)
            continue;
        EXPECT_EQ(t.group.size(), 4);
        EXPECT_EQ(t.op, CollectiveOp::AllReduce);
    }
}

TEST(MegatronPlanTest, ComputeSplitsAcrossModelParallelRanks)
{
    const IterationPlan plan = build(1, 4, 1, 26);
    const auto cfg = TransformerConfig::gpt2Like(26);
    // One replica processes 16 x 4 sequences; executed flops match
    // the profiler convention (plus optimizer shards).
    const Flops expected =
        iterationFlops(cfg, 16384, true) +
        kGpuOptimizerFlopsPerParam *
            static_cast<double>(cfg.parameterCount());
    EXPECT_NEAR(plan.totalGpuFlops(), expected, expected * 1e-9);
}

TEST(MegatronPlanTest, BackwardCarriesRecomputeAllReduces)
{
    const IterationPlan plan = build(1, 4, 1, 26);
    Bytes fwd_ar = 0.0;
    Bytes bwd_ar = 0.0;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind != TaskKind::Collective)
            continue;
        if (t.label.find("fwd") != std::string::npos)
            fwd_ar += t.bytes;
        else if (t.label.find("bwd") != std::string::npos)
            bwd_ar += t.bytes;
    }
    EXPECT_GT(fwd_ar, 0.0);
    EXPECT_NEAR(bwd_ar, 2.0 * fwd_ar, fwd_ar * 1e-9);
}

TEST(MegatronPlanTest, DataParallelReplicasAllReduceGradients)
{
    // 8 GPUs, TP=4 -> DP=2: expect per-position gradient all-reduces
    // over 2-rank groups.
    const IterationPlan plan = build(2, 4, 1, 26);
    int dp_ars = 0;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective && t.group.size() == 2) {
            ++dp_ars;
            EXPECT_EQ(t.op, CollectiveOp::AllReduce);
        }
    }
    EXPECT_EQ(dp_ars, 4);  // one per model-parallel position
}

TEST(MegatronPlanTest, PipelineAddsMicrobatchCells)
{
    const IterationPlan with_pp = build(1, 2, 2, 26);
    const IterationPlan no_pp = build(1, 4, 1, 26);
    // Same total compute either way.
    EXPECT_NEAR(with_pp.totalGpuFlops(), no_pp.totalGpuFlops(),
                no_pp.totalGpuFlops() * 1e-9);
    with_pp.validate();
}

TEST(MegatronPlanTest, DualNodeTpSpansNodes)
{
    const IterationPlan plan = build(2, 8, 1, 225);
    bool found_spanning = false;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective && t.group.size() == 8)
            found_spanning = true;
    }
    EXPECT_TRUE(found_spanning);
}

} // namespace
} // namespace dstrain
