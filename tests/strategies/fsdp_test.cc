/**
 * @file
 * Tests for the FSDP plan builder: ZeRO-3-shaped communication volume
 * at full bandwidth, the bounded prefetch window, and — end to end —
 * the gather-of-block-L+1-overlaps-compute-of-block-L timeline the
 * strategy exists to produce.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/presets.hh"
#include "strategies/sharded_dp.hh"
#include "util/logging.hh"

namespace dstrain {
namespace {

class FsdpPlanTest : public testing::Test
{
  protected:
    FsdpPlanTest() : cluster_(ClusterSpec{}) {}

    IterationPlan
    build(PlanTuning tuning = {})
    {
        PlanContext ctx{cluster_, TransformerConfig::gpt2Like(26), 16,
                        nvmePlacementConfig('B'), tuning};
        return Strategy::create(StrategyConfig::fsdp())
            ->buildIteration(ctx);
    }

    static const PlanTask *
    findTask(const IterationPlan &plan, const std::string &label)
    {
        for (const PlanTask &t : plan.tasks())
            if (t.label == label)
                return &t;
        return nullptr;
    }

    Cluster cluster_;
};

TEST_F(FsdpPlanTest, Zero3ShapedVolumeAtFullBandwidth)
{
    const IterationPlan plan = build();
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    Bytes ag = 0.0, rs = 0.0;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind != TaskKind::Collective)
            continue;
        if (t.op == CollectiveOp::AllGather) {
            ag += t.bytes;
            // The FSDP contrast with ZeRO-3: flat per-block shards
            // gathered at full fabric bandwidth, no fetch overhead.
            EXPECT_DOUBLE_EQ(t.comm_bw_factor, 1.0);
            EXPECT_DOUBLE_EQ(t.extra_latency, 0.0);
        } else if (t.op == CollectiveOp::ReduceScatter) {
            rs += t.bytes;
        }
    }
    // fwd + bwd re-gather = 2 x 2P; per-block grad scatter = 2P.
    EXPECT_NEAR(ag, 4.0 * p, 1e3);
    EXPECT_NEAR(rs, 2.0 * p, 1e3);
}

TEST_F(FsdpPlanTest, GatherInsidePrefetchWindowSkipsComputeGate)
{
    const IterationPlan plan = build();
    // With the default window of 2, the gathers of blocks 1 and 2
    // wait only on the gather chain — NOT on any forward compute —
    // so they overlap block 0's compute.
    for (int b : {1, 2}) {
        const PlanTask *ag =
            findTask(plan, csprintf("fsdp fwd ag b%d", b));
        ASSERT_NE(ag, nullptr);
        ASSERT_EQ(ag->deps.size(), 1u);
        EXPECT_EQ(plan.tasks()[static_cast<std::size_t>(ag->deps[0])]
                      .label,
                  csprintf("fsdp fwd ag b%d", b - 1));
    }
}

TEST_F(FsdpPlanTest, GatherBeyondWindowGatesOnCompute)
{
    const int n = cluster_.spec().totalGpus();
    const IterationPlan plan = build();
    // Block 3 sits past the window: its gather must wait for every
    // rank to consume block 0, bounding live gathered shards.
    const PlanTask *ag = findTask(plan, "fsdp fwd ag b3");
    ASSERT_NE(ag, nullptr);
    ASSERT_EQ(ag->deps.size(), static_cast<std::size_t>(1 + n));
    int compute_gates = 0;
    for (const int dep : ag->deps) {
        const PlanTask &d =
            plan.tasks()[static_cast<std::size_t>(dep)];
        if (d.kind == TaskKind::GpuCompute) {
            EXPECT_EQ(d.label, csprintf("fwd r%d b0", d.rank));
            ++compute_gates;
        }
    }
    EXPECT_EQ(compute_gates, n);

    // Shrinking the window moves the gate closer.
    PlanTuning tight;
    tight.fsdp_prefetch = 1;
    const IterationPlan plan1 = build(tight);
    const PlanTask *ag2 = findTask(plan1, "fsdp fwd ag b2");
    ASSERT_NE(ag2, nullptr);
    EXPECT_EQ(ag2->deps.size(), static_cast<std::size_t>(1 + n));
}

TEST_F(FsdpPlanTest, BackwardRegathersInReverseWithChainedScatter)
{
    const IterationPlan plan = build();
    // Parameters reshard after the forward: every block re-gathers
    // in the backward, and each block's reduce-scatter chains after
    // its backward compute.
    const PlanTask *bwd_ag = findTask(plan, "fsdp bwd ag b0");
    ASSERT_NE(bwd_ag, nullptr);
    const PlanTask *rs = findTask(plan, "fsdp rs b0");
    ASSERT_NE(rs, nullptr);
    bool gated_on_bwd = false;
    for (const int dep : rs->deps)
        gated_on_bwd |=
            plan.tasks()[static_cast<std::size_t>(dep)].phase ==
            ComputePhase::Backward;
    EXPECT_TRUE(gated_on_bwd);
}

TEST_F(FsdpPlanTest, OptimizerShardedAcrossRanks)
{
    const IterationPlan plan = build();
    const double p = static_cast<double>(
        TransformerConfig::gpt2Like(26).parameterCount());
    double opt_flops = 0.0;
    for (const PlanTask &t : plan.tasks())
        if (t.phase == ComputePhase::Optimizer)
            opt_flops += t.flops;
    EXPECT_NEAR(opt_flops, kGpuOptimizerFlopsPerParam * p,
                opt_flops * 1e-9);
}

TEST(FsdpExecutionTest, PrefetchOverlapsGatherWithForwardCompute)
{
    // The acceptance criterion: in the executed timeline, the
    // all-gather of block L+1 runs while block L computes.
    ExperimentConfig cfg =
        paperExperiment(1, StrategyConfig::fsdp(), 1.4);
    cfg.iterations = 2;
    cfg.warmup = 1;
    const ExperimentReport r = runExperiment(std::move(cfg));

    const TaskSpan *ag1 = nullptr;
    const TaskSpan *fwd0 = nullptr;
    for (const TaskSpan &s : r.execution.spans) {
        if (s.label == "fsdp fwd ag b1")
            ag1 = &s;
        if (s.label == "fwd r0 b0")
            fwd0 = &s;
    }
    ASSERT_NE(ag1, nullptr);
    ASSERT_NE(fwd0, nullptr);
    // Strict overlap: the gather starts before the compute ends and
    // vice versa.
    EXPECT_LT(ag1->begin, fwd0->end);
    EXPECT_LT(fwd0->begin, ag1->end);
}

} // namespace
} // namespace dstrain
