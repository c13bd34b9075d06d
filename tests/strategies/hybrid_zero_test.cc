/**
 * @file
 * Tests for the hybrid ZeRO + tensor-parallel extension.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/presets.hh"
#include "model/flops.hh"
#include "memplan/capacity_solver.hh"
#include "strategies/model_parallel.hh"
#include "util/logging.hh"

namespace dstrain {
namespace {

class HybridZeroTest : public testing::Test
{
  protected:
    HybridZeroTest() : cluster_(ClusterSpec{}) {}

    IterationPlan
    build(int stage, int tp, int layers = 26)
    {
        PlanContext ctx{cluster_, TransformerConfig::gpt2Like(layers),
                        16, nvmePlacementConfig('B'), PlanTuning{}};
        return Strategy::create(StrategyConfig::hybridZero(stage, tp))
            ->buildIteration(ctx);
    }

    Cluster cluster_;
};

TEST_F(HybridZeroTest, ConfigIdentity)
{
    const StrategyConfig c = StrategyConfig::hybridZero(2, 2);
    EXPECT_TRUE(c.isHybridZero());
    EXPECT_EQ(c.modelParallelSize(), 2);
    EXPECT_EQ(c.dataParallelSize(4), 2);
    EXPECT_EQ(c.displayName(), "ZeRO-2 +TP=2");
    validateStrategy(c);
    EXPECT_FALSE(StrategyConfig::zero(2).isHybridZero());
    EXPECT_FALSE(StrategyConfig::megatron(2, 1).isHybridZero());
}

TEST_F(HybridZeroTest, IllegalVariantsFatal)
{
    EXPECT_DEATH(StrategyConfig::hybridZero(3, 2), "stages 1 and 2");
    StrategyConfig c = StrategyConfig::hybridZero(2, 2);
    c.offload = OffloadTarget::Cpu;
    EXPECT_EXIT(validateStrategy(c), testing::ExitedWithCode(1),
                "offloading");
}

TEST_F(HybridZeroTest, PlanMixesTpAndDpCollectives)
{
    const IterationPlan plan = build(2, 2);  // tp=2, dp=2 on 4 GPUs
    int tp_ars = 0;
    int dp_reductions = 0;
    int dp_gathers = 0;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind != TaskKind::Collective)
            continue;
        ASSERT_EQ(t.group.size(), 2);
        if (t.op == CollectiveOp::AllReduce &&
            t.label.find("tp-ar") != std::string::npos) {
            ++tp_ars;
            // TP groups are consecutive ranks.
            EXPECT_EQ(t.group.ranks[1], t.group.ranks[0] + 1);
        }
        if (t.op == CollectiveOp::ReduceScatter) {
            ++dp_reductions;
            // DP position groups are strided by tp.
            EXPECT_EQ(t.group.ranks[1], t.group.ranks[0] + 2);
        }
        if (t.op == CollectiveOp::AllGather)
            ++dp_gathers;
    }
    EXPECT_GT(tp_ars, 0);
    EXPECT_EQ(dp_reductions, 2);  // one per TP position
    EXPECT_EQ(dp_gathers, 2);
}

TEST_F(HybridZeroTest, Stage1AllReducesAcrossReplicas)
{
    const IterationPlan plan = build(1, 2);
    bool found = false;
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective &&
            t.label.find("grad red") != std::string::npos) {
            EXPECT_EQ(t.op, CollectiveOp::AllReduce);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(HybridZeroTest, FullTpDegenerateCaseHasNoDpCollectives)
{
    const IterationPlan plan = build(2, 4);  // dp = 1
    for (const PlanTask &t : plan.tasks()) {
        if (t.kind == TaskKind::Collective) {
            EXPECT_NE(t.label.find("tp-ar"), std::string::npos)
                << t.label;
        }
    }
    plan.validate();
}

TEST_F(HybridZeroTest, ExecutedFlopsMatchConvention)
{
    const IterationPlan plan = build(2, 2);
    // 2 replicas x (16 x 2) sequences each = global tokens 16384.
    const auto cfg = TransformerConfig::gpt2Like(26);
    const Flops fwd = forwardFlops(cfg, 16384);
    const double p = static_cast<double>(cfg.parameterCount());
    EXPECT_NEAR(plan.totalGpuFlops(),
                4.0 * fwd + kGpuOptimizerFlopsPerParam * p,
                plan.totalGpuFlops() * 1e-9);
}

TEST_F(HybridZeroTest, CapacitySitsBetweenZeroAndMegatron)
{
    const ClusterSpec cluster = xe8545Cluster(1);
    const double z2 =
        solveMaxModel(StrategyConfig::zero(2), cluster, 16)
            .entry.billions;
    const double hybrid =
        solveMaxModel(StrategyConfig::hybridZero(2, 4), cluster, 16)
            .entry.billions;
    // Splitting the states 4 ways fits more than plain ZeRO-2.
    EXPECT_GT(hybrid, z2);
}

TEST_F(HybridZeroTest, RunsEndToEnd)
{
    ExperimentConfig cfg =
        paperExperiment(1, StrategyConfig::hybridZero(2, 2), 1.4);
    cfg.iterations = 2;
    cfg.warmup = 1;
    Experiment exp(std::move(cfg));
    const ExperimentReport r = exp.run();
    EXPECT_GT(r.tflops, 10.0);
}

/**
 * FNV-1a-64 digest of the numbers a hybrid ZeRO run reports:
 * iteration ends, TFLOP/s, per-class bandwidth, span count and
 * collective usage (doubles printed with %a, so bit-exact).
 */
std::uint64_t
reportDigest(int nodes, int stage, int tp)
{
    ExperimentConfig cfg =
        paperExperiment(nodes, StrategyConfig::hybridZero(stage, tp), 1.4);
    cfg.iterations = 3;
    cfg.warmup = 1;
    Experiment exp(std::move(cfg));
    const ExperimentReport r = exp.run();
    std::string out = csprintf("tflops=%a|ends=", r.tflops);
    for (SimTime t : r.execution.iteration_ends)
        out += csprintf("%a;", t);
    out += "|bw=";
    for (const BandwidthSummary &s : r.bandwidth.per_class)
        out += csprintf("%a/%a/%a;", s.avg, s.p90, s.peak);
    out += csprintf("|spans=%zu|coll=", r.execution.spans.size());
    for (const CollectiveUsage &u : r.collectives)
        out += csprintf("%d/%d/%llu/%a/%a;", static_cast<int>(u.op),
                        static_cast<int>(u.algo),
                        static_cast<unsigned long long>(u.invocations),
                        u.payload_bytes, u.fabric_bytes);
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : out) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(HybridZeroNumbers, ReportedNumbersArePinned)
{
    struct Pinned {
        int nodes;
        int stage;
        int tp;
        std::uint64_t digest;
    };
    const Pinned pinned[] = {
        {1, 1, 2, 0x0fc1179157522078ull},
        {1, 1, 4, 0x2293b69d13642b72ull},
        {1, 2, 2, 0xd157aee3c2d40e99ull},
        {1, 2, 4, 0x2293b69d13642b72ull},
        {2, 1, 2, 0x098228b68c4057a9ull},
        {2, 1, 4, 0x36bd55059f8e633dull},
        {2, 2, 2, 0x2fa5f07272fa0433ull},
        {2, 2, 4, 0x17bdd3e7b961b7b1ull},
    };
    for (const Pinned &p : pinned) {
        const std::uint64_t got = reportDigest(p.nodes, p.stage, p.tp);
        EXPECT_EQ(got, p.digest)
            << "ZeRO-" << p.stage << " TP " << p.tp << " on " << p.nodes
            << " node(s): 0x" << std::hex << got;
    }
}

} // namespace
} // namespace dstrain
