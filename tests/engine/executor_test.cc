/**
 * @file
 * Tests for the plan executor: per-kind task semantics, GPU/CPU
 * serialization, dependencies, iteration chaining, spans, and
 * determinism.
 */

#include <gtest/gtest.h>

#include "engine/executor.hh"

namespace dstrain {
namespace {

class ExecutorTest : public testing::Test
{
  protected:
    ExecutorTest()
        : cluster_(ClusterSpec{}), flows_(sim_, cluster_.topology()),
          tm_(sim_, cluster_, flows_), coll_(tm_), aio_(tm_),
          exec_(sim_, cluster_, flows_, tm_, coll_, aio_)
    {
        exec_.configureStorage(nvmePlacementConfig('B'));
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
    TransferManager tm_;
    CollectiveEngine coll_;
    AioEngine aio_;
    Executor exec_;
};

TEST_F(ExecutorTest, GpuComputeDurationFollowsEfficiencyCurve)
{
    IterationPlan plan;
    plan.setModelLayers(24);
    // 1e12 FLOPs at 312 TFLOP/s * eff(24).
    plan.gpuCompute(0, 1e12, ComputePhase::Forward, {}, "c");
    const IterationResult r = exec_.run(plan, 2, 1);
    const double eff = exec_.calibration().gemmEfficiency(24);
    const SimTime expected =
        1e12 / (312e12 * eff) + exec_.calibration().iteration_fixed;
    EXPECT_NEAR(r.avgIterationTime(), expected, 1e-6);
}

TEST_F(ExecutorTest, EfficiencyGrowsWithDepth)
{
    const EngineCalibration cal;
    EXPECT_LT(cal.gemmEfficiency(12), cal.gemmEfficiency(100));
    EXPECT_LT(cal.gemmEfficiency(100), cal.gemm_eff_max);
    EXPECT_NEAR(cal.gemmEfficiency(26), 0.38, 0.01);
}

TEST_F(ExecutorTest, SameRankComputeSerializes)
{
    IterationPlan plan;
    plan.gpuCompute(0, 1e12, ComputePhase::Forward, {}, "a");
    plan.gpuCompute(0, 1e12, ComputePhase::Forward, {}, "b");
    const IterationResult serial = exec_.run(plan, 2, 1);

    Simulation sim2;
    Cluster cluster2{ClusterSpec{}};
    FlowScheduler flows2(sim2, cluster2.topology());
    TransferManager tm2(sim2, cluster2, flows2);
    CollectiveEngine coll2(tm2);
    AioEngine aio2(tm2);
    Executor exec2(sim2, cluster2, flows2, tm2, coll2, aio2);
    IterationPlan parallel;
    parallel.gpuCompute(0, 1e12, ComputePhase::Forward, {}, "a");
    parallel.gpuCompute(1, 1e12, ComputePhase::Forward, {}, "b");
    const IterationResult par = exec2.run(parallel, 2, 1);

    EXPECT_NEAR(serial.avgIterationTime(),
                2.0 * par.avgIterationTime() -
                    exec_.calibration().iteration_fixed,
                1e-6);
}

TEST_F(ExecutorTest, DependenciesRespected)
{
    IterationPlan plan;
    const int a = plan.gpuCompute(0, 1e12, ComputePhase::Forward, {},
                                  "a");
    const int b =
        plan.gpuCompute(1, 1e12, ComputePhase::Forward, {a}, "b");
    (void)b;
    const IterationResult r = exec_.run(plan, 1, 0);
    // b waits for a: two sequential durations despite two GPUs.
    const double eff = exec_.calibration().gemmEfficiency(24);
    EXPECT_NEAR(r.avgIterationTime(),
                2.0 * 1e12 / (312e12 * eff) +
                    exec_.calibration().iteration_fixed,
                1e-6);
}

TEST_F(ExecutorTest, CpuOptimizerUsesAdamRate)
{
    IterationPlan plan;
    plan.cpuOptimizer(0, 0, 1.5e9, {}, "adam");
    const IterationResult r = exec_.run(plan, 1, 0);
    // 1.5e9 params at 1.5e9 params/s ~ 1 s (+ fixed overhead).
    EXPECT_NEAR(r.avgIterationTime(),
                1.0 + exec_.calibration().iteration_fixed, 0.01);
}

TEST_F(ExecutorTest, CpuOptimizerSerializesPerSocket)
{
    IterationPlan plan;
    plan.cpuOptimizer(0, 0, 1.5e9, {}, "a");
    plan.cpuOptimizer(0, 0, 1.5e9, {}, "b");
    const IterationResult r = exec_.run(plan, 1, 0);
    EXPECT_GT(r.avgIterationTime(), 1.9);
}

TEST_F(ExecutorTest, HostTransferRidesPcie)
{
    IterationPlan plan;
    // 26.24 GB at PCIe x16 effective (26.24 GBps): ~1 s.
    plan.hostTransfer(0, 26.24e9, true, {}, "d2h");
    const IterationResult r = exec_.run(plan, 1, 0);
    EXPECT_NEAR(r.avgIterationTime(), 1.0, 0.05);
}

TEST_F(ExecutorTest, NvmeIoThroughConfiguredVolume)
{
    IterationPlan plan;
    // Rank 2 sits on socket 1 next to the drives: 6.6 GB read from
    // the 2-drive RAID0 (6.6 GBps aggregate) takes ~1 s.
    plan.nvmeIo(2, 0, 6.6e9, false, {}, "rd");
    const IterationResult r = exec_.run(plan, 1, 0);
    EXPECT_NEAR(r.avgIterationTime(), 1.0, 0.05);
}

TEST_F(ExecutorTest, CrossSocketNvmeIoPaysTheXbar)
{
    IterationPlan plan;
    // Rank 0 (socket 0) reading the socket-1 RAID0: the two striped
    // flows share the 4.7 GBps IOD crossbar pool.
    plan.nvmeIo(0, 0, 6.6e9, false, {}, "rd");
    const IterationResult r = exec_.run(plan, 1, 0);
    EXPECT_NEAR(r.avgIterationTime(), 6.6 / 4.7, 0.07);
}

TEST_F(ExecutorTest, CollectiveTaskCompletes)
{
    IterationPlan plan;
    plan.collective(CollectiveOp::AllReduce, CommGroup::worldOf(4),
                    8e9, {}, "ar");
    const IterationResult r = exec_.run(plan, 1, 0);
    EXPECT_GT(r.avgIterationTime(), 0.05);
}

TEST_F(ExecutorTest, IterationsChainAndWarmupExcluded)
{
    IterationPlan plan;
    plan.gpuCompute(0, 1e12, ComputePhase::Forward, {}, "c");
    const IterationResult r = exec_.run(plan, 5, 2);
    EXPECT_EQ(r.iteration_ends.size(), 5u);
    EXPECT_EQ(r.measuredIterations(), 3);
    EXPECT_DOUBLE_EQ(r.measured_begin, r.iteration_ends[1]);
    for (std::size_t i = 1; i < r.iteration_ends.size(); ++i)
        EXPECT_GT(r.iteration_ends[i], r.iteration_ends[i - 1]);
}

TEST_F(ExecutorTest, SpansRecordedForFinalIteration)
{
    IterationPlan plan;
    plan.gpuCompute(0, 1e12, ComputePhase::Forward, {}, "c");
    plan.collective(CollectiveOp::AllReduce, CommGroup::worldOf(4),
                    1e9, {0}, "ar");
    const IterationResult r = exec_.run(plan, 3, 1);
    // 1 compute span + 4 per-rank collective spans.
    EXPECT_EQ(r.spans.size(), 5u);
    for (const TaskSpan &s : r.spans) {
        EXPECT_GE(s.begin, r.iteration_ends[1]);
        EXPECT_LE(s.end, r.measured_end);
        EXPECT_LT(s.begin, s.end);
    }
}

TEST_F(ExecutorTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Simulation sim;
        Cluster cluster{ClusterSpec{}};
        FlowScheduler flows(sim, cluster.topology());
        TransferManager tm(sim, cluster, flows);
        CollectiveEngine coll(tm);
        AioEngine aio(tm);
        Executor exec(sim, cluster, flows, tm, coll, aio);
        IterationPlan plan;
        const int c =
            plan.gpuCompute(0, 5e12, ComputePhase::Forward, {}, "c");
        plan.collective(CollectiveOp::AllReduce, CommGroup::worldOf(4),
                        3e9, {c}, "ar");
        return exec.run(plan, 4, 1).avgIterationTime();
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(ExecutorTest, StreamingRunRetainsNoSegments)
{
    TelemetryConfig telemetry;
    telemetry.bucket = 0.05;
    exec_.configureTelemetry(telemetry);
    IterationPlan plan;
    plan.hostTransfer(0, 26.24e9, true, {}, "d2h");
    const IterationResult r = exec_.run(plan, 3, 1);

    // Every log is armed on the configured grid at the measurement
    // boundary, and the stream buckets are all the memory it holds.
    for (const Resource &res : cluster_.topology().resources()) {
        EXPECT_TRUE(res.log.streamCovers(r.measured_begin,
                                         r.measured_end, 0.05))
            << res.label;
    }
    const TelemetryStats stats = cluster_.topology().telemetryStats();
    EXPECT_GT(stats.buckets_touched, 0u);
    EXPECT_GT(stats.stream_buckets, 0u);
    EXPECT_GE(stats.memory_bytes, stats.stream_buckets * sizeof(double));
    EXPECT_LE(stats.memory_bytes,
              2 * stats.stream_buckets * sizeof(double));
}

TEST_F(ExecutorTest, DeathOnBadIterationCounts)
{
    IterationPlan plan;
    plan.gpuCompute(0, 1.0, ComputePhase::Forward, {}, "c");
    EXPECT_DEATH(exec_.run(plan, 0, 0), "iteration counts");
    EXPECT_DEATH(exec_.run(plan, 2, 2), "iteration counts");
}

} // namespace
} // namespace dstrain
