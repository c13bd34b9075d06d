/**
 * @file
 * Tests for the experiment facade.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"

namespace dstrain {
namespace {

TEST(ExperimentTest, ResolvesExplicitModelSize)
{
    ExperimentConfig cfg =
        paperExperiment(1, StrategyConfig::ddp(), 1.4);
    Experiment exp(std::move(cfg));
    EXPECT_DOUBLE_EQ(exp.model().billions, 1.4);
}

TEST(ExperimentTest, SolvesMaxWhenZero)
{
    ExperimentConfig cfg = paperExperiment(1, StrategyConfig::zero(3));
    Experiment exp(std::move(cfg));
    EXPECT_DOUBLE_EQ(exp.model().billions, 6.6);
}

TEST(ExperimentTest, RunProducesConsistentReport)
{
    ExperimentConfig cfg =
        paperExperiment(1, StrategyConfig::zero(2), 1.4);
    cfg.iterations = 3;
    cfg.warmup = 1;
    Experiment exp(std::move(cfg));
    const ExperimentReport r = exp.run();

    EXPECT_GT(r.tflops, 0.0);
    EXPECT_GT(r.iteration_time, 0.0);
    EXPECT_EQ(r.execution.iteration_ends.size(), 3u);
    EXPECT_EQ(r.bandwidth.per_class.size(), tableIvClasses().size());
    EXPECT_GT(r.footprint.gpu_per_gpu, 0.0);
    EXPECT_GT(r.composition.total(), 0.0);
    EXPECT_FALSE(r.execution.spans.empty());
    // tflops consistent with the raw execution record.
    EXPECT_NEAR(r.tflops, r.execution.achievedTflops(), 1e-9);
}

TEST(ExperimentTest, DeterministicAcrossIdenticalRuns)
{
    auto once = [] {
        ExperimentConfig cfg =
            paperExperiment(1, StrategyConfig::zero(1), 1.4);
        cfg.iterations = 3;
        cfg.warmup = 1;
        Experiment exp(std::move(cfg));
        return exp.run().iteration_time;
    };
    EXPECT_DOUBLE_EQ(once(), once());
}

TEST(ExperimentTest, NvmeStrategyInstallsPlacementDrives)
{
    ExperimentConfig cfg = paperExperiment(
        1, StrategyConfig::zeroInfinityNvme(true), 1.4);
    cfg.placement = nvmePlacementConfig('G');
    Experiment exp(std::move(cfg));
    EXPECT_EQ(exp.config().cluster.node.nvme_drives.size(), 4u);
    const ExperimentReport r = exp.run();
    EXPECT_GT(r.tflops, 0.0);
}

TEST(ExperimentTest, RunExperimentConvenience)
{
    ExperimentConfig cfg =
        paperExperiment(1, StrategyConfig::ddp(), 0.7);
    cfg.iterations = 2;
    cfg.warmup = 1;
    const ExperimentReport r = runExperiment(std::move(cfg));
    EXPECT_GT(r.tflops, 100.0);
}

TEST(ExperimentDeathTest, DoubleRunRejected)
{
    ExperimentConfig cfg =
        paperExperiment(1, StrategyConfig::ddp(), 0.7);
    cfg.iterations = 2;
    cfg.warmup = 1;
    Experiment exp(std::move(cfg));
    exp.run();
    EXPECT_DEATH(exp.run(), "twice");
}

} // namespace
} // namespace dstrain
