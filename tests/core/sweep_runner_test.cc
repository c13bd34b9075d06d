/**
 * @file
 * Tests for the parallel sweep runner and the determinism
 * regression suite: a report must be a pure function of its config
 * (bit-identical across repeat runs and across job counts), results
 * must come back in config order, and the progress callback must be
 * complete and serialized.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/presets.hh"
#include "core/report.hh"
#include "core/sweep_runner.hh"

namespace dstrain {
namespace {

/** A small, fast sweep covering distinct strategies and node counts. */
std::vector<ExperimentConfig>
smallSweep()
{
    std::vector<ExperimentConfig> configs;
    for (int nodes : {1, 2}) {
        for (const StrategyConfig &s :
             {StrategyConfig::zero(1), StrategyConfig::zero(3)}) {
            ExperimentConfig cfg = paperExperiment(nodes, s, 1.4);
            cfg.iterations = 3;
            cfg.warmup = 1;
            configs.push_back(std::move(cfg));
        }
    }
    return configs;
}

TEST(DeterminismTest, SameSeedGivesBitIdenticalReports)
{
    // The determinism regression for the incremental scheduler: two
    // runs of the same config must agree on every float bit.
    ExperimentConfig cfg = paperExperiment(1, StrategyConfig::zero(3));
    cfg.iterations = 3;
    cfg.warmup = 1;
    const std::string a = reportFingerprint(runExperiment(cfg));
    const std::string b = reportFingerprint(runExperiment(cfg));
    EXPECT_EQ(a, b);
}

TEST(SweepRunnerTest, ResolvesJobCounts)
{
    EXPECT_GE(SweepRunner(0).jobs(), 1);
    EXPECT_EQ(SweepRunner(1).jobs(), 1);
    EXPECT_EQ(SweepRunner(4).jobs(), 4);
}

TEST(SweepRunnerTest, EmptySweepReturnsEmpty)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunnerTest, ResultsComeBackInConfigOrder)
{
    const std::vector<ExperimentReport> reports =
        SweepRunner(4).run(smallSweep());
    ASSERT_EQ(reports.size(), 4u);
    // smallSweep order: zero1, zero3 (single node), zero1, zero3.
    EXPECT_EQ(reports[0].strategy.displayName(), "ZeRO-1");
    EXPECT_EQ(reports[1].strategy.displayName(), "ZeRO-3");
    EXPECT_EQ(reports[2].strategy.displayName(), "ZeRO-1");
    EXPECT_EQ(reports[3].strategy.displayName(), "ZeRO-3");
}

TEST(SweepRunnerTest, ParallelSweepIsBitIdenticalToSerial)
{
    // The acceptance property: --jobs 4 must be byte-identical to
    // --jobs 1 (each experiment owns its simulation; the pool only
    // changes wall-clock interleaving).
    const std::vector<ExperimentReport> serial =
        SweepRunner(1).run(smallSweep());
    const std::vector<ExperimentReport> parallel =
        SweepRunner(4).run(smallSweep());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(reportFingerprint(serial[i]),
                  reportFingerprint(parallel[i]))
            << "sweep point " << i << " diverged across job counts";
    }
}

TEST(SweepRunnerTest, ProgressReportsEveryPointExactlyOnce)
{
    std::set<std::size_t> seen;
    std::size_t last_done = 0;
    std::size_t calls = 0;
    SweepRunner(4).run(
        smallSweep(),
        [&](std::size_t done, std::size_t total, std::size_t index) {
            // Serialized by the runner: no torn counters.
            ++calls;
            EXPECT_EQ(total, 4u);
            EXPECT_GE(done, 1u);
            EXPECT_LE(done, 4u);
            EXPECT_GT(done, last_done);
            last_done = done;
            EXPECT_TRUE(seen.insert(index).second)
                << "index " << index << " reported twice";
        });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(seen.size(), 4u);
}

TEST(SweepRunnerTest, MoreJobsThanPointsRunsEachPointOnce)
{
    std::vector<ExperimentConfig> configs = smallSweep();
    configs.resize(2);
    const std::vector<ExperimentReport> serial =
        SweepRunner(1).run(configs);
    std::size_t calls = 0;
    const std::vector<ExperimentReport> wide = SweepRunner(8).run(
        configs, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 2u);
    ASSERT_EQ(wide.size(), 2u);
    for (std::size_t i = 0; i < wide.size(); ++i)
        EXPECT_EQ(reportFingerprint(wide[i]), reportFingerprint(serial[i]))
            << "sweep point " << i;
}

TEST(SweepRunnerTest, ManyBackToBackSweepsOnOneRunner)
{
    // Each run() starts and joins its own threads, so sweeps of any
    // size (including fewer points than jobs) follow one another on
    // one runner with nothing carried over.
    const SweepRunner runner(3);
    const ExperimentConfig cfg = smallSweep().front();
    const std::string expect = reportFingerprint(runExperiment(cfg));
    for (std::size_t sweep = 0; sweep < 24; ++sweep) {
        const std::size_t points = sweep % 5;
        const std::vector<ExperimentReport> reports =
            runner.run(std::vector<ExperimentConfig>(points, cfg));
        ASSERT_EQ(reports.size(), points);
        for (const ExperimentReport &r : reports)
            ASSERT_EQ(reportFingerprint(r), expect) << "sweep " << sweep;
    }
}

} // namespace
} // namespace dstrain
