/**
 * @file
 * Integration tests for checkpoint/restore and hard-failure recovery:
 * no-op guarantees, determinism, restart and elastic policies, and
 * the goodput accounting invariants.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/presets.hh"
#include "core/report.hh"
#include "core/sweep_runner.hh"
#include "recovery/checkpoint.hh"
#include "util/logging.hh"

namespace dstrain {
namespace {

/** A small, fast experiment: 1.4B ZeRO-1 on two nodes. */
ExperimentConfig
baseConfig(int iterations = 5)
{
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::zero(1), 1.4);
    cfg.iterations = iterations;
    cfg.warmup = 1;
    return cfg;
}

/** Mid-measurement-window fault time for @p cfg (via a clean run). */
SimTime
midWindow(const ExperimentConfig &cfg)
{
    ExperimentConfig clean = cfg;
    clean.faults = FaultPlan{};
    clean.recovery = RecoveryConfig{};
    const ExperimentReport r = runExperiment(std::move(clean));
    return r.execution.measured_begin +
           0.5 * (r.execution.measured_end -
                  r.execution.measured_begin);
}

FaultPlan
hardFaultAt(const std::string &kind_target, SimTime begin)
{
    std::vector<ConfigError> errors;
    FaultPlan plan =
        parseFaultSpec(csprintf("%s@%g:%s",
                                kind_target.substr(
                                    0, kind_target.find(':')).c_str(),
                                begin,
                                kind_target.substr(
                                    kind_target.find(':') + 1).c_str()),
                       &errors);
    EXPECT_TRUE(errors.empty()) << formatConfigErrors(errors);
    return plan;
}

/** The goodput <= throughput invariant plus basic sanity. */
void
expectSaneRecovery(const ExperimentReport &r)
{
    ASSERT_TRUE(r.recovery.active);
    EXPECT_LE(r.recovery.goodput_tflops,
              r.recovery.throughput_tflops + 1e-9);
    EXPECT_GE(r.recovery.goodput_tflops, 0.0);
    EXPECT_GE(r.recovery.checkpoint_overhead, 0.0);
    EXPECT_LE(r.recovery.checkpoint_overhead, 1.0);
    EXPECT_GE(r.recovery.checkpoint_time, 0.0);
    EXPECT_GE(r.recovery.recovery_time, 0.0);
    EXPECT_GE(r.recovery.lost_time, 0.0);
}

TEST(RecoveryTest, DisabledPolicyIsBitIdenticalToPlainRun)
{
    // A disabled checkpoint policy with no hard faults must not
    // perturb the run in any way, whatever the other recovery knobs
    // say — the acceptance criterion for the whole subsystem.
    const ExperimentReport plain = runExperiment(baseConfig());

    ExperimentConfig cfg = baseConfig();
    cfg.recovery.policy = RecoveryPolicyKind::Elastic;
    cfg.recovery.detect_delay = 0.123;
    cfg.recovery.rendezvous = 4.5;
    const ExperimentReport noop = runExperiment(std::move(cfg));

    EXPECT_FALSE(noop.recovery.active);
    EXPECT_EQ(reportFingerprint(plain), reportFingerprint(noop));
}

TEST(RecoveryTest, CheckpointedRunCommitsAndAccounts)
{
    ExperimentConfig cfg = baseConfig(6);
    cfg.recovery.checkpoint.every_iterations = 2;
    const ExperimentReport r = runExperiment(std::move(cfg));

    expectSaneRecovery(r);
    // Boundaries 2 and 4 are due (never after the final iteration).
    EXPECT_EQ(r.recovery.checkpoints, 2);
    EXPECT_EQ(r.recovery.recoveries, 0);
    EXPECT_EQ(r.recovery.lost_iterations, 0);
    EXPECT_DOUBLE_EQ(r.recovery.lost_time, 0.0);
    EXPECT_GT(r.recovery.checkpoint_time, 0.0);
    EXPECT_GT(r.recovery.checkpoint_overhead, 0.0);
    // Bytes: 14 B/param per committed checkpoint.
    EXPECT_NEAR(r.recovery.checkpoint_bytes,
                2 * 14.0 * static_cast<double>(r.model.params),
                1e-3 * r.recovery.checkpoint_bytes);
    // Checkpoint holds stretch the run.
    EXPECT_EQ(r.execution.iteration_ends.size(), 6u);
    EXPECT_LT(r.recovery.goodput_tflops, r.recovery.throughput_tflops);
}

TEST(RecoveryTest, CheckpointedRunIsDeterministic)
{
    auto once = [] {
        ExperimentConfig cfg = baseConfig(5);
        cfg.recovery.checkpoint.every_iterations = 2;
        return reportFingerprint(runExperiment(std::move(cfg)));
    };
    EXPECT_EQ(once(), once());
}

TEST(RecoveryTest, IntervalPolicyCheckpoints)
{
    // A tiny interval is due at (almost) every boundary; a huge one
    // never fires.
    ExperimentConfig tiny = baseConfig(5);
    tiny.recovery.checkpoint.interval = 1e-3;
    const ExperimentReport often = runExperiment(std::move(tiny));
    ASSERT_TRUE(often.recovery.active);
    EXPECT_EQ(often.recovery.checkpoints, 4);  // every boundary but last

    ExperimentConfig huge = baseConfig(5);
    huge.recovery.checkpoint.interval = 1e9;
    const ExperimentReport never = runExperiment(std::move(huge));
    ASSERT_TRUE(never.recovery.active);
    EXPECT_EQ(never.recovery.checkpoints, 0);
    EXPECT_DOUBLE_EQ(never.recovery.checkpoint_time, 0.0);
}

TEST(RecoveryTest, NodedownRestartReplaysFromCheckpoint)
{
    ExperimentConfig cfg = baseConfig(6);
    cfg.recovery.checkpoint.every_iterations = 2;
    const SimTime mid = midWindow(cfg);
    cfg.faults = hardFaultAt("nodedown:n1", mid);

    Experiment exp(std::move(cfg));
    const ExperimentReport r = exp.run();

    expectSaneRecovery(r);
    EXPECT_EQ(r.recovery.recoveries, 1);
    EXPECT_GT(r.recovery.time_to_recover, 0.0);
    EXPECT_GT(r.recovery.recovery_time, 0.0);
    EXPECT_GT(r.recovery.lost_time, 0.0);
    // The run still commits every configured iteration.
    EXPECT_EQ(r.execution.iteration_ends.size(), 6u);
    // Byte conservation held across the abort (verifyConservation
    // ran inside run()); every started transfer is accounted. The
    // fault may land during a checkpoint hold with nothing in
    // flight, so aborted == 0 is legitimate.
    const TransferManager::Stats &stats = exp.transfers().stats();
    EXPECT_EQ(stats.conservation_violations, 0u);
    EXPECT_EQ(stats.started, stats.completed + stats.aborted);
}

TEST(RecoveryTest, NodedownRestartIsDeterministic)
{
    auto once = [] {
        ExperimentConfig cfg = baseConfig(6);
        cfg.recovery.checkpoint.every_iterations = 2;
        cfg.faults = hardFaultAt("nodedown:n1", 20.0);
        return reportFingerprint(runExperiment(std::move(cfg)));
    };
    EXPECT_EQ(once(), once());
}

TEST(RecoveryTest, GpudownRestartRecovers)
{
    ExperimentConfig cfg = baseConfig(6);
    cfg.recovery.checkpoint.every_iterations = 2;
    const SimTime mid = midWindow(cfg);
    cfg.faults = hardFaultAt("gpudown:rank3", mid);

    const ExperimentReport r = runExperiment(std::move(cfg));
    expectSaneRecovery(r);
    EXPECT_EQ(r.recovery.recoveries, 1);
    EXPECT_EQ(r.execution.iteration_ends.size(), 6u);
}

TEST(RecoveryTest, ElasticContinuesOnSurvivors)
{
    ExperimentConfig cfg = baseConfig(6);
    cfg.recovery.checkpoint.every_iterations = 2;
    cfg.recovery.policy = RecoveryPolicyKind::Elastic;
    const SimTime mid = midWindow(cfg);
    cfg.faults = hardFaultAt("nodedown:n1", mid);

    const ExperimentReport r = runExperiment(std::move(cfg));
    expectSaneRecovery(r);
    EXPECT_EQ(r.recovery.recoveries, 1);
    EXPECT_EQ(r.execution.iteration_ends.size(), 6u);
    // Post-fault iterations run on half the GPUs: the committed
    // per-iteration FLOPs drop.
    ASSERT_EQ(r.execution.iteration_flops.size(), 6u);
    EXPECT_LT(r.execution.iteration_flops.back(),
              r.execution.iteration_flops.front());
}

TEST(RecoveryTest, NodedownWithoutCheckpointReplaysFromScratch)
{
    ExperimentConfig cfg = baseConfig(5);
    const SimTime mid = midWindow(cfg);
    cfg.faults = hardFaultAt("nodedown:n1", mid);

    const ExperimentReport r = runExperiment(std::move(cfg));
    expectSaneRecovery(r);
    EXPECT_EQ(r.recovery.checkpoints, 0);
    EXPECT_EQ(r.recovery.recoveries, 1);
    // Everything that had completed is lost.
    EXPECT_GE(r.recovery.lost_iterations, 1);
    EXPECT_EQ(r.execution.iteration_ends.size(), 5u);
}

/** What one recovery moved, and the checkpoint it restored. */
struct RecoveryTraffic {
    Bytes nvme_read = 0.0;       ///< over every drive's media
    std::vector<Bytes> roce_in;  ///< arriving at each node's NICs
    Bytes shards = 0.0;          ///< every rank's checkpoint shard
    Bytes dead_shards = 0.0;     ///< the shards of node 1's ranks
};

/** Add the NVMe media and per-node inbound RoCE bytes carried
 * through @p t to @p out. */
void
addBytesThrough(const Topology &topo, SimTime t, RecoveryTraffic *out)
{
    out->roce_in.resize(static_cast<std::size_t>(topo.nodeCount()), 0.0);
    for (const Resource &res : topo.resources())
        if (res.cls == LinkClass::NvmeMedia)
            out->nvme_read += res.log.bytesThrough(t);
    for (std::size_t h = 0; h < topo.halfLinkCount(); ++h) {
        const HalfLink &hl = topo.halfLink(static_cast<HalfLinkId>(h));
        const Component &to = topo.component(hl.to);
        if (hl.cls == LinkClass::Roce && to.kind == ComponentKind::Nic) {
            out->roce_in[static_cast<std::size_t>(to.node)] +=
                topo.resource(hl.resource).log.bytesThrough(t);
        }
    }
}

/**
 * The traffic of @p cfg's one hard fault, a nodedown of n1 at
 * @p fault_time, from the fault to the resume: nothing else moves
 * while the run is held, and nothing is written. A first run finds
 * the resume instant; a second, identical one reads the byte counters
 * at both ends.
 */
RecoveryTraffic
recoveryTraffic(const ExperimentConfig &cfg, SimTime fault_time)
{
    const SimTime resume =
        fault_time + runExperiment(cfg).recovery.time_to_recover;
    Experiment exp(cfg);
    const Topology &topo = exp.cluster().topology();
    RecoveryTraffic before;
    RecoveryTraffic moved;
    exp.sim().events().schedule(fault_time, [&] {
        addBytesThrough(topo, fault_time, &before);
    });
    exp.sim().events().schedule(resume, [&] {
        addBytesThrough(topo, resume, &moved);
    });
    EXPECT_EQ(exp.run().recovery.recoveries, 1);

    // `moved` read the counters at the resume: take off the fault's.
    moved.nvme_read -= before.nvme_read;
    for (std::size_t n = 0; n < moved.roce_in.size(); ++n)
        moved.roce_in[n] -= before.roce_in[n];
    const int world = exp.cluster().spec().totalGpus();
    for (int r = 0; r < world; ++r) {
        const Bytes shard = checkpointShardBytes(
            cfg.strategy, exp.model().params, world, r);
        moved.shards += shard;
        if (exp.cluster().nodeOfRank(r) == 1)
            moved.dead_shards += shard;
    }
    return moved;
}

TEST(RecoveryTest, EachPolicyReadsEveryShardAndShipsTheDeadNodes)
{
    // Both policies read every shard once: survivors from local NVMe,
    // the dead node's from its mirror, the next node. Restart ships
    // the dead node's shards whole to the replacement; elastic ships
    // a 1/survivors share to each survivor but the mirror.
    for (const bool elastic : {false, true}) {
        SCOPED_TRACE(elastic ? "elastic on 3 nodes" : "restart on 2 nodes");
        ExperimentConfig cfg = paperExperiment(
            elastic ? 3 : 2, StrategyConfig::zero(1), 1.4);
        cfg.iterations = 6;
        cfg.warmup = 1;
        cfg.recovery.checkpoint.every_iterations = 2;
        if (elastic)
            cfg.recovery.policy = RecoveryPolicyKind::Elastic;
        const SimTime fault_time = midWindow(cfg);
        cfg.faults = hardFaultAt("nodedown:n1", fault_time);
        const RecoveryTraffic moved = recoveryTraffic(cfg, fault_time);

        ASSERT_GT(moved.dead_shards, 0.0);
        const Bytes tol = 1e-6 * moved.shards;
        EXPECT_NEAR(moved.nvme_read, moved.shards, tol);
        ASSERT_EQ(moved.roce_in.size(), elastic ? 3u : 2u);
        if (elastic) {
            // n2 mirrors n1; n0 is the one other survivor.
            EXPECT_NEAR(moved.roce_in[0], moved.dead_shards / 2, tol);
            EXPECT_NEAR(moved.roce_in[1], 0.0, tol);
            EXPECT_NEAR(moved.roce_in[2], 0.0, tol);
        } else {
            // n0 mirrors n1 and ships to the replacement.
            EXPECT_NEAR(moved.roce_in[0], 0.0, tol);
            EXPECT_NEAR(moved.roce_in[1], moved.dead_shards, tol);
        }
    }
}

TEST(RecoveryTest, SweepFingerprintsMatchSerialAndParallel)
{
    // The acceptance criterion: a checkpointed + nodedown run is
    // deterministic under the parallel sweep runner — serial and
    // parallel execution produce bit-identical fingerprints.
    auto sweep = [](int jobs) {
        std::vector<ExperimentConfig> configs;
        for (int i = 0; i < 3; ++i) {
            ExperimentConfig cfg = baseConfig(6);
            cfg.recovery.checkpoint.every_iterations = 2;
            cfg.faults = hardFaultAt("nodedown:n1", 18.0 + 2.0 * i);
            configs.push_back(std::move(cfg));
        }
        SweepRunner runner(jobs);
        std::vector<std::string> prints;
        for (const ExperimentReport &r :
             runner.run(std::move(configs)))
            prints.push_back(reportFingerprint(r));
        return prints;
    };
    EXPECT_EQ(sweep(1), sweep(3));
}

TEST(RecoveryTest, ValidateCatchesBadCombinations)
{
    // Elastic without a checkpoint policy.
    ExperimentConfig cfg = baseConfig();
    cfg.recovery.policy = RecoveryPolicyKind::Elastic;
    cfg.faults = hardFaultAt("nodedown:n1", 5.0);
    EXPECT_FALSE(cfg.validate().empty());

    // Elastic with a gpudown fault.
    ExperimentConfig gd = baseConfig();
    gd.recovery.policy = RecoveryPolicyKind::Elastic;
    gd.recovery.checkpoint.every_iterations = 2;
    gd.faults = hardFaultAt("gpudown:rank0", 5.0);
    EXPECT_FALSE(gd.validate().empty());

    // nodedown on a single-node cluster.
    ExperimentConfig single =
        paperExperiment(1, StrategyConfig::zero(1), 1.4);
    single.faults = hardFaultAt("nodedown:n0", 5.0);
    EXPECT_FALSE(single.validate().empty());

    // Hard fault with a duration.
    std::vector<ConfigError> errors;
    parseFaultSpec("nodedown@3+1:n1", &errors);
    EXPECT_FALSE(errors.empty());

    // All fine: restart + checkpoint + nodedown on two nodes.
    ExperimentConfig ok = baseConfig();
    ok.recovery.checkpoint.every_iterations = 2;
    ok.faults = hardFaultAt("nodedown:n1", 5.0);
    EXPECT_TRUE(ok.validate().empty())
        << formatConfigErrors(ok.validate());
}

TEST(RecoveryTest, RecoveryReportRendering)
{
    ExperimentConfig cfg = baseConfig(6);
    cfg.recovery.checkpoint.every_iterations = 2;
    cfg.faults = hardFaultAt("nodedown:n1", 20.0);
    const ExperimentReport r = runExperiment(std::move(cfg));

    EXPECT_FALSE(summarizeRecovery(r.recovery).empty());
    EXPECT_EQ(summarizeRecovery(RecoveryReport{}), "");
    const std::string table = recoveryTable({r}).render();
    EXPECT_NE(table.find("Goodput"), std::string::npos);
    // The fingerprint carries the recovery section only when active.
    EXPECT_NE(reportFingerprint(r).find("|recovery="),
              std::string::npos);
}

} // namespace
} // namespace dstrain
