/**
 * @file
 * End-to-end tests of the fault-injection subsystem through the
 * Experiment facade: impact measurement, telemetry visibility,
 * determinism (same seed, serial vs parallel), and liveness under
 * link flaps and NIC failures during collectives.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/report.hh"
#include "core/sweep_runner.hh"
#include "telemetry/probe.hh"
#include "util/logging.hh"

namespace dstrain {
namespace {

/** Silence the fault apply/clear inform() chatter. */
class FaultInjectorTest : public testing::Test
{
  protected:
    FaultInjectorTest() { setLogLevel(LogLevel::Silent); }
    ~FaultInjectorTest() override { setLogLevel(LogLevel::Normal); }

    /** The shared scenario: dual-node ZeRO-3, short run. */
    static ExperimentConfig
    baseConfig()
    {
        ExperimentConfig cfg =
            paperExperiment(2, StrategyConfig::zero(3), 6.6);
        cfg.iterations = 4;
        cfg.warmup = 1;
        return cfg;
    }

    /** baseConfig() plus a parsed fault spec. */
    static ExperimentConfig
    faultedConfig(const std::string &spec)
    {
        ExperimentConfig cfg = baseConfig();
        std::vector<ConfigError> errors;
        cfg.faults = parseFaultSpec(spec, &errors);
        EXPECT_TRUE(errors.empty()) << formatConfigErrors(errors);
        return cfg;
    }
};

TEST_F(FaultInjectorTest, EmptyPlanIsBitIdentical)
{
    const ExperimentReport plain = runExperiment(baseConfig());
    ExperimentConfig cfg = baseConfig();
    cfg.faults = FaultPlan{};  // explicitly empty
    const ExperimentReport with_empty = runExperiment(std::move(cfg));
    EXPECT_EQ(reportFingerprint(plain), reportFingerprint(with_empty));
}

TEST_F(FaultInjectorTest, DegradeMeasurablyImpactsTheRun)
{
    const ExperimentReport clean = runExperiment(baseConfig());

    // Aim a 60% RoCE degrade at the middle of the measured window.
    const SimTime mb = clean.execution.measured_begin;
    const SimTime me = clean.execution.measured_end;
    ExperimentConfig cfg = baseConfig();
    FaultEvent ev;
    ev.kind = FaultKind::LinkDegrade;
    ev.begin = mb + 0.3 * (me - mb);
    ev.duration = 0.3 * (me - mb);
    ev.target = "roce";
    ev.fraction = 0.4;
    cfg.faults.events.push_back(ev);

    Experiment exp(std::move(cfg));
    const ExperimentReport faulted = exp.run();

    // The run slowed down, reproducibly.
    EXPECT_GT(faulted.iteration_time, clean.iteration_time);
    ASSERT_EQ(faulted.faults.size(), 1u);
    const FaultImpact &im = faulted.faults[0];
    EXPECT_TRUE(im.restored);
    EXPECT_GT(im.iteration_slowdown, 1.0);

    // Every RoCE direction reports the degraded capacity and a
    // during-average at or below it (and below the clean periods).
    ASSERT_FALSE(im.links.empty());
    for (const LinkImpact &li : im.links) {
        EXPECT_DOUBLE_EQ(li.faulted, li.nominal * 0.4);
        EXPECT_GT(li.avg_before, 0.0);
        EXPECT_LT(li.avg_during, li.avg_before);
        EXPECT_LE(li.avg_during, li.faulted * 1.0001);
    }

    // The degraded window is visible in the Table IV-style telemetry:
    // on the measured grid, every bucket lying fully inside the fault
    // window is bounded by the degraded capacity.
    const SimTime fb = faulted.execution.measured_begin;
    const SimTime fe = faulted.execution.measured_end;
    const SimTime bucket = exp.config().telemetry.bucket;
    const BandwidthSeries roce = probeClassBandwidth(
        exp.cluster().topology(), LinkClass::Roce, fb, fe, bucket);
    double peak = 0.0;
    int inside = 0;
    for (std::size_t b = 0; b < roce.values.size(); ++b) {
        const SimTime b0 = fb + static_cast<double>(b) * bucket;
        if (b0 >= im.applied_at && b0 + bucket <= im.restored_at) {
            peak = std::max(peak, roce.values[b]);
            ++inside;
        }
    }
    EXPECT_GT(inside, 0);
    // Aggregate bidirectional per-node: 4 directions x faulted cap
    // bounds the per-bucket value.
    EXPECT_LE(peak, 4.0 * im.links[0].faulted * 1.0001);

    // The before/during/after averages partition the measured window,
    // so together they carry exactly the RoCE bytes the streamed
    // series holds (warm-up traffic belongs to neither).
    ASSERT_TRUE(im.restored && im.restored_at < fe);
    const SimTime t0 = im.applied_at;
    const SimTime t1 = im.restored_at;
    double impact_bytes = 0.0;
    for (const LinkImpact &li : im.links) {
        impact_bytes += li.avg_before * (t0 - fb) +
                        li.avg_during * (t1 - t0) +
                        li.avg_after * (fe - t1);
    }
    double series_bytes = 0.0;
    for (double v : roce.values)
        series_bytes += v * bucket;
    series_bytes *= exp.cluster().nodeCount();  // per-node -> total
    EXPECT_NEAR(impact_bytes, series_bytes, 1e-9 * series_bytes);
}

TEST_F(FaultInjectorTest, SameSeedSameFingerprint)
{
    const char *spec = "degrade@6+3:roce:0.25,straggler@9+2:rank3:0.7";
    const ExperimentReport a = runExperiment(faultedConfig(spec));
    const ExperimentReport b = runExperiment(faultedConfig(spec));
    const std::string fp = reportFingerprint(a);
    EXPECT_EQ(fp, reportFingerprint(b));
    // The fault section participates in the fingerprint.
    EXPECT_NE(fp.find("|faults="), std::string::npos);
}

TEST_F(FaultInjectorTest, SerialAndParallelSweepsAgree)
{
    const char *specs[] = {
        "degrade@6+3:roce:0.25",
        "flap@7+0.3:roce/n1",
        "nicdown@6+2:n0.nic1",
        "straggler@6+4:rank5:0.6",
    };
    std::vector<ExperimentConfig> points;
    for (const char *s : specs)
        points.push_back(faultedConfig(s));

    const std::vector<ExperimentReport> serial =
        SweepRunner(1).run(points);
    const std::vector<ExperimentReport> parallel =
        SweepRunner(4).run(points);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(reportFingerprint(serial[i]),
                  reportFingerprint(parallel[i]))
            << specs[i];
    }
}

TEST_F(FaultInjectorTest, FlapDuringCollectiveNeitherDeadlocksNorLeaks)
{
    // A full RoCE blackout mid-collective: the run must complete (the
    // flows freeze and resume, or reroute) with nothing left behind.
    ExperimentConfig cfg =
        faultedConfig("flap@6+0.5:roce,nicdown@9+1:n0.nic0");
    Experiment exp(std::move(cfg));
    const ExperimentReport report = exp.run();

    EXPECT_EQ(report.execution.iteration_ends.size(), 4u);
    EXPECT_EQ(exp.transfers().inFlight(), 0u);
    EXPECT_EQ(exp.flows().activeCount(), 0u);
    ASSERT_EQ(report.faults.size(), 2u);
    EXPECT_TRUE(report.faults[0].restored);
    EXPECT_TRUE(report.faults[1].restored);
    // The blackout shows as zero capacity in the impact record.
    for (const LinkImpact &li : report.faults[0].links)
        EXPECT_DOUBLE_EQ(li.faulted, 0.0);
}

TEST_F(FaultInjectorTest, PermanentCutWithoutRerouteIsAUserError)
{
    // Every RoCE link dies for good and nothing routes around it: the
    // run cannot finish, which is the configuration's fault (exit 1),
    // not an engine deadlock (abort).
    EXPECT_EXIT(runExperiment(faultedConfig("linkdown@6:roce")),
                testing::ExitedWithCode(1), "cannot finish");
}

TEST_F(FaultInjectorTest, PermanentCutUnderResilienceSaysReroutingFailed)
{
    // The same cut with --resilience on: the flag is already there
    // and its reroutes found no path around the cut, so the message
    // must not advise it. Still the configuration's fault (exit 1).
    ExperimentConfig cfg = faultedConfig("linkdown@6:roce");
    cfg.resilience.enabled = true;
    EXPECT_EXIT(runExperiment(std::move(cfg)), testing::ExitedWithCode(1),
                "cannot finish.*rerouting under --resilience found no "
                "path around them; restore the links");
}

TEST_F(FaultInjectorTest, LongFlapResumesLateInTheRun)
{
    // Traffic resumes ~11.6 days into the run, where one step of the
    // double clock carries tens of bytes of a flow: a completion whose
    // residue the clock cannot resolve must still finish, not re-queue
    // itself at the same instant forever.
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::zero(3), 1.4);
    cfg.iterations = 3;
    std::vector<ConfigError> errors;
    cfg.faults = parseFaultSpec("flap@0.5+1e6:roce", &errors);
    ASSERT_TRUE(errors.empty()) << formatConfigErrors(errors);
    cfg.telemetry.bucket = 1e5;
    const ExperimentReport r = runExperiment(std::move(cfg));
    EXPECT_GT(r.execution.measured_end, 1e6);
    ASSERT_EQ(r.faults.size(), 1u);
    EXPECT_TRUE(r.faults[0].restored);
}

TEST_F(FaultInjectorTest, StragglerSlowsOnlyItsIterations)
{
    const ExperimentReport clean = runExperiment(baseConfig());
    const ExperimentReport faulted =
        runExperiment(faultedConfig("straggler@6+4:rank0:0.5"));
    EXPECT_GT(faulted.iteration_time, clean.iteration_time);
    ASSERT_EQ(faulted.faults.size(), 1u);
    EXPECT_TRUE(faulted.faults[0].links.empty());
    EXPECT_GT(faulted.faults[0].iteration_slowdown, 1.0);
}

TEST_F(FaultInjectorTest, UnresolvableTargetDiesLoudly)
{
    EXPECT_DEATH(runExperiment(faultedConfig("straggler@1:rank99:0.5")),
                 "rank99");
    EXPECT_DEATH(runExperiment(faultedConfig("nicdown@1+1:n5.nic0")),
                 "n5.nic0");
}

TEST_F(FaultInjectorTest, FabricTargetsResolveOnTheDefaultCluster)
{
    // rail1 on the default two-node cluster: NIC 1's duplex uplink on
    // each node = 4 directed RoCE resources.
    const ExperimentReport rail =
        runExperiment(faultedConfig("degrade@1+1:rail1:0.5"));
    ASSERT_EQ(rail.faults.size(), 1u);
    EXPECT_EQ(rail.faults[0].links.size(), 4u);

    // sw0 is the only switch: everything RoCE hangs off it (2 nodes x
    // 2 NICs x 2 directions).
    const ExperimentReport sw =
        runExperiment(faultedConfig("degrade@1+1:sw0:0.5"));
    ASSERT_EQ(sw.faults.size(), 1u);
    EXPECT_EQ(sw.faults[0].links.size(), 8u);

    // The flat fabric has one rack holding both nodes, so the rack
    // scope covers the same links as the bare class.
    const ExperimentReport rack =
        runExperiment(faultedConfig("degrade@1+1:roce/rack0:0.5"));
    ASSERT_EQ(rack.faults.size(), 1u);
    EXPECT_EQ(rack.faults[0].links.size(), 8u);
}

TEST_F(FaultInjectorTest, FabricTargetErrorsTeachTheNamespaces)
{
    EXPECT_DEATH(runExperiment(faultedConfig("degrade@1+1:rail7:0.5")),
                 "valid target namespaces");
    EXPECT_DEATH(runExperiment(faultedConfig("flap@1+1:sw9")),
                 "valid target namespaces");
    // An out-of-range rack gets the precise bound, not the generic
    // namespace listing.
    EXPECT_DEATH(
        runExperiment(faultedConfig("degrade@1+1:roce/rack3:0.5")),
        "no such rack");
}

TEST_F(FaultInjectorTest, InvalidPlanFailsValidation)
{
    ExperimentConfig cfg = baseConfig();
    FaultEvent ev;
    ev.kind = FaultKind::LinkDegrade;
    ev.begin = 1.0;
    ev.target = "not-a-class";
    cfg.faults.events.push_back(ev);
    EXPECT_FALSE(cfg.validate().empty());
    EXPECT_DEATH(runExperiment(std::move(cfg)), "invalid");
}

} // namespace
} // namespace dstrain
