/**
 * @file
 * Tests for the per-class bandwidth probes.
 */

#include <gtest/gtest.h>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "telemetry/probe.hh"

namespace dstrain {
namespace {

TEST(ProbeTest, TableIvClassOrder)
{
    const auto &classes = tableIvClasses();
    ASSERT_EQ(classes.size(), 7u);
    EXPECT_EQ(classes.front(), LinkClass::Dram);
    EXPECT_EQ(classes.back(), LinkClass::Roce);
}

TEST(ProbeTest, AggregatesBothDirections)
{
    Simulation sim;
    Cluster cluster{ClusterSpec{}};
    cluster.topology().armStreams(0.0, 0.1);
    FlowScheduler flows(sim, cluster.topology());
    // Opposite-direction flows on the same NVLink pair.
    for (int dir = 0; dir < 2; ++dir) {
        FlowSpec spec;
        spec.route = &cluster.router().route(
            cluster.gpuByRank(dir), cluster.gpuByRank(1 - dir));
        spec.bytes = 80e9;
        flows.start(std::move(spec));
    }
    sim.run();
    flows.finalizeLogs();
    const BandwidthSeries s = probeClassBandwidth(
        cluster.topology(), LinkClass::NvLink, 0.0, sim.now(), 0.1);
    // 2 x 80 GBps while active: bidirectional sum.
    EXPECT_NEAR(s.summary().peak, 160e9, 1e6);
}

TEST(ProbeTest, PerNodeDivisionForMultiNode)
{
    Simulation sim;
    ClusterSpec spec;
    spec.nodes = 2;
    Cluster cluster(spec);
    cluster.topology().armStreams(0.0, 0.01);
    FlowScheduler flows(sim, cluster.topology());
    // Symmetric flows: one NVLink flow in each node.
    for (int node = 0; node < 2; ++node) {
        FlowSpec fs;
        fs.route = &cluster.router().route(
            cluster.gpuByRank(node * 4), cluster.gpuByRank(node * 4 + 1));
        fs.bytes = 8e9;
        flows.start(std::move(fs));
    }
    sim.run();
    flows.finalizeLogs();
    // Per-node view: each node carried 80 GBps, not 160.
    const BandwidthSeries all = probeClassBandwidth(
        cluster.topology(), LinkClass::NvLink, 0.0, sim.now(), 0.01);
    EXPECT_NEAR(all.summary().peak, 80e9, 1e6);
    // Single-node view matches.
    const BandwidthSeries n0 = probeClassBandwidth(
        cluster.topology(), LinkClass::NvLink, 0.0, sim.now(), 0.01,
        0);
    EXPECT_NEAR(n0.summary().peak, 80e9, 1e6);
}

TEST(ProbeTest, QuietClassesReadZero)
{
    Simulation sim;
    Cluster cluster{ClusterSpec{}};
    cluster.topology().armStreams(0.0, kDefaultTelemetryBucket);
    FlowScheduler flows(sim, cluster.topology());
    FlowSpec fs;
    fs.route = &cluster.router().route(cluster.gpuByRank(0),
                                       cluster.gpuByRank(1));
    fs.bytes = 1e9;
    flows.start(std::move(fs));
    sim.run();
    flows.finalizeLogs();
    const BandwidthSummary dram = summarizeClassBandwidth(
        cluster.topology(), LinkClass::Dram, 0.0, sim.now());
    EXPECT_DOUBLE_EQ(dram.avg, 0.0);
    EXPECT_DOUBLE_EQ(dram.peak, 0.0);
}

TEST(ProbeTest, ProbeAllClassesMatchesPerClassProbes)
{
    Simulation sim;
    Cluster cluster{ClusterSpec{}};
    cluster.topology().armStreams(0.0, 0.1);
    FlowScheduler flows(sim, cluster.topology());
    // NVLink and host traffic, so several classes carry bytes.
    for (int dir = 0; dir < 2; ++dir) {
        FlowSpec spec;
        spec.route = &cluster.router().route(
            cluster.gpuByRank(dir), cluster.gpuByRank(1 - dir));
        spec.bytes = 80e9;
        flows.start(std::move(spec));
    }
    FlowSpec h2d;
    h2d.route = &cluster.router().route(cluster.node(0).drams[0],
                                        cluster.gpuByRank(0));
    h2d.bytes = 8e9;
    flows.start(std::move(h2d));
    sim.run();
    flows.finalizeLogs();

    const std::vector<BandwidthSeries> all = probeAllClasses(
        cluster.topology(), 0.0, sim.now(), 0.1);
    const auto &classes = tableIvClasses();
    ASSERT_EQ(all.size(), classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const BandwidthSeries one = probeClassBandwidth(
            cluster.topology(), classes[c], 0.0, sim.now(), 0.1);
        ASSERT_EQ(all[c].values.size(), one.values.size())
            << linkClassName(classes[c]);
        for (std::size_t b = 0; b < one.values.size(); ++b) {
            EXPECT_EQ(all[c].values[b], one.values[b])
                << linkClassName(classes[c]) << " bucket " << b;
        }
    }
}

TEST(ProbeDeathTest, ProbeOffTheArmedGridPanics)
{
    // The probe reads only the grid armed before the run; a finer
    // bucket cannot be recovered afterwards.
    Simulation sim;
    Cluster cluster{ClusterSpec{}};
    cluster.topology().armStreams(0.0, 0.1);
    FlowScheduler flows(sim, cluster.topology());
    FlowSpec fs;
    fs.route = &cluster.router().route(cluster.gpuByRank(0),
                                       cluster.gpuByRank(1));
    fs.bytes = 8e9;
    flows.start(std::move(fs));
    sim.run();
    flows.finalizeLogs();
    EXPECT_DEATH(probeClassBandwidth(cluster.topology(), LinkClass::NvLink,
                                     0.0, sim.now(), 0.05),
                 "arm the grid");
}

} // namespace
} // namespace dstrain
