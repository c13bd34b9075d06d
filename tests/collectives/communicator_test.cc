/**
 * @file
 * Tests for the collective engine: completion, traffic volumes on
 * the fabric, channel pinning, invocation lifetime, and timing
 * against the analytic ring formulas.
 */

#include <gtest/gtest.h>

#include <memory>

#include "collectives/algorithms.hh"
#include "collectives/volume.hh"
#include "net/resilience.hh"

namespace dstrain {
namespace {

class CollectiveTest : public testing::Test
{
  protected:
    explicit CollectiveTest(int nodes = 1)
        : cluster_(makeSpec(nodes)), flows_(sim_, cluster_.topology()),
          tm_(sim_, cluster_, flows_), coll_(tm_)
    {
    }

    static ClusterSpec
    makeSpec(int nodes)
    {
        ClusterSpec spec;
        spec.nodes = nodes;
        return spec;
    }

    Bytes
    fabricBytes(LinkClass cls)
    {
        flows_.finalizeLogs();
        Bytes total = 0.0;
        for (const Resource &r : cluster_.topology().resources())
            if (r.cls == cls)
                total += r.log.totalBytes();
        return total;
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
    TransferManager tm_;
    CollectiveEngine coll_;
};

class DualNodeCollectiveTest : public CollectiveTest
{
  protected:
    DualNodeCollectiveTest() : CollectiveTest(2) {}
};

TEST_F(CollectiveTest, WorldOfBuildsContiguousRanks)
{
    const CommGroup g = CommGroup::worldOf(4);
    EXPECT_EQ(g.size(), 4);
    EXPECT_EQ(g.ranks, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(CollectiveTest, AllReduceCompletesWithRightVolume)
{
    const Bytes payload = 4e9;
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(4), payload,
                    [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(coll_.completedCount(), 1u);
    // Ring all-reduce total fabric traffic: 2 (N-1) S.
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 6.0 * payload,
                payload * 1e-6);
}

TEST_F(CollectiveTest, ReduceScatterAndAllGatherVolumes)
{
    const Bytes payload = 4e9;
    coll_.reduceScatter(CommGroup::worldOf(4), payload, nullptr);
    sim_.run();
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 3.0 * payload,
                payload * 1e-6);
}

TEST_F(CollectiveTest, AllReduceTimeMatchesAnalyticRing)
{
    const Bytes payload = 8e9;
    coll_.allReduce(CommGroup::worldOf(4), payload, nullptr);
    sim_.run();
    // NVLink pair effective: 100 GBps * 0.8.
    const SimTime ideal = ringCollectiveIdealTime(
        CollectiveOp::AllReduce, 4, payload, 80e9);
    EXPECT_NEAR(sim_.now(), ideal, ideal * 0.02);
}

TEST_F(CollectiveTest, BroadcastCompletes)
{
    bool done = false;
    coll_.broadcast(CommGroup::worldOf(4), 2, 1e9, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 3e9, 1e4);
}

TEST_F(CollectiveTest, ReduceCompletes)
{
    bool done = false;
    coll_.reduce(CommGroup::worldOf(4), 0, 1e9, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
}

TEST_F(CollectiveTest, CompletedInvocationReleasesItsCallback)
{
    // Nothing may keep an invocation alive once it has completed:
    // the caller's callback (and everything it captured) is freed.
    auto token = std::make_shared<int>(0);
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(4), 1e9,
                    [&done, token] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(token.use_count(), 1);
}

TEST_F(CollectiveTest, SubgroupOnlyTouchesItsLinks)
{
    CommGroup pair;
    pair.ranks = {0, 1};
    coll_.allReduce(pair, 1e9, nullptr);
    sim_.run();
    flows_.finalizeLogs();
    for (const Resource &r : cluster_.topology().resources()) {
        if (r.cls == LinkClass::NvLink &&
            r.label.find("nvlink0-1") == std::string::npos) {
            EXPECT_DOUBLE_EQ(r.log.totalBytes(), 0.0) << r.label;
        }
    }
}

TEST_F(DualNodeCollectiveTest, SpanningGroupUsesRoce)
{
    coll_.allReduce(CommGroup::worldOf(8), 1e9, nullptr);
    sim_.run();
    EXPECT_GT(fabricBytes(LinkClass::Roce), 1e9);
}

TEST_F(DualNodeCollectiveTest, AbortMidOpReleasesTheInvocation)
{
    // The hard-failure teardown (TransferManager::abortAll()) drops
    // every pending callback of a two-channel all-reduce mid-flight;
    // the invocation must go with them. A hard fault needs a fault
    // plan, which enables retries before the first round.
    tm_.enableRetries();
    auto token = std::make_shared<int>(0);
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 4e9,
                    [&done, token] { done = true; });
    sim_.events().schedule(1e-3, [this] { tm_.abortAll(); });
    sim_.run();
    EXPECT_FALSE(done);
    EXPECT_EQ(coll_.completedCount(), 0u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST_F(DualNodeCollectiveTest, RingAllGatherEventCountIsPinned)
{
    // 7 rounds on each of 2 channels, 8 hops a round. A round
    // launches through one event per distinct route latency (NVLink,
    // pinned RoCE): 7 x 2 x 2 = 28 launch events where one per hop
    // took 112. The other 14 are flow-completion events.
    coll_.allGather(CommGroup::worldOf(8), 1e9, nullptr);
    sim_.run();
    EXPECT_EQ(coll_.completedCount(), 1u);
    EXPECT_EQ(tm_.startedCount(), 112u);
    EXPECT_EQ(sim_.events().executedCount(), 42u);
}

TEST_F(DualNodeCollectiveTest, FaultFreeResilientRingArmsNoWatchdog)
{
    // With resilience attached but no retry policy (no fault plan),
    // no hop has a transfer id the watchdog could rescue, so no
    // watchdog is armed: the run is the pinned 42 events, and it ends
    // exactly where the run without resilience ends.
    ResilienceConfig cfg;
    cfg.enabled = true;
    ASSERT_GT(cfg.collective_timeout, 0.0);
    ResilienceCoordinator rc(sim_, cluster_.router(), cfg);
    tm_.setResilience(&rc);
    coll_.configureResilience(&rc);
    coll_.allGather(CommGroup::worldOf(8), 1e9, nullptr);
    sim_.run();
    EXPECT_EQ(coll_.completedCount(), 1u);
    EXPECT_EQ(sim_.events().executedCount(), 42u);
    EXPECT_EQ(rc.stats().collective_timeouts, 0u);

    Simulation sim;
    Cluster cluster(makeSpec(2));
    FlowScheduler flows(sim, cluster.topology());
    TransferManager tm(sim, cluster, flows);
    CollectiveEngine coll(tm);
    coll.allGather(CommGroup::worldOf(8), 1e9, nullptr);
    sim.run();
    EXPECT_EQ(sim_.now(), sim.now());
    EXPECT_EQ(fabricBytes(LinkClass::Roce), [&] {
        flows.finalizeLogs();
        Bytes total = 0.0;
        for (const Resource &r : cluster.topology().resources())
            if (r.cls == LinkClass::Roce)
                total += r.log.totalBytes();
        return total;
    }());
}

/**
 * Rank 0's NVLink to rank 1 dies after round 0's hop over it has
 * landed, while the round's RoCE hops still run, and the router
 * flushes its caches. Round 1 must resolve edge 0 -> 1 afresh, around
 * the dead link (through PCIe): a route kept from round 0 would stall
 * there. Runs a one-channel all-gather through that and checks that
 * it completed, nothing is left stalled, and only round 0's chunk
 * crossed the dead link.
 */
void
expectFlushReResolvesTheNextRoundsEdges(Simulation &sim, Cluster &cluster,
                                        FlowScheduler &flows,
                                        CollectiveEngine &coll)
{
    cluster.router().setAvoidDeadLinks(true);
    const Route &nvlink = cluster.router().route(cluster.gpuByRank(0),
                                                 cluster.gpuByRank(1));
    ASSERT_EQ(nvlink.resources.size(), 1u);
    const ResourceId dead = nvlink.resources.front();
    const Bytes chunk = 1e9;
    CollectiveOptions opts;
    opts.channels = 1;
    coll.allGather(CommGroup::worldOf(8), 8.0 * chunk, nullptr, opts);
    // The NVLink hop lands after ~12.5 ms, the RoCE hops after ~150 ms.
    sim.events().schedule(0.05, [&] {
        ASSERT_EQ(cluster.topology().resource(dead).log.currentRate(),
                  0.0);
        flows.setCapacities({{dead, 0.0}});
        cluster.router().invalidateRouteCaches();
    });
    sim.run();
    EXPECT_EQ(coll.completedCount(), 1u);
    EXPECT_EQ(flows.stalledCount(), 0u);
    flows.finalizeLogs();
    EXPECT_NEAR(cluster.topology().resource(dead).log.totalBytes(), chunk,
                1.0);
}

TEST_F(DualNodeCollectiveTest, RouteCacheFlushReResolvesTheNextRoundsEdges)
{
    // Fault-free path: nothing retries a hop, so a stale route would
    // stall for good.
    expectFlushReResolvesTheNextRoundsEdges(sim_, cluster_, flows_, coll_);
}

TEST_F(DualNodeCollectiveTest, RetryRouteCacheFlushReResolvesTheNextRoundsEdges)
{
    // Retry path, with no stranded-flow notification: a hop launched
    // onto a stale route would be rescued only by a reroute, so none
    // may happen.
    tm_.enableRetries();
    expectFlushReResolvesTheNextRoundsEdges(sim_, cluster_, flows_, coll_);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
    tm_.verifyConservation();
}

TEST_F(DualNodeCollectiveTest, PinnedChannelsTouchBothNicsAndXgmi)
{
    CollectiveOptions opts;
    opts.channels = 2;
    coll_.allReduce(CommGroup::worldOf(8), 4e9, nullptr, opts);
    sim_.run();
    flows_.finalizeLogs();
    // Channel 1 pins to NIC1: socket-0 GPUs must cross xGMI.
    Bytes xgmi = 0.0;
    int nics_used = 0;
    for (const Resource &r : cluster_.topology().resources()) {
        if (r.cls == LinkClass::Xgmi)
            xgmi += r.log.totalBytes();
        if (r.cls == LinkClass::Roce && r.log.totalBytes() > 0)
            ++nics_used;
    }
    EXPECT_GT(xgmi, 0.0);
    EXPECT_EQ(nics_used, 8);  // all NIC links in both directions
}

TEST_F(DualNodeCollectiveTest, UnpinnedAvoidsXgmi)
{
    CollectiveOptions opts;
    opts.pin_channels_to_nics = false;
    coll_.allReduce(CommGroup::worldOf(8), 4e9, nullptr, opts);
    sim_.run();
    EXPECT_DOUBLE_EQ(fabricBytes(LinkClass::Xgmi), 0.0);
}

TEST_F(CollectiveTest, BandwidthFactorSlowsCollective)
{
    coll_.allReduce(CommGroup::worldOf(4), 4e9, nullptr);
    sim_.run();
    const SimTime fast = sim_.now();

    Simulation sim2;
    Cluster cluster2(makeSpec(1));
    FlowScheduler flows2(sim2, cluster2.topology());
    TransferManager tm2(sim2, cluster2, flows2);
    CollectiveEngine coll2(tm2);
    CollectiveOptions opts;
    opts.bandwidth_factor = 0.5;
    coll2.allReduce(CommGroup::worldOf(4), 4e9, nullptr, opts);
    sim2.run();
    EXPECT_NEAR(sim2.now(), 2.0 * fast, fast * 0.05);
}

TEST_F(CollectiveTest, PairwiseAllReduceMatchesRingVolume)
{
    // Different schedule, same fabric bytes: pairwise exchange moves
    // 2 (N-1) S just like the ring (every intra-node pair has a
    // direct NVLink, so logical hops == fabric traffic).
    const Bytes payload = 4e9;
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Pairwise;
    coll_.allReduce(CommGroup::worldOf(4), payload, nullptr, opts);
    sim_.run();
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 6.0 * payload,
                payload * 1e-6);
}

TEST_F(CollectiveTest, TreeAllReduceMatchesRingVolume)
{
    const Bytes payload = 4e9;
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Tree;
    coll_.allReduce(CommGroup::worldOf(4), payload, nullptr, opts);
    sim_.run();
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 6.0 * payload,
                payload * 1e-6);
}

TEST_F(CollectiveTest, TreeReduceScatterMatchesRingVolume)
{
    const Bytes payload = 4e9;
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Tree;
    coll_.reduceScatter(CommGroup::worldOf(4), payload, nullptr, opts);
    sim_.run();
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 3.0 * payload,
                payload * 1e-6);
}

TEST_F(CollectiveTest, AllToAllVolumeAndCompletion)
{
    // (N-1)/N of every rank's payload leaves the GPU: (N-1) S total.
    const Bytes payload = 4e9;
    bool done = false;
    coll_.allToAll(CommGroup::worldOf(4), payload, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(fabricBytes(LinkClass::NvLink), 3.0 * payload,
                payload * 1e-6);
}

TEST_F(CollectiveTest, UsageRecordsConcreteAlgorithms)
{
    const Bytes payload = 1e9;
    coll_.allReduce(CommGroup::worldOf(4), payload, nullptr);
    // The ring default cannot run all-to-all; usage must show the
    // pairwise fallback that actually ran, not the requested ring.
    coll_.allToAll(CommGroup::worldOf(4), payload, nullptr);
    sim_.run();

    ASSERT_EQ(coll_.usage().size(), 2u);
    const CollectiveUsage &ar = coll_.usage()[0];
    EXPECT_EQ(ar.op, CollectiveOp::AllReduce);
    EXPECT_EQ(ar.algo, CollectiveAlgo::Ring);
    EXPECT_EQ(ar.invocations, 1u);
    EXPECT_DOUBLE_EQ(ar.payload_bytes, payload);
    EXPECT_DOUBLE_EQ(ar.fabric_bytes,
                     collectiveTotalVolume(CollectiveOp::AllReduce, 4,
                                           payload));
    const CollectiveUsage &a2a = coll_.usage()[1];
    EXPECT_EQ(a2a.op, CollectiveOp::AllToAll);
    EXPECT_EQ(a2a.algo, CollectiveAlgo::Pairwise);
    EXPECT_DOUBLE_EQ(a2a.fabric_bytes,
                     collectiveTotalVolume(CollectiveOp::AllToAll, 4,
                                           payload));
}

TEST_F(CollectiveTest, EngineSpecDrivesAutoInvocations)
{
    std::string err;
    const auto spec = parseCollectiveAlgoSpec("pairwise", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    coll_.setAlgoSpec(*spec);
    coll_.allReduce(CommGroup::worldOf(4), 1e9, nullptr);
    // Per-invocation options still win over the engine spec.
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Ring;
    coll_.allReduce(CommGroup::worldOf(4), 1e9, nullptr, opts);
    sim_.run();

    ASSERT_EQ(coll_.usage().size(), 2u);
    EXPECT_EQ(coll_.usage()[0].algo, CollectiveAlgo::Pairwise);
    EXPECT_EQ(coll_.usage()[1].algo, CollectiveAlgo::Ring);
}

/** RoCE bytes of one dual-node 8-rank all-reduce under @p algo. */
Bytes
dualNodeRoceBytes(CollectiveAlgo algo)
{
    Simulation sim;
    ClusterSpec spec;
    spec.nodes = 2;
    Cluster cluster(spec);
    FlowScheduler flows(sim, cluster.topology());
    TransferManager tm(sim, cluster, flows);
    CollectiveEngine coll(tm);
    CollectiveOptions opts;
    opts.algorithm = algo;
    coll.allReduce(CommGroup::worldOf(8), 4e9, nullptr, opts);
    sim.run();
    flows.finalizeLogs();
    Bytes total = 0.0;
    for (const Resource &r : cluster.topology().resources())
        if (r.cls == LinkClass::Roce)
            total += r.log.totalBytes();
    return total;
}

TEST_F(DualNodeCollectiveTest, HierarchicalCutsRoceByClosedForm)
{
    // The measured RoCE ratio between the hierarchical and flat-ring
    // all-reduce must match the collectiveInterNodeBytes closed form:
    // 2 (M-1) vs 2 (N-1) M / N payloads, = 4/7 on 2 nodes x 4 GPUs.
    const double measured =
        dualNodeRoceBytes(CollectiveAlgo::Hierarchical) /
        dualNodeRoceBytes(CollectiveAlgo::Ring);
    const double closed =
        collectiveInterNodeBytes(CollectiveOp::AllReduce,
                                 CollectiveAlgo::Hierarchical, 2, 4,
                                 1e9) /
        collectiveInterNodeBytes(CollectiveOp::AllReduce,
                                 CollectiveAlgo::Ring, 2, 4, 1e9);
    EXPECT_NEAR(measured, closed, 0.01);
    EXPECT_NEAR(closed, 4.0 / 7.0, 1e-12);
}

TEST_F(CollectiveTest, DeathOnSingletonGroup)
{
    CommGroup solo;
    solo.ranks = {0};
    EXPECT_DEATH(coll_.allReduce(solo, 1.0, nullptr), ">= 2");
}

} // namespace
} // namespace dstrain
