/**
 * @file
 * Collectives on a damaged fabric: every schedule family must survive
 * a mid-operation capacity-zero cut (rerouted by the stranded-flow
 * scan or rescued by the round watchdog), the hierarchical schedule
 * must fall back when its NVLink-domain assumption is cut, and the
 * elastic shrink must reform groups over surviving ranks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "collectives/communicator.hh"
#include "net/resilience.hh"

namespace dstrain {
namespace {

/** RoCE direction-resources touching NIC slot @p nic on any node. */
std::vector<ResourceId>
railResources(const Topology &topo, int nic)
{
    std::vector<ResourceId> rids;
    for (std::size_t h = 0; h < topo.halfLinkCount(); ++h) {
        const HalfLink &hl = topo.halfLink(static_cast<HalfLinkId>(h));
        if (hl.cls != LinkClass::Roce)
            continue;
        const Component &from = topo.component(hl.from);
        const Component &to = topo.component(hl.to);
        const bool hit =
            (from.kind == ComponentKind::Nic && from.index == nic) ||
            (to.kind == ComponentKind::Nic && to.index == nic);
        if (hit && std::find(rids.begin(), rids.end(), hl.resource) ==
                       rids.end()) {
            rids.push_back(hl.resource);
        }
    }
    return rids;
}

class DegradedCollectiveTest : public testing::Test
{
  protected:
    DegradedCollectiveTest()
        : cluster_(makeSpec()),
          flows_(sim_, cluster_.topology()),
          tm_(sim_, cluster_, flows_), coll_(tm_)
    {
        cluster_.router().setAvoidDeadLinks(true);
        ResilienceConfig cfg;
        cfg.enabled = true;
        rc_ = std::make_unique<ResilienceCoordinator>(
            sim_, cluster_.router(), cfg);
        tm_.setResilience(rc_.get());
        tm_.enableRetries();
        coll_.configureResilience(rc_.get());
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 2;
        return spec;
    }

    /**
     * Drop @p rids to capacity zero the way the injector does: one
     * setCapacities() call, a coordinator notification, and (unless
     * the test wants the watchdog alone to act) a transfer-manager
     * notification that schedules the stranded-flow scan.
     */
    void
    kill(const std::vector<ResourceId> &rids, bool notify_tm = true)
    {
        std::vector<std::pair<ResourceId, Bps>> batch;
        for (ResourceId rid : rids)
            batch.emplace_back(rid, 0.0);
        flows_.setCapacities(batch);
        rc_->onTopologyChange();
        if (notify_tm)
            tm_.notifyCapacityChange();
    }

    void
    killAt(SimTime when, std::vector<ResourceId> rids,
           bool notify_tm = true)
    {
        sim_.events().schedule(
            when, [this, rids = std::move(rids), notify_tm] {
                kill(rids, notify_tm);
            });
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
    std::unique_ptr<ResilienceCoordinator> rc_;
};

TEST_F(DegradedCollectiveTest, RingSurvivesMidOpRailKill)
{
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Ring;
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 2e9, [&] { done = true; },
                    opts);
    killAt(2e-3, railResources(cluster_.topology(), 0));
    sim_.run();
    EXPECT_TRUE(done);
    tm_.verifyConservation();
    EXPECT_GE(rc_->stats().route_invalidations, 1u);
}

TEST_F(DegradedCollectiveTest, PairwiseSurvivesMidOpRailKill)
{
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Pairwise;
    bool done = false;
    coll_.allToAll(CommGroup::worldOf(8), 2e9, [&] { done = true; },
                   opts);
    killAt(2e-3, railResources(cluster_.topology(), 0));
    sim_.run();
    EXPECT_TRUE(done);
    tm_.verifyConservation();
    EXPECT_GE(rc_->stats().route_invalidations, 1u);
}

TEST_F(DegradedCollectiveTest, TreeSurvivesMidOpRailKill)
{
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Tree;
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 2e9, [&] { done = true; },
                    opts);
    killAt(2e-3, railResources(cluster_.topology(), 0));
    sim_.run();
    EXPECT_TRUE(done);
    tm_.verifyConservation();
    EXPECT_GE(rc_->stats().route_invalidations, 1u);
}

TEST_F(DegradedCollectiveTest, HierarchicalSurvivesMidOpRailKill)
{
    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Hierarchical;
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 2e9, [&] { done = true; },
                    opts);
    killAt(2e-3, railResources(cluster_.topology(), 0));
    sim_.run();
    EXPECT_TRUE(done);
    tm_.verifyConservation();
    EXPECT_GE(rc_->stats().route_invalidations, 1u);
}

TEST_F(DegradedCollectiveTest, WatchdogRescuesStalledRound)
{
    // Cut exactly the RoCE links the ring's inter-node hops route
    // over, without notifying the transfer manager: no stranded-flow
    // scan runs, so only the round watchdog can rescue the stall.
    const Router &router = cluster_.router();
    std::vector<ResourceId> used;
    for (const auto &[s, d] : {std::pair<int, int>{3, 4}, {7, 0}}) {
        const Route r = router.routeForFlow(cluster_.gpuByRank(s),
                                            cluster_.gpuByRank(d), 0);
        for (HalfLinkId hid : r.hops) {
            const HalfLink &hl = cluster_.topology().halfLink(hid);
            if (hl.cls == LinkClass::Roce &&
                std::find(used.begin(), used.end(), hl.resource) ==
                    used.end()) {
                used.push_back(hl.resource);
            }
        }
    }
    ASSERT_FALSE(used.empty());

    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Ring;
    opts.channels = 1;
    opts.pin_channels_to_nics = false;
    bool done = false;
    // Watchdogs, deferred settles and relaunches must all release
    // the invocation once the drained run is over.
    auto token = std::make_shared<int>(0);
    coll_.allReduce(CommGroup::worldOf(8), 8e8,
                    [&done, token] { done = true; }, opts);
    killAt(1e-3, used, /*notify_tm=*/false);
    sim_.run();
    EXPECT_TRUE(done);
    tm_.verifyConservation();
    EXPECT_GE(rc_->stats().collective_timeouts, 1u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST_F(DegradedCollectiveTest, HierarchicalFallsBackOnNvlinkCut)
{
    // Kill one NVLink direction on node 0: the hierarchical
    // schedule's intra-node-domain assumption is cut, so the engine
    // must re-resolve to a structure-free family instead of wedging.
    std::vector<ResourceId> cut;
    for (const Resource &res : cluster_.topology().resources()) {
        if (res.cls == LinkClass::NvLink && res.node == 0) {
            cut.push_back(res.id);
            break;
        }
    }
    ASSERT_FALSE(cut.empty());
    kill(cut);

    CollectiveOptions opts;
    opts.algorithm = CollectiveAlgo::Hierarchical;
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 1e9, [&] { done = true; },
                    opts);
    sim_.run();
    EXPECT_TRUE(done);
    tm_.verifyConservation();
    EXPECT_GE(rc_->stats().collective_fallbacks, 1u);
    // The usage table records what actually ran, not what was asked.
    bool ran_hierarchical = false;
    for (const CollectiveUsage &u : coll_.usage())
        ran_hierarchical |= u.algo == CollectiveAlgo::Hierarchical;
    EXPECT_FALSE(ran_hierarchical);
}

TEST_F(DegradedCollectiveTest, ElasticShrinkReformsGroupOverSurvivors)
{
    // Node 1's ranks (4..7) die; a group still naming them must run
    // over the survivors only — all traffic stays intra-node.
    coll_.markRanksDead({4, 5, 6, 7});
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 1e9, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_GE(rc_->stats().comm_shrinks, 1u);
    EXPECT_EQ(fabricBytes(LinkClass::Roce), 0.0);
}

TEST_F(DegradedCollectiveTest, DeadRootBroadcastPicksSurvivor)
{
    coll_.markRanksDead({4, 5, 6, 7});
    bool done = false;
    coll_.broadcast(CommGroup::worldOf(8), /*root=*/5, 1e9,
                    [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(fabricBytes(LinkClass::Roce), 0.0);
}

TEST_F(DegradedCollectiveTest, GroupShrunkBelowTwoCompletesTrivially)
{
    coll_.markRanksDead({1, 2, 3, 4, 5, 6, 7});
    bool done = false;
    coll_.allReduce(CommGroup::worldOf(8), 1e9, [&] { done = true; });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(fabricBytes(LinkClass::NvLink), 0.0);
}

} // namespace
} // namespace dstrain
