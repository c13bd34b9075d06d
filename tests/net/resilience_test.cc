/**
 * @file
 * Tests for the degraded-mode resilience layer: the reconvergence
 * window of the ResilienceCoordinator, and the router's dead-link
 * avoidance + stale-route fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "net/resilience.hh"

namespace dstrain {
namespace {

/** The RoCE resources a route traverses. */
std::vector<ResourceId>
roceResources(const Topology &topo, const Route &route)
{
    std::vector<ResourceId> rids;
    for (HalfLinkId hid : route.hops) {
        const HalfLink &hl = topo.halfLink(hid);
        if (hl.cls == LinkClass::Roce)
            rids.push_back(hl.resource);
    }
    return rids;
}

/** Every RoCE resource in the cluster. */
std::vector<ResourceId>
allRoce(const Topology &topo)
{
    std::vector<ResourceId> rids;
    for (const Resource &res : topo.resources())
        if (res.cls == LinkClass::Roce)
            rids.push_back(res.id);
    return rids;
}

TEST(ResilienceConfig, ValidateAcceptsDefaults)
{
    ResilienceConfig cfg;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(ResilienceConfig, ValidateRejectsNegativeKnobs)
{
    ResilienceConfig cfg;
    cfg.reconvergence_delay = -1e-3;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = ResilienceConfig{};
    cfg.collective_timeout = -1.0;
    EXPECT_FALSE(cfg.validate().empty());
}

class CoordinatorTest : public testing::Test
{
  protected:
    CoordinatorTest() : cluster_(makeSpec())
    {
        cluster_.router().setAvoidDeadLinks(true);
        ResilienceConfig cfg;
        cfg.enabled = true;
        cfg.reconvergence_delay = 2e-3;
        rc_ = std::make_unique<ResilienceCoordinator>(
            sim_, cluster_.router(), cfg);
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 2;
        return spec;
    }

    void
    changeAt(SimTime when)
    {
        sim_.events().schedule(when, [this] { rc_->onTopologyChange(); });
    }

    Simulation sim_;
    Cluster cluster_;
    std::unique_ptr<ResilienceCoordinator> rc_;
};

TEST_F(CoordinatorTest, SingleChangeInvalidatesAfterDelay)
{
    changeAt(1e-3);
    sim_.events().schedule(2e-3, [this] {
        EXPECT_TRUE(rc_->inReconvergence());
        EXPECT_EQ(cluster_.router().cacheInvalidations(), 0u);
    });
    sim_.events().schedule(4e-3, [this] {
        EXPECT_FALSE(rc_->inReconvergence());
        EXPECT_EQ(cluster_.router().cacheInvalidations(), 1u);
    });
    sim_.run();
    EXPECT_EQ(rc_->stats().route_invalidations, 1u);
}

TEST_F(CoordinatorTest, OverlappingChangesExtendTheWindowOnce)
{
    // Second change lands inside the first window: one flush, at the
    // extended close (2e-3 + 2e-3 = 4e-3), not two.
    changeAt(1e-3);
    changeAt(2e-3);
    sim_.events().schedule(3.5e-3, [this] {
        EXPECT_TRUE(rc_->inReconvergence());
        EXPECT_EQ(cluster_.router().cacheInvalidations(), 0u);
    });
    sim_.events().schedule(4.5e-3, [this] {
        EXPECT_FALSE(rc_->inReconvergence());
        EXPECT_EQ(cluster_.router().cacheInvalidations(), 1u);
    });
    sim_.run();
    EXPECT_EQ(rc_->stats().route_invalidations, 1u);
}

TEST_F(CoordinatorTest, SeparatedChangesInvalidateSeparately)
{
    changeAt(1e-3);
    changeAt(10e-3);
    sim_.run();
    EXPECT_EQ(rc_->stats().route_invalidations, 2u);
    EXPECT_EQ(cluster_.router().cacheInvalidations(), 2u);
}

TEST_F(CoordinatorTest, EnsureFreshFlushesEarlyAndOnlyOnce)
{
    changeAt(1e-3);
    sim_.events().schedule(1.5e-3, [this] {
        rc_->ensureFresh();
        EXPECT_EQ(cluster_.router().cacheInvalidations(), 1u);
    });
    sim_.run();
    // The armed flush event at 3e-3 found nothing dirty: no second
    // invalidation.
    EXPECT_EQ(cluster_.router().cacheInvalidations(), 1u);
    EXPECT_EQ(rc_->stats().route_invalidations, 1u);
}

TEST_F(CoordinatorTest, EnsureFreshIsNoOpWhenClean)
{
    rc_->ensureFresh();
    EXPECT_EQ(cluster_.router().cacheInvalidations(), 0u);
    EXPECT_FALSE(rc_->inReconvergence());
}

class DeadLinkRoutingTest : public testing::Test
{
  protected:
    DeadLinkRoutingTest()
        : cluster_(makeSpec()),
          flows_(sim_, cluster_.topology())
    {
        cluster_.router().setAvoidDeadLinks(true);
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 2;
        return spec;
    }

    void
    kill(const std::vector<ResourceId> &rids)
    {
        std::vector<std::pair<ResourceId, Bps>> batch;
        for (ResourceId rid : rids)
            batch.emplace_back(rid, 0.0);
        flows_.setCapacities(batch);
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
};

TEST_F(DeadLinkRoutingTest, ReroutesAroundDeadLinkAfterInvalidation)
{
    const Router &router = cluster_.router();
    const ComponentId src = cluster_.gpuByRank(0);
    const ComponentId dst = cluster_.gpuByRank(4);

    const Route before = router.routeForFlow(src, dst, 0);
    ASSERT_TRUE(before.valid());
    const std::vector<ResourceId> used =
        roceResources(cluster_.topology(), before);
    ASSERT_FALSE(used.empty());

    kill(used);
    router.invalidateRouteCaches();

    const Route after = router.routeForFlow(src, dst, 0);
    ASSERT_TRUE(after.valid());
    for (ResourceId rid : roceResources(cluster_.topology(), after)) {
        EXPECT_EQ(std::find(used.begin(), used.end(), rid), used.end())
            << "reconverged route still crosses a dead link";
    }
}

TEST_F(DeadLinkRoutingTest, StaleRouteFallbackOnFullPartition)
{
    const Router &router = cluster_.router();
    const ComponentId src = cluster_.gpuByRank(0);
    const ComponentId dst = cluster_.gpuByRank(4);

    kill(allRoce(cluster_.topology()));
    router.invalidateRouteCaches();

    // Every inter-node path is cut: the router must fall back to the
    // healthy-topology shortest path (the flow parks), not fatal().
    const Route stale = router.routeForFlow(src, dst, 0);
    EXPECT_TRUE(stale.valid());
}

TEST_F(DeadLinkRoutingTest, InvalidationCounterTracksFlushes)
{
    const Router &router = cluster_.router();
    EXPECT_EQ(router.cacheInvalidations(), 0u);
    router.invalidateRouteCaches();
    router.invalidateRouteCaches();
    EXPECT_EQ(router.cacheInvalidations(), 2u);
}

TEST_F(DeadLinkRoutingTest, DisabledAvoidanceKeepsNominalRoutes)
{
    cluster_.router().setAvoidDeadLinks(false);
    const Router &router = cluster_.router();
    const ComponentId src = cluster_.gpuByRank(0);
    const ComponentId dst = cluster_.gpuByRank(4);

    const Route before = router.routeForFlow(src, dst, 0);
    const std::vector<ResourceId> used =
        roceResources(cluster_.topology(), before);
    kill(used);
    router.invalidateRouteCaches();

    // Legacy behavior: capacities never influence path choice.
    const Route after = router.routeForFlow(src, dst, 0);
    EXPECT_EQ(after.hops, before.hops);
}

} // namespace
} // namespace dstrain
