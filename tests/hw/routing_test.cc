/**
 * @file
 * Tests for route computation over the XE8545 topology: path shapes,
 * SerDes-crossing detection, rate caps and waypoint routing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "hw/cluster.hh"

namespace dstrain {
namespace {

class RoutingTest : public testing::Test
{
  protected:
    RoutingTest()
        : cluster_(makeSpec())
    {
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 2;
        return spec;
    }

    Cluster cluster_;
};

TEST_F(RoutingTest, GpuPeersUseDirectNvlink)
{
    const Route &r = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(1));
    ASSERT_EQ(r.hops.size(), 1u);
    EXPECT_EQ(cluster_.topology()
                  .resource(cluster_.topology()
                                .halfLink(r.hops[0])
                                .resource)
                  .cls,
              LinkClass::NvLink);
    EXPECT_TRUE(r.crossings.empty());
    EXPECT_DOUBLE_EQ(r.serdes_factor, 1.0);
}

TEST_F(RoutingTest, GpuToRemoteGpuCrossesFabric)
{
    // Rank 0 (node 0) to rank 4 (node 1, local index 0).
    const Route &r = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(4));
    // gpu -> cpu -> nic -> switch -> nic -> cpu -> gpu = 6 hops.
    EXPECT_EQ(r.hops.size(), 6u);
    // Both IODs cross PCIe-to-PCIe (GPUDirect on both ends).
    EXPECT_EQ(r.crossings.size(), 2u);
    EXPECT_DOUBLE_EQ(r.serdes_factor, 0.248);
}

TEST_F(RoutingTest, DramToLocalNvmeIsCrossingFree)
{
    // Default drives attach to socket 1.
    const NodeHandles &n0 = cluster_.node(0);
    const Route &r =
        cluster_.router().route(n0.drams[1], n0.nvmes[0]);
    EXPECT_EQ(r.hops.size(), 2u);  // dram -> cpu -> drive
    EXPECT_TRUE(r.crossings.empty());
}

TEST_F(RoutingTest, DramToRemoteSocketNvmeCrossesOnce)
{
    const NodeHandles &n0 = cluster_.node(0);
    const Route &r =
        cluster_.router().route(n0.drams[0], n0.nvmes[0]);
    EXPECT_EQ(r.hops.size(), 3u);  // dram -> cpu0 -> cpu1 -> drive
    ASSERT_EQ(r.crossings.size(), 1u);
    EXPECT_EQ(r.crossings[0].ingress, SerdesSide::Xgmi);
    EXPECT_EQ(r.crossings[0].egress, SerdesSide::Pcie);
    // Cap: degraded PCIe x4 (8 * 0.82 * 0.448) ~ 2.94 GBps.
    EXPECT_NEAR(r.rate_cap, 8e9 * 0.82 * 0.448, 1e6);
}

TEST_F(RoutingTest, MediaRouteEndsBehindController)
{
    const NodeHandles &n0 = cluster_.node(0);
    const Route &r =
        cluster_.router().route(n0.drams[1], n0.nvme_medias[0]);
    EXPECT_EQ(r.hops.size(), 3u);  // dram -> cpu -> drive -> media
    // The media hop is the bottleneck (3.3 GBps < PCIe x4).
    EXPECT_NEAR(r.rate_cap, 3.3e9, 1e6);
}

TEST_F(RoutingTest, RouteViaPinsTheNic)
{
    const NodeHandles &n0 = cluster_.node(0);
    const NodeHandles &n1 = cluster_.node(1);
    // GPU 0 sits on socket 0; pin its egress to NIC 1 (socket 1).
    const ComponentId via[] = {n0.nics[1]};
    const Route &r =
        cluster_.router().routeThrough(n0.gpus[0], via, n1.gpus[0]);
    // gpu -> cpu0 -> cpu1 -> nic1 -> sw -> nic -> cpu -> gpu = 7 hops
    EXPECT_EQ(r.hops.size(), 7u);
    EXPECT_GE(r.crossings.size(), 3u);
    EXPECT_DOUBLE_EQ(r.serdes_factor, 0.2);
}

TEST_F(RoutingTest, RouteVia2PinsBothNics)
{
    const NodeHandles &n0 = cluster_.node(0);
    const NodeHandles &n1 = cluster_.node(1);
    const ComponentId via[] = {n0.nics[1], n1.nics[1]};
    const Route &r =
        cluster_.router().routeThrough(n0.drams[0], via, n1.drams[0]);
    // Two xGMI-involving crossings, one per node.
    EXPECT_EQ(r.crossings.size(), 2u);
    EXPECT_DOUBLE_EQ(r.serdes_factor, 0.224);
}

TEST_F(RoutingTest, RoutesAreCachedAndStable)
{
    const Route &a = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(5));
    const Route &b = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(5));
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.hops, b.hops);
}

TEST_F(RoutingTest, ComposedLookupsReturnTheSameObject)
{
    const NodeHandles &n0 = cluster_.node(0);
    const NodeHandles &n1 = cluster_.node(1);
    const ComponentId via[] = {n0.nics[1], n1.nics[0]};
    const Router &router = cluster_.router();
    const Route &a = router.routeThrough(n0.gpus[0], via, n1.gpus[0], 1);
    const Route &b = router.routeThrough(n0.gpus[0], via, n1.gpus[0], 1);
    EXPECT_EQ(&a, &b);
    // Another flow key or waypoint list is another cache entry.
    EXPECT_NE(&a, &router.routeThrough(n0.gpus[0], via, n1.gpus[0], 0));
    EXPECT_NE(&a, &router.routeThrough(n0.gpus[0],
                                       std::span(via).first(1),
                                       n1.gpus[0], 1));
    // No waypoints: the plain ECMP route itself.
    EXPECT_EQ(&router.routeThrough(n0.gpus[0], {}, n1.gpus[0], 1),
              &router.routeForFlow(n0.gpus[0], n1.gpus[0], 1));
    // The resource set is the hops' distinct resources in order.
    std::vector<ResourceId> expect;
    for (HalfLinkId hid : a.hops) {
        const ResourceId rid = cluster_.topology().halfLink(hid).resource;
        if (std::find(expect.begin(), expect.end(), rid) == expect.end())
            expect.push_back(rid);
    }
    EXPECT_EQ(a.resources, expect);
}

TEST_F(RoutingTest, RoutesOutliveACacheFlush)
{
    // A flush drops the lookups, not the storage: a reference taken
    // before it stays valid (ASan checks the reads), and the next
    // lookup builds a fresh, equal route.
    const NodeHandles &n0 = cluster_.node(0);
    const NodeHandles &n1 = cluster_.node(1);
    const ComponentId via[] = {n0.nics[1], n1.nics[1]};
    const Router &router = cluster_.router();
    const Route &plain = router.route(n0.gpus[0], n1.gpus[0]);
    const Route &pinned = router.routeThrough(n0.gpus[0], via, n1.gpus[0]);
    const std::vector<HalfLinkId> plain_hops = plain.hops;
    const std::vector<HalfLinkId> pinned_hops = pinned.hops;
    router.invalidateRouteCaches();
    const Route &pinned2 =
        router.routeThrough(n0.gpus[0], via, n1.gpus[0]);
    EXPECT_NE(&pinned, &pinned2);
    EXPECT_EQ(pinned2.hops, pinned_hops);
    EXPECT_EQ(pinned.hops, pinned_hops);
    EXPECT_EQ(plain.hops, plain_hops);
    EXPECT_EQ(&pinned2,
              &router.routeThrough(n0.gpus[0], via, n1.gpus[0]));
}

TEST_F(RoutingTest, LatencyIsSumOfHops)
{
    const Route &r = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(1));
    EXPECT_NEAR(r.latency, 700e-9, 1e-12);  // one NVLink hop
}

TEST(RoutingAblationTest, SerdesAblationLiftsTheCaps)
{
    ClusterSpec spec;
    spec.nodes = 2;
    spec.node.model_serdes_contention = false;
    Cluster ideal(spec);
    const Route &r = ideal.router().route(ideal.gpuByRank(0),
                                          ideal.gpuByRank(4));
    // Crossings are still reported, but the cap is the plain
    // bottleneck (the RoCE hop).
    EXPECT_EQ(r.crossings.size(), 2u);
    EXPECT_NEAR(r.rate_cap, 25e9 * 0.93, 1e6);
}

TEST(EcmpTest, SingleSwitchHasUniquePathsAndMatchesPlainRoute)
{
    ClusterSpec spec;
    spec.nodes = 2;
    Cluster cluster(spec);
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(4);
    const auto &paths = cluster.router().equalCostRoutes(src, dst);
    ASSERT_EQ(paths.size(), 1u);
    // Degenerate ECMP must return the plain route's cache entry —
    // the bit-identity guarantee for the default fabric.
    for (std::uint64_t key = 0; key < 8; ++key) {
        EXPECT_EQ(&cluster.router().routeForFlow(src, dst, key),
                  &cluster.router().route(src, dst));
    }
}

TEST(EcmpTest, SpineLeafEnumeratesOnePathPerSpine)
{
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    Cluster cluster(spec);
    // Ranks 0 and 12 live on nodes 0 and 3 — different leaves, so
    // every spine offers one equal-cost path.
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(12);
    const auto &paths = cluster.router().equalCostRoutes(src, dst);
    EXPECT_EQ(paths.size(), 4u);
    for (const Route &r : paths)
        EXPECT_EQ(r.hops.size(),
                  cluster.router().route(src, dst).hops.size());

    // Same-leaf traffic has a unique path through the shared leaf.
    EXPECT_EQ(cluster.router()
                  .equalCostRoutes(cluster.gpuByRank(0),
                                   cluster.gpuByRank(4))
                  .size(),
              1u);
}

TEST(EcmpTest, SelectionIsDeterministicAndKeyed)
{
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    Cluster a(spec);
    Cluster b(spec);
    const int src_rank = 0;
    const int dst_rank = 12;
    bool spread = false;
    for (std::uint64_t key = 0; key < 16; ++key) {
        const Route &ra = a.router().routeForFlow(
            a.gpuByRank(src_rank), a.gpuByRank(dst_rank), key);
        const Route &rb = b.router().routeForFlow(
            b.gpuByRank(src_rank), b.gpuByRank(dst_rank), key);
        // Identical clusters pick identical paths for the same key.
        ASSERT_EQ(ra.hops.size(), rb.hops.size());
        for (std::size_t h = 0; h < ra.hops.size(); ++h)
            EXPECT_EQ(ra.hops[h], rb.hops[h]);
        // Repeat calls are stable.
        EXPECT_EQ(&ra, &a.router().routeForFlow(a.gpuByRank(src_rank),
                                                a.gpuByRank(dst_rank),
                                                key));
        if (ra.hops != a.router()
                           .routeForFlow(a.gpuByRank(src_rank),
                                         a.gpuByRank(dst_rank), 0)
                           .hops) {
            spread = true;
        }
    }
    // 16 keys over 4 equal-cost paths: the hash must not collapse
    // every flow onto one spine.
    EXPECT_TRUE(spread);
}

TEST(EcmpTest, DisabledEcmpFallsBackToPlainRoutes)
{
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    spec.fabric.ecmp = false;
    Cluster cluster(spec);
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(12);
    for (std::uint64_t key = 0; key < 8; ++key) {
        EXPECT_EQ(&cluster.router().routeForFlow(src, dst, key),
                  &cluster.router().route(src, dst));
    }
}

TEST(RoutingDeathTest, SelfRouteRejected)
{
    Cluster cluster(ClusterSpec{});
    EXPECT_DEATH(
        cluster.router().route(cluster.gpuByRank(0),
                               cluster.gpuByRank(0)),
        "itself");
}

} // namespace
} // namespace dstrain
