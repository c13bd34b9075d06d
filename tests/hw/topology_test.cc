/**
 * @file
 * Tests for the topology graph.
 */

#include <gtest/gtest.h>

#include "hw/topology.hh"
#include "util/units.hh"

namespace dstrain {
namespace {

TEST(TopologyTest, AddComponentAssignsIdsAndTracksNodes)
{
    Topology topo;
    ComponentId a = topo.addComponent(ComponentKind::CpuIod, "cpu0", 0,
                                      0, 0);
    ComponentId b =
        topo.addComponent(ComponentKind::Gpu, "gpu0", 1, 0, 0);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(topo.componentCount(), 2u);
    EXPECT_EQ(topo.nodeCount(), 2);
    EXPECT_EQ(topo.component(b).name, "gpu0");
}

TEST(TopologyTest, DuplexLinkCreatesTwoResources)
{
    Topology topo;
    ComponentId a = topo.addComponent(ComponentKind::CpuIod, "a", 0, 0,
                                      0);
    ComponentId b = topo.addComponent(ComponentKind::Gpu, "b", 0, 0, 0);
    auto [fwd, rev] = topo.addDuplexLink(
        LinkClass::PcieGpu, 32.0 * units::GBps, a, b, PortKind::SerDes,
        PortKind::Device, 1e-9, "pcie");
    EXPECT_NE(fwd, rev);
    EXPECT_EQ(topo.resourceCount(), 2u);
    EXPECT_EQ(topo.halfLinkCount(), 2u);
    EXPECT_EQ(topo.resource(fwd).label, "pcie.fwd");
    EXPECT_DOUBLE_EQ(topo.resource(rev).capacity, 32.0 * units::GBps);
    // One outgoing link in each direction.
    EXPECT_EQ(topo.outgoing(a).size(), 1u);
    EXPECT_EQ(topo.outgoing(b).size(), 1u);
}

TEST(TopologyTest, SharedLinkUsesOneResource)
{
    Topology topo;
    ComponentId a = topo.addComponent(ComponentKind::CpuIod, "a", 0, 0,
                                      0);
    ComponentId b =
        topo.addComponent(ComponentKind::DramPool, "d", 0, 0, 0);
    ResourceId res = topo.addSharedLink(LinkClass::Dram,
                                        204.8 * units::GBps, a, b,
                                        PortKind::MemCtrl,
                                        PortKind::Device, 1e-9, "dram");
    EXPECT_EQ(topo.resourceCount(), 1u);
    EXPECT_EQ(topo.halfLinkCount(), 2u);
    EXPECT_EQ(topo.halfLink(0).resource, res);
    EXPECT_EQ(topo.halfLink(1).resource, res);
}

TEST(TopologyTest, FindAndFilterByKind)
{
    Topology topo;
    topo.addComponent(ComponentKind::Gpu, "g0", 0, 0, 0);
    topo.addComponent(ComponentKind::Gpu, "g1", 0, 0, 1);
    topo.addComponent(ComponentKind::Gpu, "g2", 1, 0, 0);
    topo.addComponent(ComponentKind::Nic, "n", 0, 0, 0);

    EXPECT_EQ(topo.componentsOfKind(ComponentKind::Gpu).size(), 3u);
    EXPECT_EQ(topo.componentsOfKind(ComponentKind::Gpu, 0).size(), 2u);
    EXPECT_EQ(topo.findComponent(ComponentKind::Gpu, 1, 0), 2);
    EXPECT_EQ(topo.findComponent(ComponentKind::Gpu, 2, 0),
              kNoComponent);
}

TEST(TopologyDeathTest, InvalidIdsRejected)
{
    Topology topo;
    EXPECT_DEATH(topo.component(0), "bad component");
    ComponentId a =
        topo.addComponent(ComponentKind::CpuIod, "a", 0, 0, 0);
    EXPECT_DEATH(topo.addResource(LinkClass::Dram, 0.0, "zero", 0, 0),
                 "positive capacity");
    ResourceId r =
        topo.addResource(LinkClass::Dram, 1.0, "one", 0, 0);
    EXPECT_DEATH(topo.addHalfLink(r, a, a, PortKind::MemCtrl,
                                  PortKind::MemCtrl, LinkClass::Dram,
                                  0.0),
                 "self-link");
}

TEST(TopologyTest, FinalizeLogsClosesAll)
{
    Topology topo;
    ComponentId a =
        topo.addComponent(ComponentKind::CpuIod, "a", 0, 0, 0);
    ComponentId b = topo.addComponent(ComponentKind::Gpu, "b", 0, 0, 0);
    auto [fwd, rev] = topo.addDuplexLink(LinkClass::PcieGpu, 1.0, a, b,
                                         PortKind::SerDes,
                                         PortKind::Device, 0.0, "l");
    topo.armStreams(0.0, 1.0);
    topo.resource(fwd).log.setRate(0.0, 0.5);
    topo.finalizeLogs(2.0);
    EXPECT_DOUBLE_EQ(topo.resource(fwd).log.totalBytes(), 1.0);
    EXPECT_DOUBLE_EQ(topo.resource(fwd).log.streamEnd(), 2.0);
    // The untouched reverse log closes one zero-rate segment, which
    // carries no bytes and deposits nothing.
    EXPECT_DOUBLE_EQ(topo.resource(rev).log.totalBytes(), 0.0);
    EXPECT_EQ(topo.resource(rev).log.bucketsTouched(), 0u);
}

} // namespace
} // namespace dstrain
