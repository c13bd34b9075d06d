/**
 * @file
 * Tests for the Table IV-style summary rendering.
 */

#include <gtest/gtest.h>

#include "telemetry/summary.hh"

namespace dstrain {
namespace {

TEST(SummaryTest, TableHasThreeColumnsPerClass)
{
    TextTable table = makeBandwidthTable();
    BandwidthRow row;
    row.config = "test";
    row.per_class.resize(tableIvClasses().size());
    row.per_class[0] = BandwidthSummary{1.5e9, 2.5e9, 3.5e9};
    addBandwidthRow(table, row);
    const std::string out = table.render();
    EXPECT_NE(out.find("DRAM avg"), std::string::npos);
    EXPECT_NE(out.find("RoCE peak"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("3.50"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 1u);
}

TEST(SummaryTest, MeasureRowCoversAllClasses)
{
    Topology topo;
    ComponentId a =
        topo.addComponent(ComponentKind::CpuIod, "a", 0, 0, 0);
    ComponentId b = topo.addComponent(ComponentKind::Gpu, "b", 0, 0, 0);
    auto [fwd, rev] = topo.addDuplexLink(LinkClass::PcieGpu, 32e9, a, b,
                                         PortKind::SerDes,
                                         PortKind::Device, 0.0, "l");
    (void)rev;
    topo.armStreams(0.0, 0.1);
    topo.resource(fwd).log.setRate(0.0, 10e9);
    topo.finalizeLogs(1.0);

    const BandwidthRow row =
        measureBandwidthRow("cfg", topo, 0.0, 1.0, 0.1);
    EXPECT_EQ(row.config, "cfg");
    ASSERT_EQ(row.per_class.size(), tableIvClasses().size());
    // PCIe-GPU is index 2 in the table order.
    EXPECT_NEAR(row.per_class[2].avg, 10e9, 1e3);
    EXPECT_DOUBLE_EQ(row.per_class[0].avg, 0.0);
}

} // namespace
} // namespace dstrain
