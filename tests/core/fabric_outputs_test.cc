/**
 * @file
 * Recorded outputs of the generated fabrics: a handful of CLI configs
 * on fat-tree, rail and spine-leaf fabrics, with their report fields
 * pinned as exact `%a` literals.
 *
 * FingerprintRegression pins only the single-switch presets. These
 * configs cover what no golden reaches: ring FSDP across a fat-tree
 * core, MoE all-to-all on an oversubscribed fat-tree with link faults
 * under resilience, a rail fabric losing a rail, pairwise all-to-all
 * on spine-leaf, and the tree and hierarchical all-reduce schedules.
 *
 * Each field is compared at a relative tolerance of 1e-12 (absolute
 * 1e-9 near zero), fixed before the values were captured, so a change
 * that only reorders a float sum passes while any modelling change
 * fails and names the field that moved. On a mismatch the test
 * prints the config's whole table in the source format for review.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/config_args.hh"
#include "telemetry/probe.hh"

namespace dstrain {
namespace {

constexpr double kRelTol = 1e-12;
constexpr double kAbsTol = 1e-9;

using Fields = std::vector<std::pair<std::string, double>>;

/** The experiment the CLI would run for @p argv. */
ExperimentConfig
configFromCli(std::vector<const char *> argv)
{
    ArgParser args("dstrain", "fabric outputs");
    addExperimentOptions(args);
    argv.insert(argv.begin(), "dstrain");
    EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
    ParsedExperiment parsed = experimentFromArgs(args);
    EXPECT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    return parsed.config;
}

/** Flatten the recorded report fields, in a fixed order. */
Fields
recordedFields(const ExperimentReport &r)
{
    Fields out;
    const std::vector<SimTime> &ends = r.execution.iteration_ends;
    for (std::size_t i = 0; i < ends.size(); ++i)
        out.emplace_back("iter_end." + std::to_string(i), ends[i]);
    out.emplace_back("tflops", r.tflops);
    out.emplace_back("measured_begin", r.execution.measured_begin);
    out.emplace_back("measured_end", r.execution.measured_end);
    const std::vector<LinkClass> &classes = tableIvClasses();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const std::string cls = std::string("bw.") +
                                linkClassName(classes[i]);
        const BandwidthSummary &bw = r.bandwidth.per_class[i];
        out.emplace_back(cls + ".avg", bw.avg);
        out.emplace_back(cls + ".p90", bw.p90);
        out.emplace_back(cls + ".peak", bw.peak);
    }
    for (const CollectiveUsage &u : r.collectives) {
        const std::string row = std::string("coll.") +
                                collectiveOpName(u.op) + "/" +
                                collectiveAlgoName(u.algo);
        out.emplace_back(row + ".invocations",
                         static_cast<double>(u.invocations));
        out.emplace_back(row + ".fabric_bytes", u.fabric_bytes);
    }
    for (std::size_t i = 0; i < r.faults.size(); ++i) {
        const std::string f = "fault." + std::to_string(i);
        out.emplace_back(f + ".applied_at", r.faults[i].applied_at);
        out.emplace_back(f + ".restored_at", r.faults[i].restored_at);
    }
    return out;
}

bool
close(double actual, double expected)
{
    return std::abs(actual - expected) <=
           std::max(kRelTol * std::max(std::abs(actual),
                                       std::abs(expected)),
                    kAbsTol);
}

/** @p fields in the source format of a Recorded table. */
std::string
asSource(const Fields &fields)
{
    std::string out;
    char buf[160];
    for (const auto &[name, value] : fields) {
        std::snprintf(buf, sizeof buf, "        {\"%s\", %a},\n",
                      name.c_str(), value);
        out += buf;
    }
    return out;
}

/** One config: its CLI arguments and its recorded fields. */
struct Recorded {
    const char *name;
    std::vector<const char *> argv;
    Fields fields;
};

void
PrintTo(const Recorded &r, std::ostream *os)
{
    *os << r.name;
}

class FabricOutputs : public testing::TestWithParam<Recorded>
{
};

TEST_P(FabricOutputs, MatchRecorded)
{
    const Recorded &rec = GetParam();
    const Fields got =
        recordedFields(runExperiment(configFromCli(rec.argv)));
    bool same = got.size() == rec.fields.size();
    for (std::size_t i = 0; same && i < got.size(); ++i)
        same = got[i].first == rec.fields[i].first;
    ASSERT_TRUE(same) << "field list changed; now:\n" << asSource(got);
    bool all_close = true;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto &[name, want] = rec.fields[i];
        if (!close(got[i].second, want)) {
            all_close = false;
            ADD_FAILURE() << name << ": " << got[i].second
                          << " != recorded " << want << " (relative "
                          << (got[i].second - want) / want << ")";
        }
    }
    if (!all_close)
        std::printf("%s now:\n%s", rec.name, asSource(got).c_str());
}

const Recorded kRecorded[] = {
    {"FatTreeFsdpRing",
     {"--nodes", "8", "--fabric", "fat-tree:k=4", "--strategy", "fsdp",
      "--model", "6.6", "--iterations", "3"},
     {
        {"iter_end.0", 0x1.498ad2b6165f4p+1},
        {"iter_end.1", 0x1.498ad2b616586p+2},
        {"iter_end.2", 0x1.ee503c11219ap+2},
        {"tflops", 0x1.57208b0ce4cefp+11},
        {"measured_begin", 0x1.498ad2b616586p+2},
        {"measured_end", 0x1.ee503c11219ap+2},
        {"bw.DRAM.avg", 0x0p+0},
        {"bw.DRAM.p90", 0x0p+0},
        {"bw.DRAM.peak", 0x0p+0},
        {"bw.xGMI.avg", 0x1.b7cf7a7627c0fp+33},
        {"bw.xGMI.p90", 0x1.36d0dc33334ep+34},
        {"bw.xGMI.peak", 0x1.36dcdf33334d8p+34},
        {"bw.PCIe-GPU.avg", 0x1.b7cf7a7627c09p+34},
        {"bw.PCIe-GPU.p90", 0x1.36d0dc33334d6p+35},
        {"bw.PCIe-GPU.peak", 0x1.36dcdf33334dp+35},
        {"bw.PCIe-NVME.avg", 0x0p+0},
        {"bw.PCIe-NVME.p90", 0x0p+0},
        {"bw.PCIe-NVME.peak", 0x0p+0},
        {"bw.PCIe-NIC.avg", 0x1.b7cf7a7627c09p+34},
        {"bw.PCIe-NIC.p90", 0x1.36d0dc33334d6p+35},
        {"bw.PCIe-NIC.peak", 0x1.36dcdf33334d2p+35},
        {"bw.NVLink.avg", 0x1.49db9bd89dd9cp+35},
        {"bw.NVLink.p90", 0x1.d2daf2400069ep+35},
        {"bw.NVLink.peak", 0x1.d4be7e0df2385p+35},
        {"bw.RoCE.avg", 0x1.5613265be6079p+35},
        {"bw.RoCE.p90", 0x1.e37dc84fa522ep+35},
        {"bw.RoCE.peak", 0x1.e39077a4fa78p+35},
        {"coll.all-gather/ring.invocations", 0x1.2p+7},
        {"coll.all-gather/ring.fabric_bytes", 0x1.1de0760000003p+41},
        {"coll.reduce-scatter/ring.invocations", 0x1.2p+6},
        {"coll.reduce-scatter/ring.fabric_bytes", 0x1.1de075ffffffep+40},
     }},
    {"OversubFatTreeMoeFaults",
     {"--nodes", "4", "--fabric", "fat-tree:k=4,oversub=4", "--strategy",
      "moe", "--model", "6.6", "--iterations", "3", "--resilience",
      "--faults",
      "linkdown@6.82:rail0,degrade@7.14+0.95:roce/n1:0.25,"
      "flap@7.93+0.32:roce/n3"},
     {
        {"iter_end.0", 0x1.96201f939abe8p+1},
        {"iter_end.1", 0x1.96201f939aaf8p+2},
        {"iter_end.2", 0x1.51a5f1b81039ap+3},
        {"tflops", 0x1.aa20eb20ac049p+9},
        {"measured_begin", 0x1.96201f939aaf8p+2},
        {"measured_end", 0x1.51a5f1b81039ap+3},
        {"bw.DRAM.avg", 0x0p+0},
        {"bw.DRAM.p90", 0x0p+0},
        {"bw.DRAM.peak", 0x0p+0},
        {"bw.xGMI.avg", 0x1.a600bfb2dea37p+33},
        {"bw.xGMI.p90", 0x1.38221e00000a4p+34},
        {"bw.xGMI.peak", 0x1.b8417b22c6e5ap+34},
        {"bw.PCIe-GPU.avg", 0x1.da611aca6b3c4p+33},
        {"bw.PCIe-GPU.p90", 0x1.b13d2d5a80e1ap+34},
        {"bw.PCIe-GPU.peak", 0x1.00d49a64ceb65p+35},
        {"bw.PCIe-NVME.avg", 0x0p+0},
        {"bw.PCIe-NVME.p90", 0x0p+0},
        {"bw.PCIe-NVME.peak", 0x0p+0},
        {"bw.PCIe-NIC.avg", 0x1.a601ae97905abp+34},
        {"bw.PCIe-NIC.p90", 0x1.38221e00000a2p+35},
        {"bw.PCIe-NIC.peak", 0x1.b8419c3834967p+35},
        {"bw.NVLink.avg", 0x1.b123505f3f864p+32},
        {"bw.NVLink.p90", 0x1.cd17740000721p+34},
        {"bw.NVLink.peak", 0x1.dc761a000075fp+34},
        {"bw.RoCE.avg", 0x1.7b80e23b88fd3p+33},
        {"bw.RoCE.p90", 0x1.5a97577b9a4e1p+34},
        {"bw.RoCE.peak", 0x1.9aedc3d47df0fp+34},
        {"coll.all-to-all/pairwise.invocations", 0x1.2p+8},
        {"coll.all-to-all/pairwise.fabric_bytes", 0x1.6adp+38},
        {"coll.all-reduce/ring.invocations", 0x1.8p+4},
        {"coll.all-reduce/ring.fabric_bytes", 0x1.70df8ffffffffp+38},
        {"fault.0.applied_at", 0x1.b47ae147ae148p+2},
        {"fault.0.restored_at", 0x0p+0},
        {"fault.1.applied_at", 0x1.c8f5c28f5c28fp+2},
        {"fault.1.restored_at", 0x1.02e147ae147aep+3},
        {"fault.2.applied_at", 0x1.fb851eb851eb8p+2},
        {"fault.2.restored_at", 0x1.08p+3},
     }},
    {"RailMoeLinkdown",
     {"--nodes", "4", "--fabric", "rail", "--strategy", "moe", "--model",
      "1.4", "--iterations", "3", "--resilience", "--faults",
      "linkdown@2:rail0"},
     {
        {"iter_end.0", 0x1.86adc79ac8b98p-1},
        {"iter_end.1", 0x1.86adc79ac8bbap+0},
        {"iter_end.2", 0x1.273137cefed4dp+1},
        {"tflops", 0x1.eb1c88230566ep+9},
        {"measured_begin", 0x1.86adc79ac8bbap+0},
        {"measured_end", 0x1.273137cefed4dp+1},
        {"bw.DRAM.avg", 0x0p+0},
        {"bw.DRAM.p90", 0x0p+0},
        {"bw.DRAM.peak", 0x0p+0},
        {"bw.xGMI.avg", 0x1.649ccb278bb55p+33},
        {"bw.xGMI.p90", 0x1.003de90c17ce3p+34},
        {"bw.xGMI.peak", 0x1.411832e0f0a8ap+34},
        {"bw.PCIe-GPU.avg", 0x1.05a21fbd7d1adp+34},
        {"bw.PCIe-GPU.p90", 0x1.63151e30d054bp+34},
        {"bw.PCIe-GPU.peak", 0x1.a94664a2b81ebp+34},
        {"bw.PCIe-NVME.avg", 0x0p+0},
        {"bw.PCIe-NVME.p90", 0x0p+0},
        {"bw.PCIe-NVME.peak", 0x0p+0},
        {"bw.PCIe-NIC.avg", 0x1.649ccb278bbcdp+34},
        {"bw.PCIe-NIC.p90", 0x1.003dcc7b7645dp+35},
        {"bw.PCIe-NIC.peak", 0x1.4117d3a980e2bp+35},
        {"bw.NVLink.avg", 0x1.eca9ab7ffe30cp+32},
        {"bw.NVLink.p90", 0x1.7700617ffe4d2p+34},
        {"bw.NVLink.peak", 0x1.c2e5e47ffdda4p+34},
        {"bw.RoCE.avg", 0x1.04dc473fffb05p+34},
        {"bw.RoCE.p90", 0x1.63151e30d0546p+34},
        {"bw.RoCE.peak", 0x1.a94664a2b81dfp+34},
        {"coll.all-to-all/pairwise.invocations", 0x1.2p+8},
        {"coll.all-to-all/pairwise.fabric_bytes", 0x1.248p+36},
        {"coll.all-reduce/ring.invocations", 0x1.8p+4},
        {"coll.all-reduce/ring.fabric_bytes", 0x1.3c2156p+36},
        {"fault.0.applied_at", 0x1p+1},
        {"fault.0.restored_at", 0x0p+0},
     }},
    {"SpineLeafMoePairwise",
     {"--nodes", "4", "--fabric", "spine-leaf", "--strategy", "moe",
      "--model", "1.4", "--iterations", "3", "--collective-algo",
      "all-to-all=pairwise"},
     {
        {"iter_end.0", 0x1.c6659d43e1873p-1},
        {"iter_end.1", 0x1.c6659d43e171cp+0},
        {"iter_end.2", 0x1.54cc35f2e923ep+1},
        {"tflops", 0x1.afaee35d297bep+9},
        {"measured_begin", 0x1.c6659d43e171cp+0},
        {"measured_end", 0x1.54cc35f2e923ep+1},
        {"bw.DRAM.avg", 0x0p+0},
        {"bw.DRAM.p90", 0x0p+0},
        {"bw.DRAM.peak", 0x0p+0},
        {"bw.xGMI.avg", 0x1.cfc07eaaab38cp+32},
        {"bw.xGMI.p90", 0x1.355e2bbe4f968p+33},
        {"bw.xGMI.peak", 0x1.39d3eb1fd7e9fp+33},
        {"bw.PCIe-GPU.avg", 0x1.cfc07eaaab109p+33},
        {"bw.PCIe-GPU.p90", 0x1.355e2d0a8b9e4p+34},
        {"bw.PCIe-GPU.peak", 0x1.39d3f19d0423fp+34},
        {"bw.PCIe-NVME.avg", 0x0p+0},
        {"bw.PCIe-NVME.p90", 0x0p+0},
        {"bw.PCIe-NVME.peak", 0x0p+0},
        {"bw.PCIe-NIC.avg", 0x1.cfc07eaaab11p+33},
        {"bw.PCIe-NIC.p90", 0x1.355e2d0a8b9dfp+34},
        {"bw.PCIe-NIC.peak", 0x1.39d3f19d0424p+34},
        {"bw.NVLink.avg", 0x1.b5ec26aaa68b4p+32},
        {"bw.NVLink.p90", 0x1.801ed1dffe44ep+34},
        {"bw.NVLink.peak", 0x1.a2fbc0dffdf11p+34},
        {"bw.RoCE.avg", 0x1.2d5cbdc71caf9p+34},
        {"bw.RoCE.p90", 0x1.7f2f12d1892f7p+34},
        {"bw.RoCE.peak", 0x1.a2fa93a5e4ad2p+34},
        {"coll.all-to-all/pairwise.invocations", 0x1.2p+8},
        {"coll.all-to-all/pairwise.fabric_bytes", 0x1.248p+36},
        {"coll.all-reduce/ring.invocations", 0x1.8p+4},
        {"coll.all-reduce/ring.fabric_bytes", 0x1.3c2156p+36},
     }},
    {"FatTreeDdpTree",
     {"--nodes", "4", "--fabric", "fat-tree:k=4", "--strategy", "ddp",
      "--model", "1.4", "--iterations", "3", "--collective-algo",
      "all-reduce=tree"},
     {
        {"iter_end.0", 0x1.286f466ee47fep+1},
        {"iter_end.1", 0x1.286f466ee480bp+2},
        {"iter_end.2", 0x1.bca6e9a656c0dp+2},
        {"tflops", 0x1.536868b610235p+8},
        {"measured_begin", 0x1.286f466ee480bp+2},
        {"measured_end", 0x1.bca6e9a656c0dp+2},
        {"bw.DRAM.avg", 0x0p+0},
        {"bw.DRAM.p90", 0x0p+0},
        {"bw.DRAM.peak", 0x0p+0},
        {"bw.xGMI.avg", 0x1.a581c8000001p+32},
        {"bw.xGMI.p90", 0x1.06685883faedcp+33},
        {"bw.xGMI.peak", 0x1.0f7b1d3a011d3p+33},
        {"bw.PCIe-GPU.avg", 0x1.a581c80000003p+33},
        {"bw.PCIe-GPU.p90", 0x1.06411f63bce9ap+34},
        {"bw.PCIe-GPU.peak", 0x1.0f7b3879011b6p+34},
        {"bw.PCIe-NVME.avg", 0x0p+0},
        {"bw.PCIe-NVME.p90", 0x0p+0},
        {"bw.PCIe-NVME.peak", 0x0p+0},
        {"bw.PCIe-NIC.avg", 0x1.a581c80000004p+33},
        {"bw.PCIe-NIC.p90", 0x1.06411f63bce9bp+34},
        {"bw.PCIe-NIC.peak", 0x1.0f7b3879011b7p+34},
        {"bw.NVLink.avg", 0x1.a581c7fffff19p+30},
        {"bw.NVLink.p90", 0x1.3c2155fffff99p+32},
        {"bw.NVLink.peak", 0x1.3c2155fffff99p+32},
        {"bw.RoCE.avg", 0x1.1901300000001p+34},
        {"bw.RoCE.p90", 0x1.6d3b85c73ed4cp+34},
        {"bw.RoCE.peak", 0x1.785a9afe9cf14p+34},
        {"coll.all-reduce/tree.invocations", 0x1.8p+4},
        {"coll.all-reduce/tree.fabric_bytes", 0x1.da3201p+37},
     }},
    {"FatTreeDdpHierarchical",
     {"--nodes", "4", "--fabric", "fat-tree:k=4", "--strategy", "ddp",
      "--model", "1.4", "--iterations", "3", "--collective-algo",
      "all-reduce=hierarchical"},
     {
        {"iter_end.0", 0x1.df95bf04d5123p-2},
        {"iter_end.1", 0x1.df95bf04d5119p-1},
        {"iter_end.2", 0x1.67b04f439fcdcp+0},
        {"tflops", 0x1.a3949d980510bp+10},
        {"measured_begin", 0x1.df95bf04d5119p-1},
        {"measured_end", 0x1.67b04f439fcdcp+0},
        {"bw.DRAM.avg", 0x0p+0},
        {"bw.DRAM.p90", 0x0p+0},
        {"bw.DRAM.peak", 0x0p+0},
        {"bw.xGMI.avg", 0x1.f9cef0000006bp+32},
        {"bw.xGMI.p90", 0x1.b9a926a010c74p+33},
        {"bw.xGMI.peak", 0x1.d2755d7b08a87p+33},
        {"bw.PCIe-GPU.avg", 0x1.f9ceefffffff8p+33},
        {"bw.PCIe-GPU.p90", 0x1.b998b2519414ap+34},
        {"bw.PCIe-GPU.peak", 0x1.d1eba3a79cedp+34},
        {"bw.PCIe-NVME.avg", 0x0p+0},
        {"bw.PCIe-NVME.p90", 0x0p+0},
        {"bw.PCIe-NVME.peak", 0x0p+0},
        {"bw.PCIe-NIC.avg", 0x1.f9ceefffffffap+33},
        {"bw.PCIe-NIC.p90", 0x1.b998b2519414ap+34},
        {"bw.PCIe-NIC.peak", 0x1.d1eba3a79cedp+34},
        {"bw.NVLink.avg", 0x1.f9ceeffffff56p+34},
        {"bw.NVLink.p90", 0x1.8ea93ab5d2e7dp+35},
        {"bw.NVLink.peak", 0x1.9ca7778d1ea84p+35},
        {"bw.RoCE.avg", 0x1.2f7c2999999a3p+34},
        {"bw.RoCE.p90", 0x1.0906292cca2fdp+35},
        {"bw.RoCE.peak", 0x1.181b32a411117p+35},
        {"coll.all-reduce/hierarchical.invocations", 0x1.8p+4},
        {"coll.all-reduce/hierarchical.fabric_bytes", 0x1.da3201p+37},
     }},
};

INSTANTIATE_TEST_SUITE_P(Configs, FabricOutputs,
                         testing::ValuesIn(kRecorded),
                         [](const testing::TestParamInfo<Recorded> &info) {
                             return std::string(info.param.name);
                         });

} // namespace
} // namespace dstrain
