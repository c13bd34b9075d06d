/**
 * @file
 * Implementation of the XE8545 node builder.
 */

#include "hw/node_builder.hh"

#include <string>

#include "util/logging.hh"

namespace dstrain {

int
gpuSocket(const NodeSpec &spec, int gpu_index)
{
    DSTRAIN_ASSERT(gpu_index >= 0 && gpu_index < spec.gpus,
                   "gpu index %d out of range", gpu_index);
    // Fig. 2-b: a pair of GPUs hangs off each CPU. Generalized:
    // first half of the GPUs on socket 0, second half on socket 1.
    const int per_socket = (spec.gpus + spec.sockets - 1) / spec.sockets;
    return gpu_index / per_socket;
}

NodeHandles
buildNode(Topology &topo, int node, const NodeSpec &spec)
{
    DSTRAIN_ASSERT(spec.sockets == 2,
                   "the XE8545 model requires exactly 2 sockets (got %d)",
                   spec.sockets);
    DSTRAIN_ASSERT(spec.gpus >= 1, "need at least one GPU per node");
    DSTRAIN_ASSERT(spec.nics >= 1, "need at least one NIC per node");

    NodeHandles h;
    // Appended: GCC 12 flags "n" + std::to_string(node) with a
    // -Wrestrict false positive.
    std::string prefix = "n";
    prefix += std::to_string(node);
    prefix += '.';

    // CPUs and their DRAM pools.
    for (int s = 0; s < spec.sockets; ++s) {
        ComponentId cpu = topo.addComponent(
            ComponentKind::CpuIod, prefix + "cpu" + std::to_string(s), node, s,
            s);
        ComponentId dram = topo.addComponent(
            ComponentKind::DramPool, prefix + "dram" + std::to_string(s), node,
            s, s);
        h.cpus.push_back(cpu);
        h.drams.push_back(dram);

        // DRAM: eight half-duplex channels modeled as one shared
        // pool per socket (the paper reports aggregate per-node DRAM
        // bandwidth, 25.6 GBps x 16 channels across two sockets).
        const Bps dram_pool =
            spec.dram_channel * static_cast<double>(spec.dram_channels);
        topo.addSharedLink(LinkClass::Dram, dram_pool, cpu, dram,
                           PortKind::MemCtrl, PortKind::Device,
                           spec.dram_latency,
                           prefix + "dram" + std::to_string(s));
    }

    // xGMI: three IFIS links aggregated into one duplex bundle.
    const Bps xgmi =
        spec.xgmi_per_link * static_cast<double>(spec.xgmi_links);
    topo.addDuplexLink(LinkClass::Xgmi, xgmi, h.cpus[0], h.cpus[1],
                       PortKind::SerDes, PortKind::SerDes,
                       spec.xgmi_latency, prefix + "xgmi");

    // GPUs: PCIe x16 to the owning socket + full NVLink mesh.
    for (int g = 0; g < spec.gpus; ++g) {
        ComponentId gpu = topo.addComponent(
            ComponentKind::Gpu, prefix + "gpu" + std::to_string(g), node,
            gpuSocket(spec, g), g);
        h.gpus.push_back(gpu);
        topo.addDuplexLink(LinkClass::PcieGpu, spec.pcie_x16,
                           h.cpus[static_cast<std::size_t>(
                               gpuSocket(spec, g))],
                           gpu, PortKind::SerDes, PortKind::Device,
                           spec.pcie_latency,
                           prefix + "pcie-gpu" + std::to_string(g));
    }
    const Bps nvlink_pair = spec.nvlink_per_link *
                            static_cast<double>(spec.nvlink_links_per_pair);
    for (int a = 0; a < spec.gpus; ++a) {
        for (int b = a + 1; b < spec.gpus; ++b) {
            topo.addDuplexLink(LinkClass::NvLink, nvlink_pair,
                               h.gpus[static_cast<std::size_t>(a)],
                               h.gpus[static_cast<std::size_t>(b)],
                               PortKind::Device, PortKind::Device,
                               spec.nvlink_latency,
                               prefix + "nvlink" + std::to_string(a) + "-" + std::to_string(b));
        }
    }

    // NICs on PCIe link #2, round-robined across sockets (the
    // default, 2 NICs x 2 sockets, is the XE8545's one-per-socket
    // layout).
    for (int i = 0; i < spec.nics; ++i) {
        const int s = i % spec.sockets;
        ComponentId nic = topo.addComponent(
            ComponentKind::Nic, prefix + "nic" + std::to_string(i), node, s, i);
        h.nics.push_back(nic);
        topo.addDuplexLink(LinkClass::PcieNic, spec.pcie_x16,
                           h.cpus[static_cast<std::size_t>(s)], nic,
                           PortKind::SerDes, PortKind::Device,
                           spec.pcie_latency,
                           prefix + "pcie-nic" + std::to_string(i));
    }

    // The shared IOD crossbar path consumed by cross-socket storage
    // streams (see NodeSpec::iod_storage_crossing).
    h.iod_crossing = topo.addResource(LinkClass::IodXbar,
                                      spec.iod_storage_crossing,
                                      prefix + "iod-xbar", node, -1);

    // NVMe scratch drives on bifurcated x4 lanes.
    for (std::size_t d = 0; d < spec.nvme_drives.size(); ++d) {
        const NvmeDriveSpec &ds = spec.nvme_drives[d];
        DSTRAIN_ASSERT(ds.socket >= 0 && ds.socket < spec.sockets,
                       "nvme drive %zu on bad socket %d", d, ds.socket);
        ComponentId drive = topo.addComponent(
            ComponentKind::NvmeDrive, prefix + "nvme" + std::to_string(d),
            node, ds.socket, static_cast<int>(d));
        h.nvmes.push_back(drive);
        topo.addDuplexLink(LinkClass::PcieNvme, spec.pcie_x4,
                           h.cpus[static_cast<std::size_t>(ds.socket)],
                           drive, PortKind::SerDes, PortKind::Device,
                           spec.pcie_latency,
                           prefix + "pcie-nvme" + std::to_string(d));

        // The NAND media behind the controller: a half-duplex
        // (read/write shared) constraint. Cache-burst traffic
        // terminates at the controller and bypasses it.
        ComponentId media = topo.addComponent(
            ComponentKind::NvmeMedia,
            prefix + "nvme" + std::to_string(d) + ".media", node, ds.socket,
            static_cast<int>(d));
        h.nvme_medias.push_back(media);
        topo.addSharedLink(LinkClass::NvmeMedia, ds.media_rate, drive,
                           media, PortKind::Device, PortKind::Device,
                           20e-6, prefix + "nvme" + std::to_string(d) + ".media");
    }

    return h;
}

} // namespace dstrain
