/**
 * @file
 * Implementation of the RoCE stress test.
 */

#include "net/stress_test.hh"

#include <memory>

#include "net/transfer_manager.hh"
#include "util/logging.hh"

namespace dstrain {

namespace {

/**
 * Keep a stream alive by restarting a large transfer on completion
 * until the deadline passes.
 */
void
sustainStream(TransferManager &tm, ComponentId src, ComponentId dst,
              ComponentId via, ComponentId via2, SimTime deadline,
              const std::string &tag)
{
    if (tm.sim().now() >= deadline)
        return;
    // Large-but-finite messages approximate perftest's back-to-back
    // posting; 256 MB keeps the event count low while re-planning
    // often enough for the fair-share model.
    const Bytes chunk = 256e6;
    const ComponentId waypoints[] = {via, via2};
    TransferOptions opts;
    opts.waypoints = waypoints;
    opts.tag = tm.internTag(tag);
    tm.start(src, dst, chunk,
             [&tm, src, dst, via, via2, deadline, tag] {
                 sustainStream(tm, src, dst, via, via2, deadline, tag);
             },
             std::move(opts));
}

} // namespace

StressResult
runRoceStressTest(const StressConfig &cfg)
{
    ClusterSpec spec;
    spec.nodes = 2;
    Simulation sim;
    Cluster cluster(spec);
    FlowScheduler flows(sim, cluster.topology());
    TransferManager tm(sim, cluster, flows);

    const SimTime warmup = 0.2;
    const SimTime deadline = warmup + cfg.duration;

    // Four instances, bidirectional. CPU mode: two per socket, host
    // memory to host memory. GPUDirect: one per GPU.
    for (int node = 0; node < 2; ++node) {
        const int peer = 1 - node;
        const NodeHandles &local = cluster.node(node);
        const NodeHandles &remote = cluster.node(peer);
        if (cfg.gpu_direct) {
            for (std::size_t g = 0; g < local.gpus.size(); ++g) {
                const int socket =
                    gpuSocket(spec.node, static_cast<int>(g));
                const int nic_socket =
                    cfg.cross_socket ? 1 - socket : socket;
                sustainStream(
                    tm, local.gpus[g], remote.gpus[g],
                    local.nics[static_cast<std::size_t>(nic_socket)],
                    remote.nics[static_cast<std::size_t>(nic_socket)],
                    deadline, csprintf("gpu-stress n%d g%zu", node, g));
            }
        } else {
            for (int socket = 0; socket < 2; ++socket) {
                const int nic_socket =
                    cfg.cross_socket ? 1 - socket : socket;
                for (int inst = 0; inst < 2; ++inst) {
                    sustainStream(
                        tm, local.drams[static_cast<std::size_t>(socket)],
                        remote.drams[static_cast<std::size_t>(socket)],
                        local.nics[static_cast<std::size_t>(nic_socket)],
                        remote.nics[static_cast<std::size_t>(nic_socket)],
                        deadline,
                        csprintf("cpu-stress n%d s%d i%d", node, socket,
                                 inst));
                }
            }
        }
    }

    // The telemetry grid starts where the streams reach steady state
    // (the accumulator clips earlier history) and is read at the
    // deadline, before the in-flight chunks drain past it.
    Topology &topo = cluster.topology();
    topo.armStreams(warmup, cfg.bucket);
    sim.runUntil(deadline);
    flows.finalizeLogs();

    StressResult result;
    result.dram = summarizeClassBandwidth(topo, LinkClass::Dram, warmup,
                                          deadline, cfg.bucket);
    result.xgmi = summarizeClassBandwidth(topo, LinkClass::Xgmi, warmup,
                                          deadline, cfg.bucket);
    result.pcie_gpu = summarizeClassBandwidth(topo, LinkClass::PcieGpu,
                                              warmup, deadline,
                                              cfg.bucket);
    result.pcie_nic = summarizeClassBandwidth(topo, LinkClass::PcieNic,
                                              warmup, deadline,
                                              cfg.bucket);
    result.roce = summarizeClassBandwidth(topo, LinkClass::Roce, warmup,
                                          deadline, cfg.bucket);
    // Every NIC on a node, both directions.
    result.roce_theoretical = static_cast<double>(spec.node.nics) * 2.0 *
                              spec.node.roce_per_dir;
    sim.run();  // drain in-flight chunks so no flows leak
    return result;
}

} // namespace dstrain
