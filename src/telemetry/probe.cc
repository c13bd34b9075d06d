/**
 * @file
 * Implementation of the bandwidth probes.
 */

#include "telemetry/probe.hh"

#include <algorithm>
#include <cstdint>
#include <span>

#include "util/logging.hh"

namespace dstrain {
namespace {

/**
 * The one resource walk behind every probe: the series of each class
 * in @p classes, in order. Summing both directions of every matching
 * resource gives the paper's aggregate-bidirectional figure; without
 * a @p node filter it is divided by the number of nodes carrying the
 * class to report per-node bandwidth.
 */
std::vector<BandwidthSeries>
probeClasses(const Topology &topo, std::span<const LinkClass> classes,
             SimTime begin, SimTime end, SimTime bucket, int node)
{
    const std::size_t n_cls = classes.size();

    // Dense class -> output-slot map so the resource walk is a flat
    // lookup (classes not asked for map to -1 and are skipped).
    int slot_of[kNumLinkClasses];
    std::fill(std::begin(slot_of), std::end(slot_of), -1);
    for (std::size_t i = 0; i < n_cls; ++i)
        slot_of[static_cast<int>(classes[i])] = static_cast<int>(i);

    const std::size_t node_slots =
        static_cast<std::size_t>(topo.nodeCount()) + 1;
    std::vector<std::uint8_t> node_seen(n_cls * node_slots, 0);
    std::vector<int> nodes_with_class(n_cls, 0);
    std::vector<std::vector<const RateLog *>> logs(n_cls);

    for (const Resource &r : topo.resources()) {
        const int slot = slot_of[static_cast<int>(r.cls)];
        if (slot < 0)
            continue;
        const std::size_t cls_i = static_cast<std::size_t>(slot);
        std::uint8_t &seen = node_seen[cls_i * node_slots +
                                       static_cast<std::size_t>(r.node + 1)];
        if (!seen) {
            seen = 1;
            ++nodes_with_class[cls_i];
        }
        if (node >= 0 && r.node != node)
            continue;
        logs[cls_i].push_back(&r.log);
    }

    std::vector<BandwidthSeries> out;
    out.reserve(n_cls);
    for (std::size_t i = 0; i < n_cls; ++i) {
        BandwidthSeries series =
            sumStreamedBuckets(logs[i], begin, end, bucket);
        if (node < 0 && nodes_with_class[i] > 1) {
            const double scale =
                1.0 / static_cast<double>(nodes_with_class[i]);
            for (double &v : series.values)
                v *= scale;
        }
        out.push_back(std::move(series));
    }
    return out;
}

} // namespace

BandwidthSeries
probeClassBandwidth(const Topology &topo, LinkClass cls, SimTime begin,
                    SimTime end, SimTime bucket, int node)
{
    return std::move(
        probeClasses(topo, {&cls, 1}, begin, end, bucket, node).front());
}

std::vector<BandwidthSeries>
probeAllClasses(const Topology &topo, SimTime begin, SimTime end,
                SimTime bucket, int node)
{
    return probeClasses(topo, tableIvClasses(), begin, end, bucket, node);
}

BandwidthSummary
summarizeClassBandwidth(const Topology &topo, LinkClass cls,
                        SimTime begin, SimTime end, SimTime bucket)
{
    return probeClassBandwidth(topo, cls, begin, end, bucket).summary();
}

const std::vector<LinkClass> &
tableIvClasses()
{
    static const std::vector<LinkClass> classes = {
        LinkClass::Dram,    LinkClass::Xgmi,   LinkClass::PcieGpu,
        LinkClass::PcieNvme, LinkClass::PcieNic, LinkClass::NvLink,
        LinkClass::Roce,
    };
    return classes;
}

} // namespace dstrain
