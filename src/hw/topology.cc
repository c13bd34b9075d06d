/**
 * @file
 * Implementation of the topology graph.
 */

#include "hw/topology.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dstrain {

const char *
componentKindName(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::CpuIod:
        return "cpu";
      case ComponentKind::DramPool:
        return "dram";
      case ComponentKind::Gpu:
        return "gpu";
      case ComponentKind::Nic:
        return "nic";
      case ComponentKind::NvmeDrive:
        return "nvme";
      case ComponentKind::NvmeMedia:
        return "nvme-media";
      case ComponentKind::Switch:
        return "switch";
    }
    panic("unknown ComponentKind %d", static_cast<int>(kind));
}

ComponentId
Topology::addComponent(ComponentKind kind, std::string name, int node,
                       int socket, int index)
{
    ComponentId id = static_cast<ComponentId>(components_.size());
    components_.push_back(
        Component{id, kind, std::move(name), node, socket, index});
    adjacency_.emplace_back();
    node_count_ = std::max(node_count_, node + 1);
    return id;
}

ResourceId
Topology::addResource(LinkClass cls, Bps capacity, std::string label,
                      int node, int socket)
{
    DSTRAIN_ASSERT(capacity > 0.0, "resource '%s' needs positive capacity",
                   label.c_str());
    ResourceId id = static_cast<ResourceId>(resources_.size());
    Resource r;
    r.id = id;
    r.cls = cls;
    r.capacity = capacity;
    r.nominal_capacity = capacity;
    r.label = std::move(label);
    r.node = node;
    r.socket = socket;
    resources_.push_back(std::move(r));
    return id;
}

HalfLinkId
Topology::addHalfLink(ResourceId resource, ComponentId from, ComponentId to,
                      PortKind from_port, PortKind to_port, LinkClass cls,
                      SimTime latency)
{
    DSTRAIN_ASSERT(resource >= 0 &&
                       resource < static_cast<int>(resources_.size()),
                   "bad resource id %d", resource);
    DSTRAIN_ASSERT(from >= 0 && from < static_cast<int>(components_.size()),
                   "bad 'from' component %d", from);
    DSTRAIN_ASSERT(to >= 0 && to < static_cast<int>(components_.size()),
                   "bad 'to' component %d", to);
    DSTRAIN_ASSERT(from != to, "self-link on component %d", from);
    HalfLinkId id = static_cast<HalfLinkId>(half_links_.size());
    half_links_.push_back(
        HalfLink{id, resource, from, to, from_port, to_port, cls, latency});
    adjacency_[static_cast<std::size_t>(from)].push_back(id);
    return id;
}

std::pair<ResourceId, ResourceId>
Topology::addDuplexLink(LinkClass cls, Bps per_direction, ComponentId a,
                        ComponentId b, PortKind a_port, PortKind b_port,
                        SimTime latency, const std::string &label)
{
    const Component &ca = component(a);
    ResourceId fwd = addResource(cls, per_direction, label + ".fwd",
                                 ca.node, ca.socket);
    ResourceId rev = addResource(cls, per_direction, label + ".rev",
                                 ca.node, ca.socket);
    addHalfLink(fwd, a, b, a_port, b_port, cls, latency);
    addHalfLink(rev, b, a, b_port, a_port, cls, latency);
    return {fwd, rev};
}

ResourceId
Topology::addSharedLink(LinkClass cls, Bps shared, ComponentId a,
                        ComponentId b, PortKind a_port, PortKind b_port,
                        SimTime latency, const std::string &label)
{
    const Component &ca = component(a);
    ResourceId res = addResource(cls, shared, label, ca.node, ca.socket);
    addHalfLink(res, a, b, a_port, b_port, cls, latency);
    addHalfLink(res, b, a, b_port, a_port, cls, latency);
    return res;
}

std::vector<ComponentId>
Topology::componentsOfKind(ComponentKind kind) const
{
    std::vector<ComponentId> out;
    for (const Component &c : components_)
        if (c.kind == kind)
            out.push_back(c.id);
    return out;
}

std::vector<ComponentId>
Topology::componentsOfKind(ComponentKind kind, int node) const
{
    std::vector<ComponentId> out;
    for (const Component &c : components_)
        if (c.kind == kind && c.node == node)
            out.push_back(c.id);
    return out;
}

ComponentId
Topology::findComponent(ComponentKind kind, int node, int index) const
{
    for (const Component &c : components_)
        if (c.kind == kind && c.node == node && c.index == index)
            return c.id;
    return kNoComponent;
}

void
Topology::finalizeLogs(SimTime t)
{
    for (Resource &r : resources_)
        r.log.finalize(t);
}

void
Topology::dropLogsBefore(SimTime t)
{
    for (Resource &r : resources_)
        r.log.dropBefore(t);
}

void
Topology::armStreams(SimTime begin, SimTime bucket)
{
    for (Resource &r : resources_)
        r.log.armStream(begin, bucket);
}

TelemetryStats
Topology::telemetryStats() const
{
    TelemetryStats stats;
    for (const Resource &r : resources_) {
        stats.stream_buckets += r.log.streamValues().size();
        stats.buckets_touched += r.log.bucketsTouched();
        stats.memory_bytes += r.log.memoryBytes();
    }
    return stats;
}

} // namespace dstrain
