/**
 * @file
 * The cluster topology graph: components (CPU IODs, DRAM pools, GPUs,
 * NICs, NVMe drives, the Ethernet switch) connected by half-links
 * that reference bandwidth resources.
 *
 * A full-duplex interconnect contributes two half-links backed by two
 * independent resources (one per direction); a half-duplex
 * interconnect (DRAM) contributes two half-links backed by one shared
 * resource. Routes are sequences of half-links; the flow scheduler
 * contends flows on the referenced resources.
 */

#ifndef DSTRAIN_HW_TOPOLOGY_HH
#define DSTRAIN_HW_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/link.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dstrain {

/**
 * Aggregate observability counters of the telemetry engine across a
 * topology's rate logs, in the spirit of FlowScheduler::Stats.
 */
struct TelemetryStats {
    std::uint64_t stream_buckets = 0;   ///< streaming buckets in use
    std::uint64_t buckets_touched = 0;  ///< bucket deposits performed
    std::uint64_t memory_bytes = 0;     ///< heap bytes of log state
};

/** Identifies a component (graph vertex) inside a Topology. */
using ComponentId = int;

/** An invalid/absent component id. */
inline constexpr ComponentId kNoComponent = -1;

/** The kinds of hardware components dstrain models. */
enum class ComponentKind {
    CpuIod,     ///< one CPU socket's I/O die (routing hub)
    DramPool,   ///< the DRAM attached to one socket
    Gpu,        ///< one GPU (compute + HBM endpoint)
    Nic,        ///< one network interface card
    NvmeDrive,  ///< one NVMe SSD (controller/PCIe endpoint)
    NvmeMedia,  ///< the NAND media behind one NVMe controller
    Switch,     ///< the cluster Ethernet switch (non-blocking)
};

/** Human-readable component-kind name. */
const char *componentKindName(ComponentKind kind);

/** One vertex of the topology graph. */
struct Component {
    ComponentId id = kNoComponent;
    ComponentKind kind = ComponentKind::CpuIod;
    std::string name;     ///< e.g. "n0.gpu2"
    int node = -1;        ///< node index; -1 for the switch
    int socket = -1;      ///< socket within node; -1 if n/a
    int index = -1;       ///< per-kind index within the node
};

/** Identifies a half-link (directed edge) inside a Topology. */
using HalfLinkId = int;

/**
 * A directed edge of the graph: traffic from one component to
 * another, consuming capacity on `resource`.
 */
struct HalfLink {
    HalfLinkId id = -1;
    ResourceId resource = kNoResource;
    ComponentId from = kNoComponent;
    ComponentId to = kNoComponent;
    PortKind fromPort = PortKind::Device;  ///< attach kind at `from`
    PortKind toPort = PortKind::Device;    ///< attach kind at `to`
    LinkClass cls = LinkClass::Dram;
    SimTime latency = 0.0;  ///< propagation + hop latency
};

/**
 * The topology graph. Built once per experiment by a node builder,
 * then treated as read-only structure (resource rate logs are the
 * only mutable state, updated by the flow scheduler).
 */
class Topology
{
  public:
    Topology() = default;
    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;
    Topology(Topology &&) = default;
    Topology &operator=(Topology &&) = default;

    // --- construction -------------------------------------------------

    /**
     * Pre-size the graph arrays (a growth hint, not a limit).
     * Resource records embed strings and a RateLog, so letting the
     * vectors double repeatedly while a large cluster streams in
     * move-constructs every record O(log n) times; builders that know
     * their rough footprint call this once instead.
     */
    void reserve(std::size_t components, std::size_t resources,
                 std::size_t half_links)
    {
        components_.reserve(components);
        adjacency_.reserve(components);
        resources_.reserve(resources);
        half_links_.reserve(half_links);
    }

    /** Add a component; returns its id. */
    ComponentId addComponent(ComponentKind kind, std::string name,
                             int node, int socket, int index);

    /** Add a bandwidth resource; returns its id. */
    ResourceId addResource(LinkClass cls, Bps capacity, std::string label,
                           int node, int socket);

    /** Add a directed edge backed by @p resource. */
    HalfLinkId addHalfLink(ResourceId resource, ComponentId from,
                           ComponentId to, PortKind from_port,
                           PortKind to_port, LinkClass cls,
                           SimTime latency);

    /**
     * Convenience: add a full-duplex link (two half-links, two
     * independent resources of @p per_direction capacity each).
     * @return the pair of resource ids (a->b, b->a).
     */
    std::pair<ResourceId, ResourceId>
    addDuplexLink(LinkClass cls, Bps per_direction, ComponentId a,
                  ComponentId b, PortKind a_port, PortKind b_port,
                  SimTime latency, const std::string &label);

    /**
     * Convenience: add a half-duplex link (two half-links sharing one
     * resource of @p shared capacity).
     * @return the shared resource id.
     */
    ResourceId
    addSharedLink(LinkClass cls, Bps shared, ComponentId a, ComponentId b,
                  PortKind a_port, PortKind b_port, SimTime latency,
                  const std::string &label);

    // --- accessors -----------------------------------------------------

    // Defined inline: these four sit on the BFS/DFS hot paths of the
    // router and the per-edge loops of the flow scheduler, where an
    // out-of-line call per edge visit is measurable.
    const Component &component(ComponentId id) const
    {
        DSTRAIN_ASSERT(id >= 0 && id < static_cast<int>(components_.size()),
                       "bad component id %d", id);
        return components_[static_cast<std::size_t>(id)];
    }

    const HalfLink &halfLink(HalfLinkId id) const
    {
        DSTRAIN_ASSERT(id >= 0 && id < static_cast<int>(half_links_.size()),
                       "bad half-link id %d", id);
        return half_links_[static_cast<std::size_t>(id)];
    }

    const Resource &resource(ResourceId id) const
    {
        DSTRAIN_ASSERT(id >= 0 && id < static_cast<int>(resources_.size()),
                       "bad resource id %d", id);
        return resources_[static_cast<std::size_t>(id)];
    }

    Resource &resource(ResourceId id)
    {
        DSTRAIN_ASSERT(id >= 0 && id < static_cast<int>(resources_.size()),
                       "bad resource id %d", id);
        return resources_[static_cast<std::size_t>(id)];
    }

    std::size_t componentCount() const { return components_.size(); }
    std::size_t halfLinkCount() const { return half_links_.size(); }
    std::size_t resourceCount() const { return resources_.size(); }

    /** Outgoing half-link ids of a component. */
    const std::vector<HalfLinkId> &outgoing(ComponentId id) const
    {
        DSTRAIN_ASSERT(id >= 0 && id < static_cast<int>(adjacency_.size()),
                       "bad component id %d", id);
        return adjacency_[static_cast<std::size_t>(id)];
    }

    /** All components of a given kind, in id order. */
    std::vector<ComponentId> componentsOfKind(ComponentKind kind) const;

    /** Components of a given kind within one node, in id order. */
    std::vector<ComponentId> componentsOfKind(ComponentKind kind,
                                              int node) const;

    /**
     * Find a component by kind / node / per-kind index.
     * Returns kNoComponent when absent.
     */
    ComponentId findComponent(ComponentKind kind, int node,
                              int index) const;

    /** All resources (mutable, for the flow scheduler & telemetry). */
    std::vector<Resource> &resources() { return resources_; }
    const std::vector<Resource> &resources() const { return resources_; }

    /** Number of nodes represented (max node index + 1). */
    int nodeCount() const { return node_count_; }

    /** Close all resource rate logs at time @p t. */
    void finalizeLogs(SimTime t);

    /** Drop all rate-log history before @p t (warm-up truncation). */
    void dropLogsBefore(SimTime t);

    /**
     * Arm every resource's streaming accumulator on the grid
     * `begin + k * bucket` (see RateLog::armStream).
     */
    void armStreams(SimTime begin, SimTime bucket);

    /** Aggregate telemetry counters across all resource logs. */
    TelemetryStats telemetryStats() const;

  private:
    std::vector<Component> components_;
    std::vector<HalfLink> half_links_;
    std::vector<Resource> resources_;
    std::vector<std::vector<HalfLinkId>> adjacency_;
    int node_count_ = 0;
};

} // namespace dstrain

#endif // DSTRAIN_HW_TOPOLOGY_HH
