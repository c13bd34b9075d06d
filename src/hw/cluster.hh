/**
 * @file
 * The cluster: a set of compute nodes (a homogeneous template or
 * heterogeneous node groups) joined by a generated fabric — the
 * paper's single Ethernet switch by default (Fig. 2-a), or a
 * fat-tree / rail / spine-leaf fabric (see hw/fabric.hh) — plus
 * convenient component lookup and the router.
 */

#ifndef DSTRAIN_HW_CLUSTER_HH
#define DSTRAIN_HW_CLUSTER_HH

#include <memory>
#include <vector>

#include "hw/fabric.hh"
#include "hw/node_builder.hh"
#include "hw/routing.hh"
#include "hw/topology.hh"

namespace dstrain {

/** A run of identical nodes inside a heterogeneous cluster. */
struct NodeGroup {
    int count = 0;   ///< nodes in this group
    NodeSpec node;   ///< their hardware
};

/** The whole-cluster specification. */
struct ClusterSpec {
    int nodes = 1;        ///< number of compute nodes
    NodeSpec node;        ///< per-node hardware template

    /**
     * Heterogeneous override: when non-empty, the cluster is the
     * concatenation of these groups (in order) and `nodes`/`node`
     * describe only the template for solver defaults.
     */
    std::vector<NodeGroup> groups;

    /** The network joining the nodes (default: one switch). */
    FabricSpec fabric;

    /** Number of nodes (groups when present, else `nodes`). */
    int nodeCount() const;

    /** The hardware of node @p n. */
    const NodeSpec &nodeSpecOf(int n) const;

    /** Total GPUs in the cluster. */
    int totalGpus() const;
};

/**
 * Parse a CLI heterogeneous-nodes spec: semicolon-separated groups of
 *
 *   <count>:gpus=<g>,nics=<n>[,roce=<GBps>][,gpu-mem=<GiB>]
 *
 * Each group starts from @p base and applies its overrides, e.g.
 * "2:gpus=4,nics=2;2:gpus=8,nics=4,roce=50". Problems are appended
 * to @p errors (field "nodes-spec").
 */
std::vector<NodeGroup> parseNodesSpec(const std::string &text,
                                      const NodeSpec &base,
                                      std::vector<ConfigError> *errors);

/**
 * A built cluster: owns the topology, per-node handles, the fabric
 * switches, and a router. Construction is the only mutation;
 * afterwards only resource rate logs change.
 */
class Cluster
{
  public:
    /** Build the cluster described by @p spec. */
    explicit Cluster(const ClusterSpec &spec);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    const ClusterSpec &spec() const { return spec_; }
    Topology &topology() { return topo_; }
    const Topology &topology() const { return topo_; }
    const Router &router() const { return *router_; }

    /** Mutable router access (degraded-mode toggles only). */
    Router &router() { return *router_; }

    int nodeCount() const { return static_cast<int>(nodes_.size()); }

    /** Handles for one node. */
    const NodeHandles &node(int n) const;

    /** The hardware spec of node @p n (group-aware). */
    const NodeSpec &nodeSpec(int n) const;

    /** GPUs of node @p n. */
    int gpusOfNode(int n) const;

    /**
     * The first fabric switch (kNoComponent when the fabric has
     * none, i.e. a single-node single-switch cluster).
     */
    ComponentId ethernetSwitch() const
    {
        return fabric_.switches.empty() ? kNoComponent
                                        : fabric_.switches.front();
    }

    /** All fabric switches, in `sw<ordinal>` order. */
    const std::vector<ComponentId> &switches() const
    {
        return fabric_.switches;
    }

    /** What the fabric generator built (failure-domain labels). */
    const FabricInfo &fabric() const { return fabric_; }

    /** Rack (edge/leaf failure domain) of node @p n. */
    int rackOfNode(int n) const;

    // --- flattened global indices --------------------------------------

    /** GPU component by global rank (node-major order). */
    ComponentId gpuByRank(int rank) const;

    /** Global rank of a GPU component id. */
    int rankOfGpu(ComponentId gpu) const;

    /** Node index of a global rank (a table lookup, group-aware). */
    int nodeOfRank(int rank) const;

    /** In-node GPU index of a global rank. */
    int localOfRank(int rank) const;

    /** Global rank of node @p n's local GPU @p local. */
    int rankOf(int n, int local) const;

    /** All GPU component ids in rank order. */
    const std::vector<ComponentId> &allGpus() const { return all_gpus_; }

  private:
    ClusterSpec spec_;
    Topology topo_;
    std::vector<NodeHandles> nodes_;
    std::vector<ComponentId> all_gpus_;
    std::vector<int> node_of_rank_;   ///< rank -> node
    std::vector<int> local_of_rank_;  ///< rank -> in-node GPU index
    std::vector<int> rank_base_;      ///< node -> its first rank
    FabricInfo fabric_;
    std::unique_ptr<Router> router_;
};

} // namespace dstrain

#endif // DSTRAIN_HW_CLUSTER_HH
