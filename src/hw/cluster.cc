/**
 * @file
 * Implementation of the cluster builder.
 */

#include "hw/cluster.hh"

#include <cmath>
#include <cstdlib>

#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

int
ClusterSpec::nodeCount() const
{
    if (groups.empty())
        return nodes;
    int count = 0;
    for (const NodeGroup &g : groups)
        count += g.count;
    return count;
}

const NodeSpec &
ClusterSpec::nodeSpecOf(int n) const
{
    if (groups.empty())
        return node;
    for (const NodeGroup &g : groups) {
        if (n < g.count)
            return g.node;
        n -= g.count;
    }
    panic("node index %d beyond the %d grouped nodes", n, nodeCount());
}

int
ClusterSpec::totalGpus() const
{
    if (groups.empty())
        return nodes * node.gpus;
    int gpus = 0;
    for (const NodeGroup &g : groups)
        gpus += g.count * g.node.gpus;
    return gpus;
}

std::vector<NodeGroup>
parseNodesSpec(const std::string &text, const NodeSpec &base,
               std::vector<ConfigError> *errors)
{
    DSTRAIN_ASSERT(errors != nullptr,
                   "parseNodesSpec needs an error sink");
    std::vector<NodeGroup> groups;
    for (const std::string &raw : split(text, ';')) {
        const std::string item = trim(raw);
        if (item.empty())
            continue;
        NodeGroup g;
        g.node = base;
        const auto colon = item.find(':');
        char *end = nullptr;
        const std::string count = trim(item.substr(0, colon));
        g.count =
            static_cast<int>(std::strtol(count.c_str(), &end, 10));
        if (count.empty() || *end != '\0' || g.count < 1) {
            errors->push_back(
                {"nodes-spec",
                 "bad group count '" + count +
                     "' (expected '<count>:key=val,...')"});
            continue;
        }
        bool ok = true;
        if (colon != std::string::npos) {
            for (const std::string &kv :
                 split(item.substr(colon + 1), ',')) {
                const auto eq = kv.find('=');
                const std::string key = trim(kv.substr(0, eq));
                const std::string val =
                    eq == std::string::npos ? ""
                                            : trim(kv.substr(eq + 1));
                end = nullptr;
                double capacity = 1.0;  // roce / gpu-mem value
                if (key == "gpus") {
                    g.node.gpus = static_cast<int>(
                        std::strtol(val.c_str(), &end, 10));
                } else if (key == "nics") {
                    g.node.nics = static_cast<int>(
                        std::strtol(val.c_str(), &end, 10));
                } else if (key == "roce") {
                    capacity = std::strtod(val.c_str(), &end);
                    g.node.roce_per_dir = capacity * units::GBps;
                } else if (key == "gpu-mem") {
                    capacity = std::strtod(val.c_str(), &end);
                    g.node.gpu_memory = capacity * units::GiB;
                } else {
                    errors->push_back(
                        {"nodes-spec",
                         "unknown key '" + key +
                             "' (gpus, nics, roce, gpu-mem)"});
                    ok = false;
                    continue;
                }
                // NaN would slip past every later range check.
                if (val.empty() || *end != '\0' ||
                    !std::isfinite(capacity) || capacity <= 0.0) {
                    errors->push_back({"nodes-spec",
                                       "bad value '" + val +
                                           "' for key '" + key + "'"});
                    ok = false;
                }
            }
        }
        if (ok && (g.node.gpus < 1 || g.node.nics < 1)) {
            errors->push_back(
                {"nodes-spec",
                 csprintf("group needs gpus >= 1 and nics >= 1 "
                          "(got %d/%d)",
                          g.node.gpus, g.node.nics)});
            ok = false;
        }
        if (ok)
            groups.push_back(std::move(g));
    }
    if (groups.empty() && !trim(text).empty())
        errors->push_back({"nodes-spec", "no valid node groups"});
    return groups;
}

Cluster::Cluster(const ClusterSpec &spec)
    : spec_(spec)
{
    const int count = spec_.nodeCount();
    DSTRAIN_ASSERT(count >= 1, "cluster needs at least one node");

    for (int n = 0; n < count; ++n) {
        rank_base_.push_back(static_cast<int>(all_gpus_.size()));
        nodes_.push_back(buildNode(topo_, n, spec_.nodeSpecOf(n)));
        if (n == 0 && count > 1) {
            // The first node establishes the per-node footprint;
            // scale it by the node count (25% headroom covers the
            // fabric tier on top) so the graph arrays are sized once
            // up front instead of doubling while nodes stream in.
            const std::size_t nodes = static_cast<std::size_t>(count);
            topo_.reserve(topo_.componentCount() * nodes * 5 / 4,
                          topo_.resourceCount() * nodes * 5 / 4,
                          topo_.halfLinkCount() * nodes * 5 / 4);
        }
        int local = 0;
        for (ComponentId gpu : nodes_.back().gpus) {
            node_of_rank_.push_back(n);
            local_of_rank_.push_back(local++);
            all_gpus_.push_back(gpu);
        }
    }

    std::vector<FabricHost> hosts;
    hosts.reserve(static_cast<std::size_t>(count));
    for (int n = 0; n < count; ++n) {
        const NodeSpec &ns = spec_.nodeSpecOf(n);
        hosts.push_back(FabricHost{
            nodes_[static_cast<std::size_t>(n)].nics, ns.roce_per_dir,
            ns.roce_latency});
    }
    fabric_ = buildFabric(topo_, spec_.fabric, hosts);

    // The SerDes ablation switch comes from the template spec: it is
    // a modeling toggle, not per-node hardware.
    EcmpConfig ecmp;
    ecmp.enabled = spec_.fabric.ecmp;
    ecmp.seed = spec_.fabric.ecmp_seed;
    ecmp.max_paths = spec_.fabric.max_paths;
    router_ = std::make_unique<Router>(
        topo_, spec_.node.model_serdes_contention, ecmp);
}

const NodeHandles &
Cluster::node(int n) const
{
    DSTRAIN_ASSERT(n >= 0 && n < static_cast<int>(nodes_.size()),
                   "bad node index %d", n);
    return nodes_[static_cast<std::size_t>(n)];
}

const NodeSpec &
Cluster::nodeSpec(int n) const
{
    DSTRAIN_ASSERT(n >= 0 && n < static_cast<int>(nodes_.size()),
                   "bad node index %d", n);
    return spec_.nodeSpecOf(n);
}

int
Cluster::gpusOfNode(int n) const
{
    return static_cast<int>(node(n).gpus.size());
}

int
Cluster::rackOfNode(int n) const
{
    DSTRAIN_ASSERT(
        n >= 0 &&
            n < static_cast<int>(fabric_.rack_of_node.size()),
        "bad node index %d", n);
    return fabric_.rack_of_node[static_cast<std::size_t>(n)];
}

ComponentId
Cluster::gpuByRank(int rank) const
{
    DSTRAIN_ASSERT(rank >= 0 &&
                       rank < static_cast<int>(all_gpus_.size()),
                   "bad gpu rank %d", rank);
    return all_gpus_[static_cast<std::size_t>(rank)];
}

int
Cluster::rankOfGpu(ComponentId gpu) const
{
    for (std::size_t i = 0; i < all_gpus_.size(); ++i)
        if (all_gpus_[i] == gpu)
            return static_cast<int>(i);
    panic("component %d is not a GPU of this cluster", gpu);
}

int
Cluster::nodeOfRank(int rank) const
{
    DSTRAIN_ASSERT(rank >= 0 &&
                       rank < static_cast<int>(node_of_rank_.size()),
                   "bad gpu rank %d", rank);
    return node_of_rank_[static_cast<std::size_t>(rank)];
}

int
Cluster::localOfRank(int rank) const
{
    DSTRAIN_ASSERT(rank >= 0 &&
                       rank < static_cast<int>(local_of_rank_.size()),
                   "bad gpu rank %d", rank);
    return local_of_rank_[static_cast<std::size_t>(rank)];
}

int
Cluster::rankOf(int n, int local) const
{
    DSTRAIN_ASSERT(local >= 0 && local < gpusOfNode(n),
                   "node %d has no local gpu %d", n, local);
    return rank_base_[static_cast<std::size_t>(n)] + local;
}

} // namespace dstrain
