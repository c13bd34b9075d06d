/**
 * @file
 * Implementation of the fabric generators and the spec parser.
 */

#include "hw/fabric.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

namespace {

/** Hosts attached per edge switch for a fat-tree spec. */
int
hostsPerEdge(const FabricSpec &spec)
{
    const int half = spec.fat_tree_k / 2;
    return std::max(
        1, static_cast<int>(std::lround(half * spec.oversubscription)));
}

/** Add switch number @p ordinal (`sw<ordinal>`, node -1). */
ComponentId
addSwitch(Topology &topo, FabricInfo &info)
{
    const int ordinal = static_cast<int>(info.switches.size());
    const ComponentId id = topo.addComponent(
        ComponentKind::Switch, "sw" + std::to_string(ordinal), -1, -1,
        ordinal);
    info.switches.push_back(id);
    return id;
}

/** The label of node @p n's uplink from its NIC @p nic. */
std::string
uplinkLabel(std::size_t n, std::size_t nic)
{
    // Appended: GCC 12 flags "n" + std::to_string(n) with a
    // -Wrestrict false positive.
    std::string label = "n";
    label += std::to_string(n);
    label += ".roce-nic";
    label += std::to_string(nic);
    return label;
}

/** Uplink every NIC of node @p n to @p sw (legacy label scheme). */
void
uplinkNode(Topology &topo, const FabricHost &host, int n,
           ComponentId sw)
{
    for (std::size_t s = 0; s < host.nics.size(); ++s) {
        topo.addDuplexLink(LinkClass::Roce, host.roce_per_dir,
                           host.nics[s], sw, PortKind::Device,
                           PortKind::Device, host.roce_latency,
                           uplinkLabel(static_cast<std::size_t>(n), s));
    }
}

/** Trunk rate/latency: a switch-to-switch trunk matches the first
 * host's uplink. */
void
trunkParams(const std::vector<FabricHost> &hosts, Bps *rate,
            SimTime *latency)
{
    DSTRAIN_ASSERT(!hosts.empty(), "a switched fabric without hosts");
    *rate = hosts.front().roce_per_dir;
    *latency = hosts.front().roce_latency;
}

/**
 * The paper's shape, byte for byte: nothing for one node, one
 * non-blocking switch with a duplex RoCE uplink per NIC otherwise.
 */
FabricInfo
buildSingleSwitch(Topology &topo, const std::vector<FabricHost> &hosts)
{
    FabricInfo info;
    info.rack_of_node.assign(hosts.size(), 0);
    if (hosts.size() <= 1)
        return info;

    // The SN3700 switch: modeled as a non-blocking hub. Each NIC
    // gets a duplex RoCE link at the 200 Gbps line rate; the
    // switch fabric (12.8 Tbps) is never the bottleneck, so no
    // fabric resource is added.
    const ComponentId sw = addSwitch(topo, info);
    for (std::size_t n = 0; n < hosts.size(); ++n)
        uplinkNode(topo, hosts[n], static_cast<int>(n), sw);
    return info;
}

/**
 * k-ary fat-tree: pods of k/2 edge + k/2 aggregation switches,
 * (k/2)^2 core switches, hosts block-assigned to edges. Only the
 * pods the host count needs are instantiated; cores are built when
 * more than one pod exists.
 */
FabricInfo
buildFatTree(Topology &topo, const FabricSpec &spec,
             const std::vector<FabricHost> &hosts)
{
    FabricInfo info;
    const int n = static_cast<int>(hosts.size());
    const int half = spec.fat_tree_k / 2;
    const int per_edge = hostsPerEdge(spec);
    const int edges = std::max(1, (n + per_edge - 1) / per_edge);
    const int pods = (edges + half - 1) / half;
    if (pods > spec.fat_tree_k) {
        fatal("fat-tree k=%d holds at most %d nodes "
              "(k pods x k/2 edges x %d hosts), got %d",
              spec.fat_tree_k, spec.fat_tree_k * half * per_edge,
              per_edge, n);
    }

    Bps trunk;
    SimTime trunk_lat;
    trunkParams(hosts, &trunk, &trunk_lat);

    // Stage 1+2: full pods, edges before aggregations.
    std::vector<std::vector<ComponentId>> edge_sw(
        static_cast<std::size_t>(pods));
    std::vector<std::vector<ComponentId>> agg_sw(
        static_cast<std::size_t>(pods));
    for (int p = 0; p < pods; ++p) {
        for (int e = 0; e < half; ++e)
            edge_sw[static_cast<std::size_t>(p)].push_back(
                addSwitch(topo, info));
        for (int a = 0; a < half; ++a)
            agg_sw[static_cast<std::size_t>(p)].push_back(
                addSwitch(topo, info));
    }
    // Stage 3: cores, needed only for inter-pod traffic.
    std::vector<ComponentId> cores;
    if (pods > 1)
        for (int c = 0; c < half * half; ++c)
            cores.push_back(addSwitch(topo, info));

    // Host uplinks: node i hangs off global edge i / per_edge. The
    // rack label is that edge's ordinal among edges.
    for (int i = 0; i < n; ++i) {
        const int edge = i / per_edge;
        const int p = edge / half;
        const int e = edge % half;
        info.rack_of_node.push_back(edge);
        uplinkNode(topo, hosts[static_cast<std::size_t>(i)], i,
                   edge_sw[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(e)]);
    }

    // Intra-pod trunks: every edge to every aggregation (the k/2-way
    // equal-cost diversity ECMP spreads over).
    for (int p = 0; p < pods; ++p) {
        for (int e = 0; e < half; ++e) {
            for (int a = 0; a < half; ++a) {
                topo.addDuplexLink(
                    LinkClass::Roce, trunk,
                    edge_sw[static_cast<std::size_t>(p)]
                           [static_cast<std::size_t>(e)],
                    agg_sw[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(a)],
                    PortKind::Device, PortKind::Device, trunk_lat,
                    "ft.p" + std::to_string(p) + ".e" + std::to_string(e) + "-a" + std::to_string(a));
            }
        }
    }
    // Aggregation a of every pod trunks to cores [a*k/2, (a+1)*k/2).
    for (int p = 0; p < pods; ++p) {
        for (int a = 0; a < half && !cores.empty(); ++a) {
            for (int c = a * half; c < (a + 1) * half; ++c) {
                topo.addDuplexLink(
                    LinkClass::Roce, trunk,
                    agg_sw[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(a)],
                    cores[static_cast<std::size_t>(c)],
                    PortKind::Device, PortKind::Device, trunk_lat,
                    "ft.p" + std::to_string(p) + ".a" + std::to_string(a) + "-c" + std::to_string(c));
            }
        }
    }
    return info;
}

/**
 * Rail-optimized: one switch per local NIC index; NIC r of every
 * node uplinks to rail switch r. Collectives that pin channel c to
 * NIC c%n on both endpoints keep each channel's traffic on one rail.
 */
FabricInfo
buildRail(Topology &topo, const std::vector<FabricHost> &hosts)
{
    FabricInfo info;
    info.rack_of_node.assign(hosts.size(), 0);
    std::size_t rails = 0;
    for (const FabricHost &h : hosts)
        rails = std::max(rails, h.nics.size());
    info.rails = static_cast<int>(rails);

    std::vector<ComponentId> rail_sw;
    for (std::size_t r = 0; r < rails; ++r)
        rail_sw.push_back(addSwitch(topo, info));
    for (std::size_t n = 0; n < hosts.size(); ++n) {
        const FabricHost &host = hosts[n];
        for (std::size_t r = 0; r < host.nics.size(); ++r) {
            topo.addDuplexLink(LinkClass::Roce, host.roce_per_dir,
                               host.nics[r], rail_sw[r],
                               PortKind::Device, PortKind::Device,
                               host.roce_latency,
                               uplinkLabel(n, r));
        }
    }
    return info;
}

/**
 * Two-stage Clos: nodes block-assigned to leaves, every leaf trunked
 * to every spine (spine count = equal-cost diversity).
 */
FabricInfo
buildSpineLeaf(Topology &topo, const FabricSpec &spec,
               const std::vector<FabricHost> &hosts)
{
    FabricInfo info;
    const int n = static_cast<int>(hosts.size());
    const int leaves = spec.leaves;
    const int per_leaf = (n + leaves - 1) / leaves;

    Bps trunk;
    SimTime trunk_lat;
    trunkParams(hosts, &trunk, &trunk_lat);

    std::vector<ComponentId> leaf_sw;
    std::vector<ComponentId> spine_sw;
    for (int l = 0; l < leaves; ++l)
        leaf_sw.push_back(addSwitch(topo, info));
    for (int s = 0; s < spec.spines; ++s)
        spine_sw.push_back(addSwitch(topo, info));

    for (int i = 0; i < n; ++i) {
        const int leaf = i / per_leaf;
        info.rack_of_node.push_back(leaf);
        uplinkNode(topo, hosts[static_cast<std::size_t>(i)], i,
                   leaf_sw[static_cast<std::size_t>(leaf)]);
    }
    for (int l = 0; l < leaves; ++l) {
        for (int s = 0; s < spec.spines; ++s) {
            topo.addDuplexLink(LinkClass::Roce, trunk,
                               leaf_sw[static_cast<std::size_t>(l)],
                               spine_sw[static_cast<std::size_t>(s)],
                               PortKind::Device, PortKind::Device,
                               trunk_lat, "sl.l" + std::to_string(l) + "-s" + std::to_string(s));
        }
    }
    return info;
}

} // namespace

const char *
fabricKindName(FabricKind kind)
{
    switch (kind) {
      case FabricKind::SingleSwitch:
        return "single";
      case FabricKind::FatTree:
        return "fat-tree";
      case FabricKind::Rail:
        return "rail";
      case FabricKind::SpineLeaf:
        return "spine-leaf";
    }
    panic("unknown FabricKind %d", static_cast<int>(kind));
}

std::vector<ConfigError>
FabricSpec::validate() const
{
    std::vector<ConfigError> errors;
    if (kind == FabricKind::FatTree &&
        (fat_tree_k < 2 || fat_tree_k % 2 != 0 ||
         fat_tree_k > kMaxFabricRadix)) {
        errors.push_back(
            {"fabric.fat_tree_k",
             csprintf("k must be even and in [2, %d] (got %d)",
                      kMaxFabricRadix, fat_tree_k)});
    }
    if (!(oversubscription > 0.0 && oversubscription <= kMaxFabricRadix)) {
        errors.push_back(
            {"fabric.oversubscription",
             csprintf("must be in (0, %d] (got %g)", kMaxFabricRadix,
                      oversubscription)});
    }
    if (kind == FabricKind::SpineLeaf &&
        (leaves < 1 || spines < 1 || leaves > kMaxFabricRadix ||
         spines > kMaxFabricRadix)) {
        errors.push_back(
            {"fabric.spine_leaf",
             csprintf("needs leaves and spines in [1, %d] (got %d/%d)",
                      kMaxFabricRadix, leaves, spines)});
    }
    if (max_paths < 1)
        errors.push_back({"fabric.max_paths", "must be >= 1"});
    return errors;
}

std::string
FabricSpec::str() const
{
    std::string out = fabricKindName(kind);
    if (kind == FabricKind::FatTree) {
        out += csprintf(":k=%d", fat_tree_k);
        if (oversubscription != 1.0)
            out += csprintf(",oversub=%g", oversubscription);
    } else if (kind == FabricKind::SpineLeaf) {
        out += csprintf(":leaves=%d,spines=%d", leaves, spines);
    }
    return out;
}

int
FabricInfo::rackCount() const
{
    int count = 0;
    for (int r : rack_of_node)
        count = std::max(count, r + 1);
    return count;
}

FabricInfo
buildFabric(Topology &topo, const FabricSpec &spec,
            const std::vector<FabricHost> &hosts)
{
    const std::vector<ConfigError> errors = spec.validate();
    if (!errors.empty())
        fatal("invalid fabric spec:\n%s",
              formatConfigErrors(errors).c_str());
    switch (spec.kind) {
      case FabricKind::SingleSwitch:
        return buildSingleSwitch(topo, hosts);
      case FabricKind::FatTree:
        return buildFatTree(topo, spec, hosts);
      case FabricKind::Rail:
        return buildRail(topo, hosts);
      case FabricKind::SpineLeaf:
        return buildSpineLeaf(topo, spec, hosts);
    }
    panic("unknown FabricKind %d", static_cast<int>(spec.kind));
}

FabricSpec
parseFabricSpec(const std::string &text,
                std::vector<ConfigError> *errors)
{
    DSTRAIN_ASSERT(errors != nullptr,
                   "parseFabricSpec needs an error sink");
    FabricSpec spec;
    const auto colon = text.find(':');
    const std::string name = trim(text.substr(0, colon));

    if (name == "single") {
        spec.kind = FabricKind::SingleSwitch;
    } else if (name == "fat-tree") {
        spec.kind = FabricKind::FatTree;
        spec.fat_tree_k = 8;
    } else if (name == "rail") {
        spec.kind = FabricKind::Rail;
    } else if (name == "spine-leaf") {
        spec.kind = FabricKind::SpineLeaf;
    } else {
        errors->push_back(
            {"fabric", "unknown fabric '" + name +
                           "' (single, fat-tree, rail, spine-leaf)"});
        return spec;
    }

    if (colon == std::string::npos)
        return spec;
    for (const std::string &kv :
         split(text.substr(colon + 1), ',')) {
        const auto eq = kv.find('=');
        const std::string key = trim(kv.substr(0, eq));
        const std::string val =
            eq == std::string::npos ? "" : trim(kv.substr(eq + 1));
        char *end = nullptr;
        if (key == "k" && spec.kind == FabricKind::FatTree) {
            spec.fat_tree_k =
                static_cast<int>(std::strtol(val.c_str(), &end, 10));
        } else if (key == "oversub" &&
                   spec.kind == FabricKind::FatTree) {
            spec.oversubscription = std::strtod(val.c_str(), &end);
        } else if (key == "leaves" &&
                   spec.kind == FabricKind::SpineLeaf) {
            spec.leaves =
                static_cast<int>(std::strtol(val.c_str(), &end, 10));
        } else if (key == "spines" &&
                   spec.kind == FabricKind::SpineLeaf) {
            spec.spines =
                static_cast<int>(std::strtol(val.c_str(), &end, 10));
        } else if (key == "ecmp") {
            if (val == "on")
                spec.ecmp = true;
            else if (val == "off")
                spec.ecmp = false;
            else
                errors->push_back({"fabric", "ecmp= takes on|off, got '" +
                                                 val + "'"});
            continue;
        } else if (key == "seed") {
            spec.ecmp_seed = static_cast<std::uint64_t>(
                std::strtoull(val.c_str(), &end, 10));
        } else if (key == "paths") {
            spec.max_paths =
                static_cast<int>(std::strtol(val.c_str(), &end, 10));
        } else {
            errors->push_back(
                {"fabric",
                 "unknown key '" + key + "' for fabric '" + name +
                     "' (k, oversub, leaves, spines, ecmp, seed, "
                     "paths)"});
            continue;
        }
        if (val.empty() || (end != nullptr && *end != '\0')) {
            errors->push_back(
                {"fabric", "bad value '" + val + "' for key '" + key +
                               "'"});
        }
    }
    for (ConfigError &e : spec.validate())
        errors->push_back(std::move(e));
    return spec;
}

} // namespace dstrain
