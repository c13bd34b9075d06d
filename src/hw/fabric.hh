/**
 * @file
 * The fabric layer: parameterized generators for the network that
 * joins the compute nodes.
 *
 * The paper measures exactly one shape — N nodes behind a single
 * non-blocking Ethernet switch (Fig. 2-a) — and that stays the
 * default, built bit-identically to the original hard-wired code.
 * The generators added here extend the model to the shapes large
 * training clusters actually deploy:
 *
 *   - `single`      one non-blocking switch (the paper's SN3700).
 *   - `fat-tree`    k-ary three-stage Clos: k/2 edge + k/2 aggregation
 *                   switches per pod, (k/2)^2 cores, configurable
 *                   edge oversubscription.
 *   - `rail`        rail-optimized: one switch per local NIC index;
 *                   NIC r of every node uplinks to rail switch r
 *                   (the DGX-style collective fabric).
 *   - `spine-leaf`  two-stage Clos: nodes block-assigned to leaves,
 *                   full bipartite leaf <-> spine trunking.
 *
 * Every generator labels failure domains: each node gets a rack index
 * (its edge/leaf switch), rail fabrics get rail indices, and every
 * switch is addressable by ordinal — all consumed by FaultPlan
 * targets (`rack<k>`, `rail<r>`, `sw<j>`).
 *
 * Multi-stage fabrics create equal-cost path diversity; the Router's
 * deterministic ECMP (see hw/routing.hh) spreads flows across it.
 */

#ifndef DSTRAIN_HW_FABRIC_HH
#define DSTRAIN_HW_FABRIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/topology.hh"
#include "util/config_error.hh"
#include "util/units.hh"

namespace dstrain {

/** The fabric shapes dstrain can generate. */
enum class FabricKind {
    SingleSwitch,  ///< one non-blocking switch (the paper's default)
    FatTree,       ///< k-ary three-stage Clos with pods and cores
    Rail,          ///< one switch per local NIC index (rail-optimized)
    SpineLeaf,     ///< two-stage leaf/spine Clos
};

/** Spec spelling of a fabric kind (`single`, `fat-tree`, ...). */
const char *fabricKindName(FabricKind kind);

/**
 * Largest fat-tree radix, leaf or spine count and oversubscription
 * FabricSpec::validate() accepts: a k = 64 fat tree has ~8x the links
 * of the largest topology the scheduler benchmarks build.
 */
inline constexpr int kMaxFabricRadix = 64;

/** The fabric specification (defaults = the paper's single switch). */
struct FabricSpec {
    FabricKind kind = FabricKind::SingleSwitch;

    // --- fat-tree -----------------------------------------------------
    /** Switch radix / pod count; must be even and >= 2. */
    int fat_tree_k = 4;

    /**
     * Edge oversubscription: hosts per edge switch =
     * round(k/2 x oversubscription). 1.0 = full bisection.
     */
    double oversubscription = 1.0;

    // --- spine-leaf ---------------------------------------------------
    int leaves = 2;   ///< leaf switches (nodes block-assigned)
    int spines = 2;   ///< spine switches (full bipartite trunking)

    // --- ECMP ---------------------------------------------------------
    /** Spread flows over equal-cost paths (deterministic hash). */
    bool ecmp = true;

    /** Seed mixed into the ECMP path-selection hash. */
    std::uint64_t ecmp_seed = 1;

    /** Equal-cost paths enumerated per endpoint pair. */
    int max_paths = 8;

    /** Structural checks; empty result = valid. */
    std::vector<ConfigError> validate() const;

    /** Round-trippable spec form, e.g. "fat-tree:k=8,oversub=2". */
    std::string str() const;
};

/** One node's uplink attachment, as the fabric generators see it. */
struct FabricHost {
    std::vector<ComponentId> nics;  ///< in local NIC-index order
    Bps roce_per_dir = 0.0;         ///< per-direction uplink rate
    SimTime roce_latency = 0.0;     ///< NIC-to-switch latency
};

/** What a generator built: switches and failure-domain labels. */
struct FabricInfo {
    /** All switch components, in `sw<ordinal>` order. */
    std::vector<ComponentId> switches;

    /** Rack (edge/leaf domain) index per node; all 0 when flat. */
    std::vector<int> rack_of_node;

    /** Rail count (Rail fabric); 0 when the fabric has no rails. */
    int rails = 0;

    /** Number of distinct rack labels. */
    int rackCount() const;
};

/**
 * Instantiate the fabric described by @p spec into @p topo,
 * connecting the NICs of @p hosts.
 *
 * Must run after every node is built (switch ordinals and resource
 * ids follow the construction order). The single-switch generator
 * reproduces the original hard-wired topology byte for byte: no
 * switch at all for one node, `sw0` plus one duplex RoCE uplink per
 * NIC otherwise.
 */
FabricInfo buildFabric(Topology &topo, const FabricSpec &spec,
                       const std::vector<FabricHost> &hosts);

/**
 * Parse a CLI fabric spec:
 *
 *   single
 *   fat-tree:k=8[,oversub=2]
 *   rail
 *   spine-leaf:leaves=4,spines=2
 *
 * Any form also accepts `ecmp=on|off`, `seed=<n>` and `paths=<n>`
 * keys. Problems are appended to @p errors (field "fabric"); the
 * returned spec contains what did parse.
 */
FabricSpec parseFabricSpec(const std::string &text,
                           std::vector<ConfigError> *errors);

} // namespace dstrain

#endif // DSTRAIN_HW_FABRIC_HH
