/**
 * @file
 * Route computation over the topology graph.
 *
 * Routes are shortest paths (by hop count, deterministic id
 * tie-break) where only CPU IODs, NICs and switches may act as
 * transit vertices — GPUs, DRAM pools and NVMe drives are endpoints
 * only. This reproduces the paths real traffic takes on the XE8545:
 * GPU peers talk over direct NVLink, GPU-to-remote traffic goes
 * GPU -> PCIe -> CPU -> PCIe -> NIC -> switch -> ... (GPUDirect RDMA:
 * no DRAM hop), and cross-socket NIC access crosses the xGMI links.
 *
 * Multi-stage fabrics (fat-tree, spine-leaf; see hw/fabric.hh) offer
 * several equal-cost shortest paths between a pair of endpoints. The
 * router enumerates them and picks one per flow with deterministic
 * ECMP: a hash of (src, dst, flow key, seed) — the same endpoints,
 * key and seed always select the same path, so runs stay
 * bit-reproducible. On a fabric with exactly one shortest path
 * (notably the default single switch) ECMP degenerates to the plain
 * route and changes nothing.
 *
 * Each computed route carries the SerDes-crossing analysis of
 * hw/serdes.hh and a resulting per-flow rate cap.
 */

#ifndef DSTRAIN_HW_ROUTING_HH
#define DSTRAIN_HW_ROUTING_HH

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "hw/serdes.hh"
#include "hw/topology.hh"

namespace dstrain {

/** A computed path through the topology. */
struct Route {
    /** Half-link ids, in traversal order. Empty = no route. */
    std::vector<HalfLinkId> hops;

    /**
     * The distinct resources of `hops`, in first-crossing order: the
     * resource set a flow on this route occupies.
     */
    std::vector<ResourceId> resources;

    /** Sum of hop latencies. */
    SimTime latency = 0.0;

    /** SerDes-to-SerDes crossings at intermediate CPU IODs. */
    std::vector<SerdesCrossing> crossings;

    /** serdesDegradation(crossings), cached. */
    double serdes_factor = 1.0;

    /**
     * The maximum rate a single flow can attain on this route when
     * uncontended: the minimum over hops of capacity x class
     * efficiency, where SerDes-attached hops (PCIe/xGMI) are
     * additionally scaled by the SerDes degradation factor when the
     * route has crossings.
     */
    Bps rate_cap = 0.0;

    /** True when the route connects the endpoints. */
    bool valid() const { return !hops.empty(); }
};

/** ECMP behavior of a Router (defaults match hw/fabric.hh). */
struct EcmpConfig {
    bool enabled = true;          ///< spread over equal-cost paths
    std::uint64_t seed = 1;       ///< mixed into the selection hash
    int max_paths = 8;            ///< paths enumerated per pair
};

/**
 * Computes and caches routes over a fixed topology.
 *
 * The router must outlive no topology mutation: build the topology
 * fully, then construct the router.
 *
 * Every Route the router hands out lives in its route storage and
 * stays valid for the router's lifetime: invalidateRouteCaches()
 * flushes the lookups, never the storage, so a transfer holding a
 * route across a flush still launches on it.
 */
class Router
{
  public:
    /**
     * @param topo the built topology.
     * @param model_serdes apply the SerDes degradation to route caps
     *        (crossings are still *reported* either way).
     * @param ecmp equal-cost multipath behavior.
     */
    explicit Router(const Topology &topo, bool model_serdes = true,
                    EcmpConfig ecmp = EcmpConfig{});

    /**
     * Shortest route from @p src to @p dst (the BFS-first path, no
     * ECMP spreading).
     *
     * @param src source component (traffic origin).
     * @param dst destination component.
     * @return the route; fatal() if no route exists (a topology
     *         configuration error).
     */
    const Route &route(ComponentId src, ComponentId dst) const;

    /**
     * Every equal-cost shortest path from @p src to @p dst, in
     * deterministic (adjacency-order DFS) order, capped at the
     * configured max_paths. When exactly one shortest path exists it
     * is the plain route().
     */
    const std::vector<Route> &equalCostRoutes(ComponentId src,
                                              ComponentId dst) const;

    /**
     * The route a flow keyed @p flow_key takes from @p src to
     * @p dst: the plain route() when ECMP is off or only one
     * shortest path exists, otherwise the equal-cost path selected
     * by hashing (src, dst, flow_key, seed).
     */
    const Route &routeForFlow(ComponentId src, ComponentId dst,
                              std::uint64_t flow_key) const;

    /**
     * As routeForFlow(), but forces the path through every component
     * of @p waypoints, in order (the concatenation of the per-segment
     * selections). Used for NIC pinning in multi-channel collectives
     * and for fault reroutes. An empty waypoint list is a plain
     * routeForFlow(src, dst, flow_key).
     *
     * Composed routes are cached per (src, waypoints, dst, flow_key):
     * a ring reuses the same pinned routes in every round, so the
     * segment concatenation and its analysis run once per distinct
     * tuple, and repeated lookups return the same object.
     */
    const Route &routeThrough(ComponentId src,
                              std::span<const ComponentId> waypoints,
                              ComponentId dst,
                              std::uint64_t flow_key = 0) const;

    const EcmpConfig &ecmp() const { return ecmp_; }

    /**
     * Degraded-mode routing (the resilience layer,
     * net/resilience.hh): when on, route computations skip edges
     * whose resource capacity is currently zero — a hard-failed link
     * no longer attracts new shortest paths. When every path to a
     * destination is cut the router falls back to the healthy-
     * topology shortest path (the flow launches and parks, exactly
     * the stale-FIB behavior of a real fabric mid-partition) instead
     * of panicking. Off (the default), capacities never influence
     * path choice and behavior is bit-identical to the legacy
     * router.
     */
    void setAvoidDeadLinks(bool on) { avoid_dead_ = on; }

    /** Whether degraded-mode dead-link avoidance is on. */
    bool avoidDeadLinks() const { return avoid_dead_; }

    /**
     * Drop every cached route lookup, ECMP enumeration and BFS tree
     * so the next computation sees the current capacities. Called by
     * the ResilienceCoordinator when a routing-reconvergence window
     * closes; cheap relative to the reconvergence delay it models.
     * The structural navigation arrays survive (the graph itself
     * never mutates), and so does the route storage: references
     * handed out before the flush stay valid.
     */
    void invalidateRouteCaches() const;

    /** Cache flushes so far (test/diagnostic hook). */
    std::uint64_t cacheInvalidations() const { return invalidations_; }

  private:
    /**
     * The BFS shortest-path tree from one source, shared by every
     * destination: first-visit in-edge (via) and hop count (dist)
     * per component. Non-transit components are recorded when first
     * reached but never expanded — exactly how a per-destination BFS
     * treats them — so the via-chain and the level assignment for
     * any dst are bit-identical to a dedicated BFS toward that dst.
     * Computing it once per *source* instead of once per (src, dst)
     * pair is what keeps route-cache misses cheap on generated
     * fabrics, where a wave of flows touches thousands of distinct
     * pairs but only a few hundred sources.
     *
     * Two build shortcuts, both invisible in the outputs:
     *
     *   * The BFS stops the moment the requested dst is assigned.
     *     FIFO order finalizes levels monotonically, so everything a
     *     reader consults — the via-chain (all at levels below
     *     dist[dst]) and the equal-cost DAG interior (same bound) —
     *     already holds its final value; deeper levels are only ever
     *     read through the reaches() guard, where "unassigned" and
     *     "assigned but failing the DAG level check" coincide. A
     *     truncated tree answers any dst it reached; `complete`
     *     marks trees whose BFS exhausted the queue and therefore
     *     answer every dst (including "unreachable").
     *
     *   * Entries are validity-stamped per build (epoch counter)
     *     instead of clearing the via/dist arrays each time, saving
     *     two full-array writes per source on ~10^4-component
     *     fabrics. via/dist are only meaningful where
     *     stamp[v] == epoch; readers go through reaches().
     */
    struct SourceTree {
        std::vector<HalfLinkId> via;
        std::vector<int> dist;
        std::vector<std::uint32_t> stamp;
        std::uint32_t epoch = 0;
        bool complete = false;

        bool reaches(std::size_t v) const
        {
            return stamp[v] == epoch;
        }
    };

    const SourceTree &sourceTree(ComponentId src,
                                 ComponentId dst) const;

    /**
     * Dense navigation arrays over the (immutable) topology, built
     * lazily on the first traversal: CSR adjacency in the exact order
     * of Topology::outgoing(), reverse CSR adjacency in half-link id
     * order, flat per-edge endpoint arrays, and a transit bitmap.
     *
     * The BFS/DFS hot loops run over these instead of chasing
     * per-component vectors and looking up kinds through Component
     * records (whose embedded name strings drag an extra cache line
     * into every edge visit). Traversal order is exactly the order
     * the plain accessors produce, so every computed route — and
     * every ECMP path list the selection hash indexes into — is
     * bit-identical to the naive walk.
     */
    struct Nav {
        std::vector<std::uint32_t> out_begin;  ///< size n+1, CSR offsets
        std::vector<HalfLinkId> out_edge;      ///< grouped by `from`
        std::vector<ComponentId> out_to;       ///< `to` of out_edge[k]
        std::vector<std::uint32_t> in_begin;   ///< size n+1, CSR offsets
        std::vector<HalfLinkId> in_edge;       ///< grouped by `to`
        std::vector<ComponentId> in_from;      ///< `from` of in_edge[k]
        std::vector<std::uint8_t> transit;     ///< may forward traffic
    };

    const Nav &nav() const;

    /**
     * Hop count from every component *to* @p dst over transit-only
     * interior nodes (BFS from dst across reversed edges). Combined
     * with sourceTree(src).dist it prunes the equal-cost DFS to the
     * exact src->dst shortest-path DAG: v lies on a shortest path iff
     * dist[v] + distTo[v] == dist[dst]. Cached per destination for
     * the same reason sourceTree() is cached per source.
     */
    const std::vector<int> &distToDst(ComponentId dst) const;

    Route computeRoute(ComponentId src, ComponentId dst) const;

    /**
     * One ECMP cache slot: the enumerated equal-cost paths plus a
     * per-path "analysis ran" flag. Enumeration stores hop lists
     * only; the crossing/latency/cap analysis (finishRoute) runs
     * lazily, the first time a path is actually selected — on dense
     * fabrics a pair enumerates up to max_paths routes but a flow
     * consumes exactly one, and finishRoute is a pure function of
     * the hop list, so deferring it changes no route anyone reads.
     */
    struct EcmpEntry {
        std::vector<Route> paths;
        std::vector<unsigned char> done;
    };

    EcmpEntry &ecmpEntry(ComponentId src, ComponentId dst) const;
    const Route &finishedPath(EcmpEntry &e, std::size_t i) const;

    /**
     * Enumerate the shortest-path DAG into explicit paths (hop
     * lists only; see EcmpEntry for the deferred analysis).
     */
    std::vector<Route> computeEqualCost(ComponentId src,
                                        ComponentId dst) const;

    /** Analyze resources/crossings/latency/cap of a hop sequence. */
    Route finishRoute(std::vector<HalfLinkId> hops) const;

    /** Move @p r into the route storage; the address is stable. */
    const Route *store(Route r) const;

    /** Is @p hid's resource at capacity zero right now? */
    bool edgeDead(HalfLinkId hid) const;

    /**
     * Shortest path ignoring capacities (a dedicated, cache-free
     * BFS): the degraded-mode fallback when the live topology has no
     * surviving path. Kept off the caches so it cannot poison a
     * filtered tree with unfiltered levels.
     */
    Route staleRoute(ComponentId src, ComponentId dst) const;

    static std::uint64_t cacheKey(ComponentId src, ComponentId dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst);
    }

    /** The (src, waypoints, dst, flow_key) tuple of a composed
     * route. */
    struct ComposedKey {
        ComponentId src = kNoComponent;
        ComponentId dst = kNoComponent;
        std::uint64_t flow_key = 0;
        std::vector<ComponentId> waypoints;

        bool operator==(const ComposedKey &) const = default;
    };
    struct ComposedHash {
        std::size_t operator()(const ComposedKey &k) const;
    };

    const Topology &topo_;
    bool model_serdes_ = true;
    EcmpConfig ecmp_;
    /** Degraded mode: skip capacity-zero edges (see setAvoidDeadLinks). */
    bool avoid_dead_ = false;
    mutable std::uint64_t invalidations_ = 0;
    /**
     * Route storage: every route and ECMP path list ever handed out,
     * at stable addresses (a deque never moves its elements). It
     * grows only with the distinct tuples looked up between flushes;
     * invalidateRouteCaches() clears the lookups below, not these.
     */
    mutable std::deque<Route> route_store_;
    mutable std::deque<EcmpEntry> ecmp_store_;
    /**
     * Sparse route lookups into the storage; sparseness matters
     * because a generated fabric can reach thousands of components,
     * where a dense n^2 table would dwarf the topology itself.
     */
    mutable std::unordered_map<std::uint64_t, const Route *> cache_;
    mutable std::unordered_map<std::uint64_t, EcmpEntry *> ecmp_cache_;
    mutable std::unordered_map<ComposedKey, const Route *, ComposedHash>
        composed_;
    /** routeThrough()'s lookup key, reused so a hit allocates
     * nothing (its waypoint vector keeps its capacity). */
    mutable ComposedKey composed_probe_;
    /**
     * Single-slot forward-tree scratch. Finished routes are cached
     * per pair above, so a source tree is only re-read while the
     * router works through routes from the same source — which
     * arrive consecutively in every traffic pattern we generate.
     * Keeping exactly the latest tree (and reusing its buffers)
     * serves that pattern as well as a per-source map, without
     * retaining ~2 ints per component per distinct source: on a
     * generated fabric a wave of flows touches hundreds of sources
     * once each, and a map burns megabytes of fresh pages per run on
     * trees that are never read again. Reverse distances stay in a
     * map (below): destination fan-in is the common shape — many
     * sources target few destinations, interleaved — so per-dst
     * reuse is real and the retained vector is half a tree.
     */
    mutable SourceTree tree_scratch_;
    mutable ComponentId tree_src_ = kNoComponent;
    mutable std::vector<ComponentId> tree_queue_;
    mutable std::unordered_map<ComponentId, std::vector<int>>
        rev_dist_cache_;
    /** See Nav; empty out_begin means "not built yet". */
    mutable Nav nav_;
};

} // namespace dstrain

#endif // DSTRAIN_HW_ROUTING_HH
