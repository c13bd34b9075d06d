/**
 * @file
 * Implementation of route computation: BFS with transit filtering,
 * plus equal-cost shortest-path enumeration for deterministic ECMP.
 */

#include "hw/routing.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace dstrain {

namespace {

/** May this component forward traffic that is not addressed to it? */
bool
isTransit(ComponentKind kind)
{
    switch (kind) {
      case ComponentKind::CpuIod:
      case ComponentKind::Nic:
      case ComponentKind::Switch:
      case ComponentKind::NvmeDrive:  // forwards to its own media
        return true;
      case ComponentKind::DramPool:
      case ComponentKind::Gpu:
      case ComponentKind::NvmeMedia:
        return false;
    }
    return false;
}

/** Which SerDes set does a link class use at the CPU IOD? */
bool
usesSerdes(LinkClass cls, SerdesSide *side)
{
    switch (cls) {
      case LinkClass::PcieGpu:
      case LinkClass::PcieNvme:
      case LinkClass::PcieNic:
        *side = SerdesSide::Pcie;
        return true;
      case LinkClass::Xgmi:
        *side = SerdesSide::Xgmi;
        return true;
      default:
        return false;
    }
}

/** SplitMix64 finalizer: the ECMP path-selection hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

Router::Router(const Topology &topo, bool model_serdes, EcmpConfig ecmp)
    : topo_(topo), model_serdes_(model_serdes), ecmp_(ecmp)
{
}

bool
Router::edgeDead(HalfLinkId hid) const
{
    const HalfLink &hl = topo_.halfLink(hid);
    return topo_.resource(hl.resource).capacity <= 0.0;
}

void
Router::invalidateRouteCaches() const
{
    // The lookups go; route_store_/ecmp_store_ stay, so a route held
    // by an in-flight transfer outlives the flush.
    cache_.clear();
    ecmp_cache_.clear();
    composed_.clear();
    rev_dist_cache_.clear();
    tree_src_ = kNoComponent;
    tree_scratch_.complete = false;
    ++invalidations_;
}

Route
Router::staleRoute(ComponentId src, ComponentId dst) const
{
    // Self-contained unfiltered BFS over the Nav arrays: mirrors
    // sourceTree()'s traversal order exactly, minus the capacity
    // filter and the shared scratch (mixing filtered and unfiltered
    // levels in one tree would corrupt both).
    const Nav &nv = nav();
    const std::size_t n = topo_.componentCount();
    std::vector<HalfLinkId> via(n, -1);
    std::vector<std::uint8_t> seen(n, 0);
    std::vector<ComponentId> queue;
    seen[static_cast<std::size_t>(src)] = 1;
    queue.push_back(src);
    bool hit = false;
    for (std::size_t head = 0; head < queue.size() && !hit; ++head) {
        const std::size_t cur = static_cast<std::size_t>(queue[head]);
        const std::uint32_t end = nv.out_begin[cur + 1];
        for (std::uint32_t k = nv.out_begin[cur]; k < end; ++k) {
            const std::size_t next =
                static_cast<std::size_t>(nv.out_to[k]);
            if (seen[next])
                continue;
            seen[next] = 1;
            via[next] = nv.out_edge[k];
            if (static_cast<ComponentId>(next) == dst) {
                hit = true;
                break;
            }
            if (nv.transit[next])
                queue.push_back(static_cast<ComponentId>(next));
        }
    }
    if (!hit)
        return Route{};
    std::vector<HalfLinkId> hops;
    for (ComponentId cur = dst; cur != src;) {
        const HalfLinkId hid = via[static_cast<std::size_t>(cur)];
        DSTRAIN_ASSERT(hid >= 0, "broken BFS back-pointer");
        hops.push_back(hid);
        cur = topo_.halfLink(hid).from;
    }
    std::reverse(hops.begin(), hops.end());
    return finishRoute(std::move(hops));
}

const Route &
Router::route(ComponentId src, ComponentId dst) const
{
    DSTRAIN_ASSERT(src != dst, "route from component %d to itself", src);
    DSTRAIN_ASSERT(src >= 0 && dst >= 0 &&
                       static_cast<std::size_t>(src) <
                           topo_.componentCount() &&
                       static_cast<std::size_t>(dst) <
                           topo_.componentCount(),
                   "component id out of range");
    const std::uint64_t key = cacheKey(src, dst);
    auto it = cache_.find(key);
    if (it == cache_.end())
        it = cache_.emplace(key, store(computeRoute(src, dst))).first;
    const Route &r = *it->second;
    if (!r.valid()) {
        fatal("no route from %s to %s in this topology",
              topo_.component(src).name.c_str(),
              topo_.component(dst).name.c_str());
    }
    return r;
}

const Route *
Router::store(Route r) const
{
    route_store_.push_back(std::move(r));
    return &route_store_.back();
}

Router::EcmpEntry &
Router::ecmpEntry(ComponentId src, ComponentId dst) const
{
    const std::uint64_t key = cacheKey(src, dst);
    auto it = ecmp_cache_.find(key);
    if (it == ecmp_cache_.end()) {
        EcmpEntry &e = ecmp_store_.emplace_back();
        e.paths = computeEqualCost(src, dst);
        e.done.assign(e.paths.size(), 0);
        it = ecmp_cache_.emplace(key, &e).first;
    }
    return *it->second;
}

const Route &
Router::finishedPath(EcmpEntry &e, std::size_t i) const
{
    // In-place finish keeps every previously returned reference
    // stable: the Route object's address never changes, only its
    // analysis fields fill in, and that happens before anyone can
    // hold a reference to path i.
    if (!e.done[i]) {
        e.paths[i] = finishRoute(std::move(e.paths[i].hops));
        e.done[i] = 1;
    }
    return e.paths[i];
}

const std::vector<Route> &
Router::equalCostRoutes(ComponentId src, ComponentId dst) const
{
    // The public list is fully analyzed: external callers may read
    // any path's latency/cap. Flow routing goes through routeForFlow
    // below, which finishes only the selected path.
    EcmpEntry &e = ecmpEntry(src, dst);
    for (std::size_t i = 0; i < e.paths.size(); ++i)
        finishedPath(e, i);
    return e.paths;
}

const Route &
Router::routeForFlow(ComponentId src, ComponentId dst,
                     std::uint64_t flow_key) const
{
    if (!ecmp_.enabled)
        return route(src, dst);
    EcmpEntry &e = ecmpEntry(src, dst);
    // A unique shortest path is returned through the plain cache, so
    // single-path fabrics behave (and fingerprint) exactly like the
    // pre-ECMP router.
    if (e.paths.size() <= 1)
        return route(src, dst);
    const std::uint64_t h =
        mix64(mix64(cacheKey(src, dst) ^ ecmp_.seed) + flow_key);
    return finishedPath(
        e, static_cast<std::size_t>(h % e.paths.size()));
}

std::size_t
Router::ComposedHash::operator()(const ComposedKey &k) const
{
    std::uint64_t h = mix64(cacheKey(k.src, k.dst) ^ k.flow_key);
    for (ComponentId wp : k.waypoints)
        h = mix64(h + static_cast<std::uint32_t>(wp));
    return static_cast<std::size_t>(h);
}

const Route &
Router::routeThrough(ComponentId src,
                     std::span<const ComponentId> waypoints,
                     ComponentId dst, std::uint64_t flow_key) const
{
    if (waypoints.empty())
        return routeForFlow(src, dst, flow_key);
    ComposedKey &probe = composed_probe_;
    probe.src = src;
    probe.dst = dst;
    probe.flow_key = flow_key;
    probe.waypoints.assign(waypoints.begin(), waypoints.end());
    const auto it = composed_.find(probe);
    if (it != composed_.end())
        return *it->second;

    std::vector<HalfLinkId> hops;
    ComponentId cur = src;
    for (ComponentId wp : waypoints) {
        const Route &seg = routeForFlow(cur, wp, flow_key);
        hops.insert(hops.end(), seg.hops.begin(), seg.hops.end());
        cur = wp;
    }
    const Route &last = routeForFlow(cur, dst, flow_key);
    hops.insert(hops.end(), last.hops.begin(), last.hops.end());
    const Route *r = store(finishRoute(std::move(hops)));
    composed_.emplace(probe, r);
    return *r;
}

const Router::Nav &
Router::nav() const
{
    if (!nav_.out_begin.empty())
        return nav_;

    const std::size_t n = topo_.componentCount();
    const std::size_t m = topo_.halfLinkCount();
    Nav nv;
    nv.transit.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        nv.transit[c] =
            isTransit(topo_.component(static_cast<ComponentId>(c)).kind)
                ? 1
                : 0;
    }
    nv.in_begin.assign(n + 1, 0);
    for (std::size_t h = 0; h < m; ++h) {
        const HalfLink &hl = topo_.halfLink(static_cast<HalfLinkId>(h));
        ++nv.in_begin[static_cast<std::size_t>(hl.to) + 1];
    }
    // Forward CSR: concatenating the per-component adjacency lists
    // preserves Topology::outgoing() order exactly. The endpoint
    // array rides alongside so the BFS/DFS inner loops touch only
    // sequential memory.
    nv.out_begin.reserve(n + 1);
    nv.out_edge.reserve(m);
    nv.out_to.reserve(m);
    for (std::size_t c = 0; c < n; ++c) {
        nv.out_begin.push_back(
            static_cast<std::uint32_t>(nv.out_edge.size()));
        for (HalfLinkId hid : topo_.outgoing(static_cast<ComponentId>(c))) {
            nv.out_edge.push_back(hid);
            nv.out_to.push_back(topo_.halfLink(hid).to);
        }
    }
    nv.out_begin.push_back(static_cast<std::uint32_t>(nv.out_edge.size()));
    // Reverse CSR: filling in ascending half-link id order keeps each
    // in-edge bucket sorted by id, matching the per-`to` push order a
    // plain reverse-adjacency build would produce.
    for (std::size_t c = 0; c < n; ++c)
        nv.in_begin[c + 1] += nv.in_begin[c];
    nv.in_edge.resize(m);
    nv.in_from.resize(m);
    std::vector<std::uint32_t> cursor(nv.in_begin.begin(),
                                      nv.in_begin.end() - 1);
    for (std::size_t h = 0; h < m; ++h) {
        const HalfLink &hl = topo_.halfLink(static_cast<HalfLinkId>(h));
        const std::uint32_t at =
            cursor[static_cast<std::size_t>(hl.to)]++;
        nv.in_edge[at] = static_cast<HalfLinkId>(h);
        nv.in_from[at] = hl.from;
    }
    nav_ = std::move(nv);
    return nav_;
}

const Router::SourceTree &
Router::sourceTree(ComponentId src, ComponentId dst) const
{
    SourceTree &tree = tree_scratch_;
    // A cached tree serves this query when it reached the requested
    // dst (levels up to dist[dst] are final in any truncated tree) or
    // when its BFS ran to exhaustion (then "unstamped" really means
    // "unreachable" for every dst).
    if (tree_src_ == src &&
        (tree.complete ||
         tree.reaches(static_cast<std::size_t>(dst))))
        return tree;

    // Plain BFS: hop count metric, deterministic order because
    // adjacency lists are in insertion order and the queue is FIFO.
    // Non-transit components get their first-visit edge and level
    // recorded but are never enqueued — a per-destination BFS enters
    // its (non-transit) dst the same way, so the tree serves every
    // destination at once, bit-identically.
    //
    // The walk stops the instant dst is assigned: FIFO order has
    // already finalized every level below dist[dst] by then, which is
    // all the via-chain walk and the equal-cost DAG pruning ever
    // read (deeper entries only matter through reaches(), where
    // "never assigned" filters exactly the edges the level checks
    // would). Stale via/dist entries from earlier builds are fenced
    // by the epoch stamp instead of cleared, so a rebuild writes only
    // what it visits.
    const Nav &nv = nav();
    const std::size_t n = topo_.componentCount();
    if (tree.stamp.size() != n) {
        tree.via.resize(n);
        tree.dist.resize(n);
        tree.stamp.assign(n, 0);
        tree.epoch = 0;
    }
    if (++tree.epoch == 0) {
        // Epoch wrapped: old stamps could alias the new epoch, so
        // restamp from scratch once every 2^32 builds.
        std::fill(tree.stamp.begin(), tree.stamp.end(), 0u);
        tree.epoch = 1;
    }
    std::vector<ComponentId> &queue = tree_queue_;
    queue.clear();

    const std::size_t s = static_cast<std::size_t>(src);
    tree.via[s] = -1;
    tree.dist[s] = 0;
    tree.stamp[s] = tree.epoch;
    bool hit = src == dst;
    if (!hit) {
        queue.push_back(src);
        for (std::size_t head = 0; head < queue.size() && !hit;
             ++head) {
            const std::size_t cur =
                static_cast<std::size_t>(queue[head]);
            const std::uint32_t end = nv.out_begin[cur + 1];
            for (std::uint32_t k = nv.out_begin[cur]; k < end; ++k) {
                const std::size_t next =
                    static_cast<std::size_t>(nv.out_to[k]);
                if (tree.stamp[next] == tree.epoch)
                    continue;
                // Degraded mode: a hard-failed edge attracts no new
                // shortest paths (no-op while healthy — capacities
                // are all positive, so no edge is ever skipped).
                if (avoid_dead_ && edgeDead(nv.out_edge[k]))
                    continue;
                tree.stamp[next] = tree.epoch;
                tree.dist[next] = tree.dist[cur] + 1;
                tree.via[next] = nv.out_edge[k];
                if (static_cast<ComponentId>(next) == dst) {
                    hit = true;
                    break;
                }
                if (nv.transit[next])
                    queue.push_back(static_cast<ComponentId>(next));
            }
        }
    }
    tree.complete = !hit;
    tree_src_ = src;
    return tree;
}

const std::vector<int> &
Router::distToDst(ComponentId dst) const
{
    auto it = rev_dist_cache_.find(dst);
    if (it != rev_dist_cache_.end())
        return it->second;

    // BFS from dst over reversed edges; interior nodes must be
    // transit, mirroring the forward traversal's filter.
    const Nav &nv = nav();
    const std::size_t n = topo_.componentCount();
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    std::vector<ComponentId> queue;
    queue.reserve(n);
    dist[static_cast<std::size_t>(dst)] = 0;
    queue.push_back(dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t cur = static_cast<std::size_t>(queue[head]);
        const std::uint32_t end = nv.in_begin[cur + 1];
        for (std::uint32_t k = nv.in_begin[cur]; k < end; ++k) {
            const std::size_t prev =
                static_cast<std::size_t>(nv.in_from[k]);
            if (dist[prev] != std::numeric_limits<int>::max())
                continue;
            if (avoid_dead_ && edgeDead(nv.in_edge[k]))
                continue;
            dist[prev] = dist[cur] + 1;
            if (nv.transit[prev])
                queue.push_back(static_cast<ComponentId>(prev));
        }
    }
    return rev_dist_cache_.emplace(dst, std::move(dist)).first->second;
}

Route
Router::computeRoute(ComponentId src, ComponentId dst) const
{
    const SourceTree &tree = sourceTree(src, dst);
    if (!tree.reaches(static_cast<std::size_t>(dst)) ||
        tree.via[static_cast<std::size_t>(dst)] < 0) {
        // Degraded mode with dst fully cut off: serve the healthy-
        // topology path (stale FIB — the flow parks on the dead hop
        // until the fault restores or the transfer layer reroutes).
        if (avoid_dead_)
            return staleRoute(src, dst);
        return Route{};
    }

    std::vector<HalfLinkId> hops;
    for (ComponentId cur = dst; cur != src;) {
        HalfLinkId hid = tree.via[static_cast<std::size_t>(cur)];
        DSTRAIN_ASSERT(hid >= 0, "broken BFS back-pointer");
        hops.push_back(hid);
        cur = topo_.halfLink(hid).from;
    }
    std::reverse(hops.begin(), hops.end());
    return finishRoute(std::move(hops));
}

std::vector<Route>
Router::computeEqualCost(ComponentId src, ComponentId dst) const
{
    DSTRAIN_ASSERT(src != dst, "route from component %d to itself",
                   src);

    // The enumeration runs off the *reverse* tree alone. A node at
    // DFS depth d sits on a shortest path (invariant maintained by
    // the prune below), so for an out-edge to `next`:
    //
    //   rev[next] == target - (d + 1)
    //     ==> dist[next] >= d + 1   (triangle inequality: a shorter
    //         forward path would compose with next's reverse path
    //         into a sub-target src->dst walk; `next` is transit or
    //         dst here, so it may sit interior to that composition)
    //     and dist[next] <= dist[cur] + 1 = d + 1  (edge relaxation;
    //         cur is transit-or-src, so the forward BFS expands it)
    //     ==> dist[next] == d + 1 exactly.
    //
    // I.e. the old forward-tree level check is implied: the DAG — and
    // the DFS enumeration order the ECMP hash indexes into, which
    // follows forward adjacency order — is bit-identical to the
    // two-tree version, and a route-cache miss on a multi-path pair
    // costs one BFS (reverse, shared per destination), not two.
    constexpr int kUnreached = std::numeric_limits<int>::max();
    const std::vector<int> &rev = distToDst(dst);
    const int target = rev[static_cast<std::size_t>(src)];
    if (target == kUnreached) {
        // Degraded mode: no surviving path — fall back to the stale
        // healthy-topology route (see computeRoute).
        if (avoid_dead_) {
            std::vector<Route> one;
            one.push_back(staleRoute(src, dst));
            if (one.front().valid())
                return one;
        }
        fatal("no route from %s to %s in this topology",
              topo_.component(src).name.c_str(),
              topo_.component(dst).name.c_str());
    }

    // Depth-first enumeration of the DAG in adjacency order, capped
    // at max_paths. Depth is bounded by the shortest-path length, so
    // plain recursion is safe.
    const Nav &nv = nav();
    std::vector<Route> paths;
    std::vector<HalfLinkId> hops;
    const std::size_t cap = static_cast<std::size_t>(
        std::max(1, ecmp_.max_paths));
    auto dfs = [&](auto &&self, ComponentId cur, int d) -> void {
        if (paths.size() >= cap)
            return;
        if (cur == dst) {
            // Hop list only; the crossing/latency/cap analysis is
            // deferred to first selection (see EcmpEntry).
            Route r;
            r.hops = hops;
            paths.push_back(std::move(r));
            return;
        }
        const std::uint32_t end =
            nv.out_begin[static_cast<std::size_t>(cur) + 1];
        for (std::uint32_t k = nv.out_begin[static_cast<std::size_t>(cur)];
             k < end; ++k) {
            const HalfLinkId hid = nv.out_edge[k];
            ComponentId next = nv.out_to[k];
            if (next != dst && !nv.transit[static_cast<std::size_t>(next)])
                continue;
            if (avoid_dead_ && edgeDead(hid))
                continue;
            // On-a-shortest-path prune: exactly remaining-distance
            // budget left at next. Descending blindly is not enough —
            // from a spine every leaf is one hop away, and without
            // this check the DFS walks whole subtrees that can never
            // reach dst on budget.
            if (rev[static_cast<std::size_t>(next)] == kUnreached ||
                d + 1 + rev[static_cast<std::size_t>(next)] != target) {
                continue;
            }
            hops.push_back(hid);
            self(self, next, d + 1);
            hops.pop_back();
            if (paths.size() >= cap)
                return;
        }
    };
    dfs(dfs, src, 0);
    if (paths.empty() && avoid_dead_) {
        // The reverse distances were cached before a further cut:
        // the pruned DAG no longer reaches dst. Serve the stale
        // path; the next cache flush recomputes both consistently.
        paths.push_back(staleRoute(src, dst));
        if (!paths.front().valid())
            paths.clear();
    }
    DSTRAIN_ASSERT(!paths.empty(), "DAG enumeration found no path");
    if (paths.size() == 1 && !avoid_dead_) {
        // The unique shortest path must be the BFS one; keeping the
        // exact object aligned keeps routeForFlow bit-identical.
        // (Only this branch pays for the forward tree. Degraded mode
        // skips the check: the forward tree and the reverse
        // distances may snapshot different instants between cache
        // flushes.)
        DSTRAIN_ASSERT(paths.front().hops == route(src, dst).hops,
                       "unique path disagrees with BFS route");
    }
    return paths;
}

Route
Router::finishRoute(std::vector<HalfLinkId> hops) const
{
    Route r;
    r.hops = std::move(hops);
    if (r.hops.empty())
        return r;

    Bps min_effective = std::numeric_limits<Bps>::max();
    Bps min_serdes_hop = std::numeric_limits<Bps>::max();
    for (std::size_t i = 0; i < r.hops.size(); ++i) {
        const HalfLink &hl = topo_.halfLink(r.hops[i]);
        r.latency += hl.latency;
        if (std::find(r.resources.begin(), r.resources.end(),
                      hl.resource) == r.resources.end())
            r.resources.push_back(hl.resource);
        const Resource &res = topo_.resource(hl.resource);
        // Route caps model the *uncontended protocol* limit of the
        // path, so they are computed from the as-built capacity: a
        // fault is contention, enforced by the flow scheduler's live
        // effective-capacity array, not by the per-flow cap (which
        // would otherwise pin a flow to the degraded rate for its
        // whole life, even after the fault clears).
        const Bps effective =
            res.nominal_capacity * linkClassEfficiency(res.cls);
        min_effective = std::min(min_effective, effective);
        SerdesSide side;
        if (usesSerdes(res.cls, &side))
            min_serdes_hop = std::min(min_serdes_hop, effective);

        // A SerDes crossing happens at an intermediate CPU IOD where
        // both the inbound and the outbound hop attach via SerDes.
        if (i + 1 < r.hops.size()) {
            const HalfLink &next = topo_.halfLink(r.hops[i + 1]);
            const Component &mid = topo_.component(hl.to);
            if (mid.kind != ComponentKind::CpuIod)
                continue;
            SerdesSide in_side;
            SerdesSide out_side;
            if (hl.toPort == PortKind::SerDes &&
                next.fromPort == PortKind::SerDes &&
                usesSerdes(hl.cls, &in_side) &&
                usesSerdes(next.cls, &out_side)) {
                r.crossings.push_back(SerdesCrossing{in_side, out_side});
            }
        }
    }
    r.serdes_factor = serdesDegradation(r.crossings);
    // The IOD contention degrades the SerDes-attached hops only (see
    // hw/serdes.hh); the route cap is the slower of the plain
    // bottleneck and the degraded SerDes bottleneck.
    r.rate_cap = min_effective;
    if (model_serdes_ && !r.crossings.empty() &&
        min_serdes_hop < std::numeric_limits<Bps>::max()) {
        r.rate_cap =
            std::min(min_effective, min_serdes_hop * r.serdes_factor);
    }
    return r;
}

} // namespace dstrain
