/**
 * @file
 * Implementation of the transfer manager.
 */

#include "net/transfer_manager.hh"

#include <algorithm>
#include <utility>

#include "net/resilience.hh"
#include "util/logging.hh"

namespace dstrain {

namespace {

/**
 * Stranded-flow recovery: how long a flow must sit at rate zero
 * before it counts as stranded (failure-detection time, e.g. a RoCE
 * CNP/timeout), the base reroute backoff, which doubles on every
 * further attempt, and the reroutes per transfer before it parks (a
 * parked flow stays registered at rate zero and resumes on its last
 * path when the fault clears).
 */
constexpr SimTime kDetectDelay = 1e-3;
constexpr SimTime kRerouteBackoff = 2e-3;
constexpr int kMaxReroutes = 3;

/** Per-attempt flow cap: caller's cap merged with the route cap. */
Bps
attemptRateCap(Bps explicit_cap, double rate_factor, const Route &route)
{
    Bps rate_cap = explicit_cap;
    if (rate_factor < 1.0) {
        const Bps scaled = route.rate_cap * rate_factor;
        rate_cap = rate_cap > 0.0 ? std::min(rate_cap, scaled) : scaled;
    }
    return rate_cap;
}

/** Take a free slot of @p slab (LIFO), or grow it by one. */
template <typename T>
std::uint32_t
takeSlot(std::vector<T> &slab, std::vector<std::uint32_t> &free_slots)
{
    if (free_slots.empty()) {
        slab.emplace_back();
        return static_cast<std::uint32_t>(slab.size() - 1);
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
}

/**
 * Delivery tolerance: the scheduler completes a flow with up to one
 * byte (its completion epsilon) outstanding, each relaunch can leave
 * another, and long transfers accumulate float dust proportional to
 * their size.
 */
Bytes
deliveryTolerance(Bytes requested, int attempts)
{
    return 2.0 * (attempts + 1) + 1e-9 * requested;
}

} // namespace

TransferManager::TransferManager(Simulation &sim, Cluster &cluster,
                                 FlowScheduler &flows)
    : sim_(sim), cluster_(cluster), flows_(flows)
{
}

void
TransferManager::start(ComponentId src, ComponentId dst, Bytes bytes,
                       std::function<void()> on_done, TransferOptions opts)
{
    DSTRAIN_ASSERT(src != dst, "transfer from component %d to itself",
                   src);
    DSTRAIN_ASSERT(opts.rate_factor > 0.0 && opts.rate_factor <= 1.0,
                   "bad rate factor %g", opts.rate_factor);
    const Route &route = cluster_.router().routeThrough(
        src, opts.waypoints, dst, opts.flow_key);
    LaunchGroup &g = groups_[openLaunchGroup(sim_.now() + route.latency)];
    const std::uint64_t xid =
        startTransfer(src, dst, opts.waypoints, route, bytes, opts);
    Transfer &t = transfers_[slotOf(xid)];
    t.on_done = std::move(on_done);
    t.keepalive = std::move(opts.keepalive);
    g.members.push_back(Member{xid, false});
}

void
TransferManager::startHops(std::span<const HopEdge> edges, Bytes bytes,
                           std::function<void(std::uint32_t)> on_done,
                           TransferOptions opts,
                           std::span<std::uint64_t> xids)
{
    DSTRAIN_ASSERT(!edges.empty(), "empty hop set");
    DSTRAIN_ASSERT(opts.rate_factor > 0.0 && opts.rate_factor <= 1.0,
                   "bad rate factor %g", opts.rate_factor);
    DSTRAIN_ASSERT(opts.waypoints.empty() && opts.extra_resources.empty(),
                   "hop edges carry their own waypoints, and no extra "
                   "resources");
    DSTRAIN_ASSERT(xids.size() == edges.size(),
                   "%zu transfer ids for %zu hops", xids.size(),
                   edges.size());
    // One launch group per distinct launch time, opened in first-hop
    // order: the order per-hop events would have been queued in.
    call_groups_.clear();
    hop_group_.clear();
    for (const HopEdge &e : edges) {
        const SimTime when = sim_.now() + e.route->latency;
        auto it = std::find_if(call_groups_.begin(), call_groups_.end(),
                               [when](const auto &cg) {
                                   return cg.first == when;
                               });
        if (it == call_groups_.end()) {
            call_groups_.emplace_back(when, openLaunchGroup(when));
            it = call_groups_.end() - 1;
        }
        hop_group_.push_back(it->second);
    }

    if (retries_) {
        // Every hop is a transfer, started in edge order.
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const HopEdge &e = edges[i];
            const std::uint64_t xid = startTransfer(
                e.src, e.dst, e.waypoints(), *e.route, bytes, opts);
            Transfer &t = transfers_[slotOf(xid)];
            t.on_hops = on_done;
            t.keepalive = opts.keepalive;
            xids[i] = xid;
            groups_[hop_group_[i]].members.push_back(Member{xid, false});
        }
        return;
    }

    // One hop set per launch group: its hops in edge order.
    for (const auto &call_group : call_groups_) {
        const std::uint32_t g = call_group.second;
        const std::uint32_t idx = takeSlot(sets_, free_sets_);
        HopSet &s = sets_[idx];
        s.bytes = bytes;
        s.tag = opts.tag;
        s.on_done = on_done;
        s.keepalive = opts.keepalive;
        s.landed = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (hop_group_[i] != g)
                continue;
            // One hop at a time, so the byte ledger sums exactly as
            // per-hop starts would.
            ++stats_.started;
            stats_.bytes_requested += bytes;
            s.routes.push_back(edges[i].route);
            s.caps.push_back(attemptRateCap(opts.rate_cap, opts.rate_factor,
                                            *edges[i].route));
        }
        groups_[g].members.push_back(Member{idx, true});
    }
}

std::uint64_t
TransferManager::startTransfer(ComponentId src, ComponentId dst,
                               std::span<const ComponentId> waypoints,
                               const Route &route, Bytes bytes,
                               const TransferOptions &opts)
{
    ++stats_.started;
    stats_.bytes_requested += bytes;
    const std::uint32_t slot = takeSlot(transfers_, free_transfers_);
    DSTRAIN_ASSERT(slot <= kSlotMask, "more than %llu transfers in flight",
                   static_cast<unsigned long long>(kSlotMask));
    Transfer &t = transfers_[slot];
    t.seq = next_seq_++;
    t.src = src;
    t.dst = dst;
    t.waypoints.assign(waypoints.begin(), waypoints.end());
    t.route = &route;
    t.route_flushes = cluster_.router().cacheInvalidations();
    t.requested = bytes;
    t.remaining = bytes;
    t.delivered = 0.0;
    t.rate_cap = opts.rate_cap;
    t.rate_factor = opts.rate_factor;
    t.extra_resources = opts.extra_resources;
    t.flow_key = opts.flow_key;
    t.tag = opts.tag;
    t.flow = 0;
    t.attempts = 0;
    return xidOf(t.seq, slot);
}

std::uint32_t
TransferManager::openLaunchGroup(SimTime when)
{
    const std::uint32_t gi = takeSlot(groups_, free_groups_);
    groups_[gi].event =
        sim_.events().schedule(when, [this, gi] { runLaunchGroup(gi); });
    return gi;
}

void
TransferManager::runLaunchGroup(std::uint32_t gi)
{
    LaunchGroup &g = groups_[gi];
    launching_.swap(g.members);
    g.event = 0;
    free_groups_.push_back(gi);
    {
        FlowScheduler::ScopedBatch batch(flows_);
        for (const Member &m : launching_) {
            if (m.set)
                launchSet(static_cast<std::uint32_t>(m.id));
            else
                launchTransfer(m.id);
        }
    }
    // Only now do the deferred starts read their solved rates.
    for (const Member &m : launching_)
        if (!m.set)
            armIfStranded(m.id);
    launching_.clear();
}

void
TransferManager::launchSet(std::uint32_t idx)
{
    const HopSet &s = sets_[idx];
    HopSetSpec spec;
    spec.routes = s.routes;
    spec.rate_caps = s.caps;
    spec.bytes = s.bytes;
    spec.tag = s.tag;
    spec.on_complete = [this, idx](std::uint32_t n) { finishHops(idx, n); };
    flows_.startHops(spec);
}

void
TransferManager::finishHops(std::uint32_t idx, std::uint32_t n)
{
    HopSet &s = sets_[idx];
    for (std::uint32_t i = 0; i < n; ++i)
        accountDelivery(s.bytes, 0.0, 0, s.tag);
    s.landed += n;
    std::function<void(std::uint32_t)> done = std::move(s.on_done);
    if (s.landed == s.routes.size()) {
        // The last hops, the only release of a hop set: free the slot
        // before the continuation runs (it may start more transfers);
        // the keepalive outlives the call.
        const std::shared_ptr<void> keepalive = std::move(s.keepalive);
        s.routes.clear();
        s.caps.clear();
        free_sets_.push_back(idx);
        done(n);
        return;
    }
    done(n);
    // The continuation may have grown the slab; only the last landing
    // releases the set, so it is still ours.
    sets_[idx].on_done = std::move(done);
}

void
TransferManager::accountDelivery(Bytes requested, Bytes undelivered,
                                 int attempts, TagId tag)
{
    ++stats_.completed;
    stats_.bytes_delivered += requested - undelivered;
    if (undelivered > deliveryTolerance(requested, attempts)) {
        ++stats_.conservation_violations;
        warn("transfer '%s' completed %g bytes short of %g requested",
             flows_.tags().label(tag).c_str(), undelivered, requested);
    }
}

void
TransferManager::releaseTransfer(std::uint32_t slot)
{
    // startTransfer() rewrites every request field; the caller's
    // completion and keepalive go now.
    Transfer &t = transfers_[slot];
    t.seq = 0;
    t.on_done = nullptr;
    t.on_hops = nullptr;
    t.keepalive.reset();
    free_transfers_.push_back(slot);
}

std::vector<std::uint32_t>
TransferManager::liveInStartOrder() const
{
    std::vector<std::uint32_t> live;
    for (std::uint32_t slot = 0; slot < transfers_.size(); ++slot)
        if (transfers_[slot].seq != 0)
            live.push_back(slot);
    std::sort(live.begin(), live.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return transfers_[a].seq < transfers_[b].seq;
              });
    return live;
}

void
TransferManager::launchTransfer(std::uint64_t xid)
{
    if (!isLive(xid))
        return;  // completed or cancelled while a launch was queued
    Transfer &t = transfers_[slotOf(xid)];
    // The router never evicts a lookup between flushes, so while none
    // has happened a fresh lookup would return the start's very route.
    const Router &router = cluster_.router();
    const Route *route = t.route;
    if (route == nullptr || t.route_flushes != router.cacheInvalidations())
        route = &router.routeThrough(t.src, t.waypoints, t.dst, t.flow_key);

    FlowSpec spec;
    spec.route = route;
    spec.bytes = t.remaining;
    spec.rate_cap = attemptRateCap(t.rate_cap, t.rate_factor, *route);
    spec.extra_resources = t.extra_resources;
    spec.tag = t.tag;
    spec.on_complete = [this, xid] { finishTransfer(xid); };
    t.flow = flows_.start(std::move(spec));
}

void
TransferManager::armIfStranded(std::uint64_t xid)
{
    // Launched straight into a fault (e.g. the alternate NIC is down
    // too): arm another stranded-flow scan so the bounded retry loop
    // keeps making progress without further capacity changes.
    if (transferStalled(xid))
        notifyCapacityChange();
}

void
TransferManager::finishTransfer(std::uint64_t xid)
{
    if (!isLive(xid)) {
        // A zero-byte completion scheduled before an abortAll() lands
        // after it; anything else is a bookkeeping bug.
        DSTRAIN_ASSERT((xid >> kSlotBits) < abort_seq_floor_,
                       "completion for unknown transfer");
        return;
    }
    Transfer &t = transfers_[slotOf(xid)];
    // The completed attempt delivered its whole launch size, so
    // cumulative delivery must equal the original request; any
    // shortfall beyond the scheduler's completion epsilon means a
    // cancel/relaunch lost bytes.
    t.delivered += t.remaining;
    accountDelivery(t.requested, t.requested - t.delivered, t.attempts,
                    t.tag);
    std::function<void()> done = std::move(t.on_done);
    std::function<void(std::uint32_t)> hop_done = std::move(t.on_hops);
    const std::shared_ptr<void> keepalive = std::move(t.keepalive);
    releaseTransfer(slotOf(xid));
    if (done)
        done();
    if (hop_done)
        hop_done(1);
}

void
TransferManager::notifyCapacityChange()
{
    // One notification per fault event, no matter how many links it
    // scaled: FaultInjector batches the per-link capacity changes
    // into a single FlowScheduler::setCapacities() call and then
    // notifies once, and the scheduled-scan flag below coalesces any
    // overlapping notifications into one stranded-flow sweep.
    if (!retries_ || check_scheduled_)
        return;
    check_scheduled_ = true;
    sim_.events().scheduleAfter(kDetectDelay, [this] {
        check_scheduled_ = false;
        checkStranded();
    });
}

bool
TransferManager::transferStalled(std::uint64_t xid) const
{
    if (!isLive(xid))
        return false;
    const Transfer &t = transfers_[slotOf(xid)];
    return t.flow != 0 && flows_.isActive(t.flow) &&
           flows_.currentRate(t.flow) <= 0.0;
}

Bytes
TransferManager::cancelTransfer(std::uint64_t xid)
{
    if (!isLive(xid))
        return 0.0;
    const Bytes remaining = abortTransfer(transfers_[slotOf(xid)]);
    releaseTransfer(slotOf(xid));
    return remaining;
}

Bytes
TransferManager::abortTransfer(Transfer &t)
{
    Bytes remaining = t.remaining;
    if (t.flow != 0 && flows_.isActive(t.flow)) {
        flows_.cancel(t.flow, &remaining);
        t.flow = 0;
    }
    t.delivered += t.remaining - remaining;
    ++stats_.aborted;
    stats_.bytes_aborted += remaining;
    stats_.bytes_delivered += t.delivered;
    return remaining;
}

void
TransferManager::checkStranded()
{
    if (resilience_ != nullptr) {
        if (resilience_->inReconvergence()) {
            // Routing has not reconverged: rerouting now would
            // re-resolve onto the same stale trees. Hold the scan
            // until the window closes (the coordinator's cache-flush
            // event is enqueued ahead of this one, FIFO order, so the
            // deferred scan reroutes on fresh state).
            ++resilience_->stats().reconvergence_waits;
            if (!check_scheduled_) {
                check_scheduled_ = true;
                sim_.events().schedule(resilience_->reconvergedAt(),
                                       [this] {
                                           check_scheduled_ = false;
                                           checkStranded();
                                       });
            }
            return;
        }
        // Never reroute through routes cached before the fault.
        resilience_->ensureFresh();
    }
    for (const std::uint32_t slot : liveInStartOrder()) {
        Transfer &t = transfers_[slot];
        if (t.flow == 0 || !flows_.isActive(t.flow))
            continue;  // not yet launched, or between attempts
        if (flows_.currentRate(t.flow) > 0.0)
            continue;  // moving (possibly resumed by a restore)
        if (t.attempts >= kMaxReroutes)
            continue;  // parked: resumes when capacity returns
        Bytes remaining = 0.0;
        flows_.cancel(t.flow, &remaining);
        t.flow = 0;
        t.delivered += t.remaining - remaining;
        t.remaining = remaining;
        t.attempts += 1;
        t.waypoints =
            alternateWaypoints(t.src, t.dst, t.waypoints, t.flow_key);
        t.route = nullptr;
        ++stats_.reroutes;
        const SimTime delay =
            kRerouteBackoff * static_cast<double>(1u << (t.attempts - 1));
        const std::uint64_t id = xidOf(t.seq, slot);
        sim_.events().scheduleAfter(delay, [this, id] {
            launchTransfer(id);
            armIfStranded(id);
        });
    }
}

std::size_t
TransferManager::abortAll()
{
    // A hard fault needs a fault plan, which enables retries before
    // the first round starts: every in-flight byte is a transfer's.
    DSTRAIN_ASSERT(free_sets_.size() == sets_.size(),
                   "abort with %zu hop sets live: hop sets are never "
                   "aborted",
                   sets_.size() - free_sets_.size());
    // Cancel in start order so the flow cancellations — and
    // therefore the scheduler's telemetry log writes — land
    // deterministically.
    const std::vector<std::uint32_t> live = liveInStartOrder();
    for (const std::uint32_t slot : live)
        abortTransfer(transfers_[slot]);
    DSTRAIN_ASSERT(flows_.activeCount() == 0,
                   "%zu flows outlived the abort", flows_.activeCount());
    for (const std::uint32_t slot : live)
        releaseTransfer(slot);
    ++epoch_;
    abort_seq_floor_ = next_seq_;
    // Launches still inside their latency delay never fire.
    for (LaunchGroup &g : groups_)
        if (g.event != 0)
            sim_.events().cancel(g.event);
    groups_.clear();
    free_groups_.clear();
    return live.size();
}

void
TransferManager::verifyConservation() const
{
    DSTRAIN_ASSERT(free_transfers_.size() == transfers_.size() &&
                       free_sets_.size() == sets_.size(),
                   "%zu transfers still pending at conservation check",
                   transfers_.size() - free_transfers_.size() +
                       sets_.size() - free_sets_.size());
    DSTRAIN_ASSERT(stats_.started == stats_.completed + stats_.aborted,
                   "transfer count leak: %llu started, %llu completed, "
                   "%llu aborted",
                   static_cast<unsigned long long>(stats_.started),
                   static_cast<unsigned long long>(stats_.completed),
                   static_cast<unsigned long long>(stats_.aborted));
    DSTRAIN_ASSERT(stats_.conservation_violations == 0,
                   "%llu transfers delivered short of their request",
                   static_cast<unsigned long long>(
                       stats_.conservation_violations));
    const Bytes balance = stats_.bytes_requested - stats_.bytes_delivered -
                          stats_.bytes_aborted;
    const Bytes tolerance =
        deliveryTolerance(stats_.bytes_requested,
                          static_cast<int>(stats_.reroutes));
    DSTRAIN_ASSERT(balance <= tolerance && balance >= -tolerance,
                   "byte-conservation violation: requested %g != "
                   "delivered %g + aborted %g",
                   stats_.bytes_requested, stats_.bytes_delivered,
                   stats_.bytes_aborted);
}

std::vector<ComponentId>
TransferManager::alternateWaypoints(
    ComponentId src, ComponentId dst,
    const std::vector<ComponentId> &current,
    std::uint64_t flow_key) const
{
    const Topology &topo = cluster_.topology();
    const Route &failed =
        cluster_.router().routeThrough(src, current, dst, flow_key);
    std::vector<ComponentId> next;
    bool swapped = false;
    for (HalfLinkId hid : failed.hops) {
        const ComponentId to = topo.halfLink(hid).to;
        if (to == dst)
            continue;
        const Component &c = topo.component(to);
        if (c.kind != ComponentKind::Nic)
            continue;
        const std::vector<ComponentId> nics =
            topo.componentsOfKind(ComponentKind::Nic, c.node);
        if (nics.size() < 2) {
            next.push_back(to);
            continue;
        }
        const auto pos = std::find(nics.begin(), nics.end(), to);
        DSTRAIN_ASSERT(pos != nics.end(), "NIC not on its own node");
        const std::size_t i =
            static_cast<std::size_t>(pos - nics.begin());
        next.push_back(nics[(i + 1) % nics.size()]);
        swapped = true;
    }
    // No NIC to fail over to (an intra-node fault): retry as-is and
    // let backoff absorb transient flaps.
    return swapped ? next : current;
}

} // namespace dstrain
