/**
 * @file
 * Implementation of the max-min fair flow scheduler.
 *
 * Four invariants drive the incremental paths (see DESIGN.md
 * "Performance architecture"):
 *
 *  - A new flow whose crossed resources all keep slack for its full
 *    cap (and whose only saturating resources carry no other flow)
 *    can be admitted at min(cap, min private capacity) without
 *    changing any existing rate: no resource crossed by another flow
 *    becomes saturated, so no existing flow's bottleneck moves.
 *
 *  - A finishing flow whose saturated resources carry no surviving
 *    flow can be removed without a recompute: capacity freed on an
 *    unsaturated (or now-idle) resource cannot unfreeze anyone,
 *    because every surviving flow is bottlenecked at its own cap or
 *    at a resource that stays saturated.
 *
 *  - Max-min rates of one connected component of the flow/resource
 *    sharing graph are independent of every other component: no
 *    resource couples them, so progressive filling restricted to the
 *    component walks the exact same increment sequence for its flows
 *    as the global pass does. The region solver exploits this to
 *    re-solve only the component(s) an event touches; flows outside
 *    keep their frozen rates, which by the same argument are still
 *    their global max-min rates.
 *
 *  - A flow's remaining-bytes trajectory is piecewise linear in its
 *    rate. Keeping (anchor, remaining) exact and settling in ONE
 *    multiply-subtract per constant-rate span — only when the rate
 *    value actually changes or the remaining is observed — is the
 *    scheduler's definition of progress. (Settling the same span
 *    piecewise would change the float result, so unchanged flows are
 *    deliberately never touched; that is also what makes per-event
 *    cost independent of the number of unaffected flows.) The stored
 *    predicted finish time, anchor + remaining / rate, changes only
 *    at those same points, which is what lets the completion index
 *    be maintained incrementally.
 *
 * Everything else falls back to a region-scoped water-filling pass
 * over flat, reusable per-resource arrays.
 */

#include "net/flow_scheduler.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace dstrain {

namespace {

/** Completion slack: remaining bytes below this count as done. */
constexpr Bytes kByteEpsilon = 1.0;

/** Residual capacity below this fraction counts as saturated. */
constexpr double kSaturationFraction = 1e-9;

} // namespace

FlowScheduler::FlowScheduler(Simulation &sim, Topology &topo,
                             FlowSchedulerOptions opts)
    : sim_(sim), topo_(topo), verify_(opts.verify_fair_share)
{
    ensureResourceArrays();
}

FlowScheduler::~FlowScheduler()
{
    if (active_count_ != 0)
        warn("FlowScheduler destroyed with %zu active flows",
             active_count_);
    if (batch_depth_ != 0)
        warn("FlowScheduler destroyed with an open batch");
}

void
FlowScheduler::ensureResourceArrays()
{
    const std::size_t n = topo_.resourceCount();
    if (eff_cap_.size() == n)
        return;
    const std::size_t old = eff_cap_.size();
    eff_cap_.resize(n);
    total_rate_.resize(n, 0.0);
    nflows_.resize(n, 0);
    residual_.resize(n, 0.0);
    crossing_.resize(n, 0);
    res_flows_.resize(n);
    res_mark_.resize(n, 0);
    res_comp_mark_.resize(n, 0);
    res_saturated_.resize(n, 0);
    res_local_.resize(n, 0);
    for (std::size_t i = old; i < n; ++i) {
        const Resource &r = topo_.resource(static_cast<ResourceId>(i));
        eff_cap_[i] = r.capacity * linkClassEfficiency(r.cls);
    }
}

bool
FlowScheduler::saturated(ResourceId rid) const
{
    return eff_cap_[rid] - total_rate_[rid] <=
           eff_cap_[rid] * kSaturationFraction;
}

// --- dense slot map ------------------------------------------------------

std::uint32_t
FlowScheduler::registerFlow(Flow f, const Route &route,
                            std::span<const ResourceId> extra)
{
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(f));
        next_slot_.push_back(-1);
        prev_slot_.push_back(-1);
        flow_mark_.push_back(0);
        comp_mark_.push_back(0);
        index_seq_.push_back(0);
        stalled_pos_.push_back(0);
        rate_slot_.push_back(0.0);
        stalled_slot_.push_back(0);
        route_begin_.push_back(0);
        route_len_.push_back(0);
        cap_slot_.push_back(0.0);
        slot_gen_.push_back(0);
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(f);
        rate_slot_[slot] = 0.0;
        stalled_slot_[slot] = 0;
    }
    Flow &g = slots_[slot];
    cap_slot_[slot] = g.cap;
    if (route_arena_.size() + route.resources.size() + extra.size() >
        2 * arena_live_ + 64) {
        compactRouteArena();
    }
    // The route's resources are already deduplicated; an extra joins
    // only if the route does not cross it.
    const std::size_t begin = route_arena_.size();
    route_arena_.insert(route_arena_.end(), route.resources.begin(),
                        route.resources.end());
    for (ResourceId rid : extra) {
        if (std::find(route_arena_.begin() +
                          static_cast<std::ptrdiff_t>(begin),
                      route_arena_.end(), rid) == route_arena_.end())
            route_arena_.push_back(rid);
    }
    const std::size_t len = route_arena_.size() - begin;
    route_pos_.resize(route_arena_.size());
    route_begin_[slot] = static_cast<std::uint32_t>(begin);
    route_len_[slot] = static_cast<std::uint32_t>(len);
    arena_live_ += len;

    // Append at the tail: sequences are issued monotonically, so the
    // active list stays in start order.
    next_slot_[slot] = -1;
    prev_slot_[slot] = tail_slot_;
    if (tail_slot_ >= 0)
        next_slot_[static_cast<std::size_t>(tail_slot_)] =
            static_cast<std::int32_t>(slot);
    else
        head_slot_ = static_cast<std::int32_t>(slot);
    tail_slot_ = static_cast<std::int32_t>(slot);

    for (std::size_t k = 0; k < len; ++k) {
        const ResourceId rid = route_arena_[begin + k];
        nflows_[rid] += 1;
        auto &lst = res_flows_[rid];
        route_pos_[begin + k] = static_cast<std::uint32_t>(lst.size());
        lst.push_back({slot, static_cast<std::uint32_t>(k)});
    }
    ++active_count_;
    return slot;
}

void
FlowScheduler::detachFlow(std::uint32_t slot)
{
    const std::uint32_t begin = route_begin_[slot];
    for (std::uint32_t k = 0; k < route_len_[slot]; ++k) {
        auto &lst = res_flows_[route_arena_[begin + k]];
        const std::uint32_t pos = route_pos_[begin + k];
        const ResFlow back = lst.back();
        lst[pos] = back;
        route_pos_[route_begin_[back.slot] + back.idx] = pos;
        lst.pop_back();
    }
    ++slot_gen_[slot];
    arena_live_ -= route_len_[slot];

    const std::int32_t prev = prev_slot_[slot];
    const std::int32_t next = next_slot_[slot];
    if (prev >= 0)
        next_slot_[static_cast<std::size_t>(prev)] = next;
    else
        head_slot_ = next;
    if (next >= 0)
        prev_slot_[static_cast<std::size_t>(next)] = prev;
    else
        tail_slot_ = prev;
    --active_count_;
}

void
FlowScheduler::releaseSlot(std::uint32_t slot)
{
    slots_[slot] = Flow();
    free_slots_.push_back(slot);
}

void
FlowScheduler::compactRouteArena()
{
    // Rewrite the arena with only the active slots' spans (walked in
    // active-list order; the order of spans is irrelevant, only each
    // span's internal order matters). Triggered when dead spans
    // outnumber live ones, so the copy cost amortizes to O(1) per
    // registration.
    std::vector<ResourceId> packed;
    std::vector<std::uint32_t> packed_pos;
    packed.reserve(arena_live_);
    packed_pos.reserve(arena_live_);
    for (std::int32_t s = head_slot_; s >= 0; s = next_slot_[s]) {
        const std::uint32_t slot = static_cast<std::uint32_t>(s);
        const std::uint32_t at = static_cast<std::uint32_t>(packed.size());
        const std::uint32_t from = route_begin_[slot];
        const std::uint32_t to = from + route_len_[slot];
        packed.insert(packed.end(), route_arena_.begin() + from,
                      route_arena_.begin() + to);
        packed_pos.insert(packed_pos.end(), route_pos_.begin() + from,
                          route_pos_.begin() + to);
        route_begin_[slot] = at;
    }
    route_arena_ = std::move(packed);
    route_pos_ = std::move(packed_pos);
}

// --- completion index ----------------------------------------------------

void
FlowScheduler::indexUpdate(std::uint32_t slot, SimTime key)
{
    index_seq_[slot] = next_index_seq_++;
    index_.push(IndexEntry{key, index_seq_[slot], slot});
    ++stats_.completion_index_updates;
}

void
FlowScheduler::skimIndex()
{
    while (!index_.empty()) {
        const IndexEntry &e = index_.top();
        if (index_seq_[e.slot] == e.seq)
            break;
        index_.pop();
    }
}

void
FlowScheduler::compactIndexIfBloated()
{
    // Rate churn leaves superseded entries in the heap (lazy
    // invalidation). Rebuild from the live entries once the stale
    // ones dominate: O(active) work amortized against the >= active
    // pushes it took to get here. The live (key, seq, slot) triples
    // are preserved exactly, so pop/peek outcomes are unchanged.
    if (index_.size() <= 2 * active_count_ + 64)
        return;
    std::vector<IndexEntry> fresh;
    fresh.reserve(active_count_);
    for (std::int32_t s = head_slot_; s >= 0; s = next_slot_[s]) {
        const std::uint32_t slot = static_cast<std::uint32_t>(s);
        if (index_seq_[slot] != 0)
            fresh.push_back(IndexEntry{slots_[slot].finish_at,
                                       index_seq_[slot], slot});
    }
    index_ = IndexHeap(IndexLater{}, std::move(fresh));
}

// --- stalled-flow parking ------------------------------------------------

void
FlowScheduler::parkStalled(std::uint32_t slot)
{
    Flow &f = slots_[slot];
    f.finish_at = kFlowNeverFinishes;
    indexRemove(slot);
    if (f.stalled)
        return;
    f.stalled = true;
    stalled_slot_[slot] = 1;
    stalled_pos_[slot] = static_cast<std::uint32_t>(stalled_.size());
    stalled_.push_back(slot);
    ++stats_.stalled_parks;
}

void
FlowScheduler::unparkStalled(std::uint32_t slot)
{
    Flow &f = slots_[slot];
    DSTRAIN_ASSERT(f.stalled, "unpark of a flow that is not stalled");
    f.stalled = false;
    stalled_slot_[slot] = 0;
    const std::uint32_t pos = stalled_pos_[slot];
    const std::uint32_t back = stalled_.back();
    stalled_[pos] = back;
    stalled_pos_[back] = pos;
    stalled_.pop_back();
}

void
FlowScheduler::unparkResource(ResourceId rid)
{
    for (const ResFlow &rf : res_flows_[rid])
        if (stalled_slot_[rf.slot])
            unparkStalled(rf.slot);
}

// --- region machinery ----------------------------------------------------

void
FlowScheduler::beginRegion()
{
    ++mark_epoch_;
    region_flows_.clear();
}

void
FlowScheduler::seedRegionFlow(std::uint32_t slot)
{
    if (slots_[slot].stalled)
        return;
    if (flow_mark_[slot] != mark_epoch_) {
        flow_mark_[slot] = mark_epoch_;
        region_flows_.push_back(slot);
    }
}

void
FlowScheduler::seedRegionResource(ResourceId rid)
{
    for (const ResFlow &rf : res_flows_[rid])
        seedRegionFlow(rf.slot);
}

void
FlowScheduler::partitionComponents()
{
    // Close the seed set over shared resources and split it into
    // connected components in one sweep. Every resource of a seeded
    // flow joins, dragging in every flow crossing it — the ripple
    // propagation: any chain of shared (potentially saturating)
    // resources is followed to the full connected component, so no
    // rate outside a component can move. Stalled flows are invisible
    // here: they hold rate zero on every link they cross, so they
    // neither bridge components nor participate in any fill until a
    // capacity restore unparks them.
    // The BFS touches every member flow's route and every discovered
    // resource's crossing list exactly once anyway, so it also
    // gathers everything the fills will need — the per-flow CSR of
    // component-local resource ids, initial crossing counts and
    // capacity images — leaving the fills free of any global-array
    // striding (see FillScratch).
    components_.clear();
    comp_ranges_.clear();
    comp_flow_res_.clear();
    comp_flow_begin_.clear();
    comp_fcap_.clear();
    comp_rids_.clear();
    comp_rid_ranges_.clear();
    comp_crossing_.clear();
    comp_rcap_.clear();
    ++comp_epoch_;
    for (std::uint32_t seed : region_flows_) {
        if (comp_mark_[seed] == comp_epoch_)
            continue;
        const std::size_t begin = components_.size();
        const std::size_t rbegin = comp_rids_.size();
        comp_ranges_.push_back(begin);
        comp_rid_ranges_.push_back(rbegin);
        comp_mark_[seed] = comp_epoch_;
        components_.push_back(seed);
        for (std::size_t i = begin; i < components_.size(); ++i) {
            const std::uint32_t slot = components_[i];
            comp_flow_begin_.push_back(
                static_cast<std::uint32_t>(comp_flow_res_.size()));
            comp_fcap_.push_back(cap_slot_[slot]);
            const ResourceId *rr = route_arena_.data() + route_begin_[slot];
            const std::uint32_t rlen = route_len_[slot];
            for (std::uint32_t ri = 0; ri < rlen; ++ri) {
                const ResourceId rid = rr[ri];
                std::uint32_t l;
                if (res_comp_mark_[rid] != comp_epoch_) {
                    res_comp_mark_[rid] = comp_epoch_;
                    l = static_cast<std::uint32_t>(comp_rids_.size() -
                                                   rbegin);
                    res_local_[rid] = l;
                    comp_rids_.push_back(rid);
                    comp_rcap_.push_back(eff_cap_[rid]);
                    // The closure puts every non-stalled crosser of
                    // rid into this component, and routes are deduped,
                    // so the list count below equals the number of
                    // component flows crossing rid.
                    int crossing = 0;
                    for (const ResFlow &rf : res_flows_[rid]) {
                        if (stalled_slot_[rf.slot])
                            continue;
                        ++crossing;
                        if (comp_mark_[rf.slot] != comp_epoch_) {
                            comp_mark_[rf.slot] = comp_epoch_;
                            components_.push_back(rf.slot);
                        }
                    }
                    comp_crossing_.push_back(crossing);
                } else {
                    l = res_local_[rid];
                }
                comp_flow_res_.push_back(l);
            }
        }
        // Components stay in BFS discovery order — deterministic for
        // a given event history, and sufficient: the fill arithmetic
        // is order-insensitive (min-reductions plus a uniform
        // increment), and every order-*observable* consumer (totals
        // summation, finisher callbacks) runs in a fixed canonical
        // order of its own (resource-list order, ascending flow ids).
    }
    comp_flow_begin_.push_back(
        static_cast<std::uint32_t>(comp_flow_res_.size()));
}

void
FlowScheduler::fillComponent(std::size_t c)
{
    // Progressive filling over one connected component of
    // components_. The component is closed under sharing, so each
    // resource's crossing count and residual init are self-contained
    // and the fill never reads rate state outside the component.
    //
    // Filling per component — rather than one global pass with a
    // global min — is the bit-exact definition of fair share here: a
    // global fill interleaves increment rounds across unrelated
    // components, so its floating-point sums can differ from a local
    // fill in the last bit, which would make incremental region
    // solves irreproducible. Both the region solve and the verify
    // oracle fill per component.
    //
    // The rounds run on dense component-local arrays (see
    // FillScratch) seeded from the partition CSR, so the round scans
    // hit a few KB of contiguous scratch instead of striding over
    // O(cluster) global arrays — that cache footprint, not the
    // operation count, dominated the fill at 10^4+ links. The
    // sequence of arithmetic operations is unchanged, so rates are
    // bit-identical to the global-array fill.
    const std::size_t begin = comp_ranges_[c];
    const std::size_t end = (c + 1 < comp_ranges_.size())
                                ? comp_ranges_[c + 1]
                                : components_.size();
    const std::size_t rbegin = comp_rid_ranges_[c];
    const std::size_t rend = (c + 1 < comp_rid_ranges_.size())
                                 ? comp_rid_ranges_[c + 1]
                                 : comp_rids_.size();
    const std::size_t nf = end - begin;
    const std::size_t nr = rend - rbegin;

    FillScratch &ws = fill_;
    ws.residual.assign(comp_rcap_.begin() + rbegin,
                       comp_rcap_.begin() + rend);
    ws.crossing.assign(comp_crossing_.begin() + rbegin,
                       comp_crossing_.begin() + rend);
    ws.sat.assign(nr, 0);
    ws.live.resize(nr);
    for (std::uint32_t l = 0; l < nr; ++l)
        ws.live[l] = l;
    ws.frate.assign(nf, 0.0);
    ws.unfrozen.resize(nf);
    for (std::uint32_t fi = 0; fi < nf; ++fi)
        ws.unfrozen[fi] = fi;
    // Shared read-only views of the component's CSR slice: flow fi's
    // local resource ids and its rate cap.
    const double *fcap = comp_fcap_.data() + begin;
    const std::uint32_t *fbegin = comp_flow_begin_.data() + begin;
    const std::uint32_t *fres = comp_flow_res_.data();
    const double *rcap = comp_rcap_.data() + rbegin;

    while (!ws.unfrozen.empty()) {
        // The inc scan doubles as the live-list compaction: resources
        // whose crossing count dropped to zero in the previous round's
        // freeze pass cannot bind the increment (their residual stops
        // moving), so skipping them here and squeezing them out in the
        // same pass is bit-exact and saves a dedicated sweep per round.
        double inc = std::numeric_limits<double>::max();
        std::size_t lw = 0;
        for (std::uint32_t l : ws.live) {
            const int n = ws.crossing[l];
            if (n > 0) {
                inc = std::min(inc, ws.residual[l] / n);
                ws.live[lw++] = l;
            }
        }
        ws.live.resize(lw);
        for (std::uint32_t fi : ws.unfrozen)
            inc = std::min(inc, fcap[fi] - ws.frate[fi]);
        DSTRAIN_ASSERT(inc >= 0.0, "negative water-filling increment");

        for (std::uint32_t fi : ws.unfrozen)
            ws.frate[fi] += inc;
        for (std::uint32_t l : ws.live) {
            ws.residual[l] -= inc * ws.crossing[l];
            // One saturation test per resource per round; the per-flow
            // freeze check reads the flag instead of re-deriving it.
            // Every resource an unfrozen flow crosses has a crossing
            // count >= 1 and so is still in ws.live with a fresh flag.
            ws.sat[l] =
                ws.residual[l] <= rcap[l] * kSaturationFraction;
        }

        ws.still.clear();
        bool any_frozen = false;
        for (std::uint32_t fi : ws.unfrozen) {
            bool froze =
                ws.frate[fi] >= fcap[fi] * (1.0 - kSaturationFraction);
            if (!froze) {
                for (std::uint32_t k = fbegin[fi]; k < fbegin[fi + 1];
                     ++k) {
                    if (ws.sat[fres[k]]) {
                        froze = true;
                        break;
                    }
                }
            }
            if (froze) {
                any_frozen = true;
                for (std::uint32_t k = fbegin[fi]; k < fbegin[fi + 1];
                     ++k)
                    ws.crossing[fres[k]] -= 1;
            } else {
                ws.still.push_back(fi);
            }
        }
        DSTRAIN_ASSERT(any_frozen || ws.still.empty(),
                       "water-filling failed to make progress");
        ws.unfrozen.swap(ws.still);
        // Resources the freeze pass just orphaned (crossing now zero)
        // are squeezed out by the next round's inc scan above.
    }

    // Commit: settle flows whose rate changed (at the old rate, over
    // the whole constant-rate span — flows whose rate is unchanged
    // are deliberately left alone, see the file comment), refresh
    // their finish times and index entries, and park flows the fill
    // left at rate zero.
    const SimTime now = sim_.now();
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t slot = components_[i];
        Flow &f = slots_[slot];
        const double rate = ws.frate[i - begin];
        if (rate != f.rate) {
            settleFlow(f, now);
            f.rate = rate;
            rate_slot_[slot] = rate;
            if (rate > 0.0) {
                f.finish_at = f.anchor + f.remaining / rate;
                indexUpdate(slot, f.finish_at);
            }
        }
        if (rate <= 0.0) {
            // Water-filling assigns rate 0 only to flows stranded on
            // a link faulted to zero capacity: they have no finish
            // time and resume when setCapacity() restores the link.
            DSTRAIN_ASSERT(stalledByFault(slot),
                           "active flow '%s' got zero rate",
                           tags_.label(f.tag).c_str());
            parkStalled(slot);
        }
    }
    active_resources_.insert(active_resources_.end(),
                             comp_rids_.begin() + rbegin,
                             comp_rids_.begin() + rend);
}

void
FlowScheduler::writeRegionTotals()
{
    // Per-resource totals re-summed from the crossing-flow lists of
    // the solved resources alone — O(region), not O(active flows).
    // The list order is the registration history (swap-remove on
    // detach), so the float summation order is canonical. The closure
    // guarantees every non-stalled flow crossing a solved resource is
    // in the solved component; stalled crossers contribute exactly
    // 0.0, which is bit-neutral.
    const SimTime now = sim_.now();
    for (ResourceId rid : active_resources_) {
        double total = 0.0;
        for (const ResFlow &rf : res_flows_[rid])
            total += rate_slot_[rf.slot];
        total_rate_[rid] = total;
        topo_.resource(rid).log.setRate(now, total);
        ++stats_.rate_updates;
    }
}

void
FlowScheduler::solveRegion()
{
    partitionComponents();
    if (components_.empty()) {
        scheduleNextCompletion();
        return;
    }

    ++stats_.recomputes;
    ++stats_.region_solves;
    stats_.region_flows += components_.size();
    stats_.region_peak =
        std::max<std::uint64_t>(stats_.region_peak, components_.size());
    std::size_t bucket = 0;
    for (std::size_t n = components_.size(); n > 1; n >>= 1)
        ++bucket;
    stats_.region_hist[std::min(bucket, kRegionHistBuckets - 1)] += 1;

    active_resources_.clear();
    for (std::size_t c = 0; c < comp_ranges_.size(); ++c)
        fillComponent(c);
    writeRegionTotals();
    scheduleNextCompletion();
}

void
FlowScheduler::zeroIfIdle(ResourceId rid)
{
    if (nflows_[rid] != 0 || res_mark_[rid] == mark_epoch_)
        return;
    res_mark_[rid] = mark_epoch_;
    total_rate_[rid] = 0.0;
    topo_.resource(rid).log.setRate(sim_.now(), 0.0);
    ++stats_.rate_updates;
}

// --- public API ----------------------------------------------------------

FlowId
FlowScheduler::start(FlowSpec spec)
{
    DSTRAIN_ASSERT(spec.route != nullptr && spec.route->valid(),
                   "flow '%s' has no route",
                   tags_.label(spec.tag).c_str());
    DSTRAIN_ASSERT(spec.bytes >= 0.0, "flow '%s' has negative size",
                   tags_.label(spec.tag).c_str());

    if (spec.bytes <= kByteEpsilon) {
        // Degenerate transfer: complete via a zero-delay event so the
        // caller's state machine always advances asynchronously. The
        // flow is never registered; its id names an out-of-range slot,
        // so isActive() is false and currentRate() is 0 for it, the
        // same as for any finished flow.
        if (spec.on_complete)
            sim_.events().scheduleAfter(0.0, std::move(spec.on_complete));
        return encodeId(0, 0xFFFFFFFFu);
    }

    Flow f;
    f.seq = next_seq_++;
    f.remaining = spec.bytes;
    f.anchor = sim_.now();
    f.on_complete = std::move(spec.on_complete);
    f.tag = spec.tag;
    f.cap = spec.route->rate_cap;
    if (spec.rate_cap > 0.0)
        f.cap = std::min(f.cap, spec.rate_cap);
    DSTRAIN_ASSERT(f.cap > 0.0, "flow '%s' has zero rate cap",
                   tags_.label(f.tag).c_str());

    ensureResourceArrays();
    const std::uint32_t slot =
        registerFlow(std::move(f), *spec.route, spec.extra_resources);
    const FlowId id = encodeId(slot_gen_[slot], slot);
    Flow &g = slots_[slot];
    if (batch_depth_ > 0) {
        // Deferred admission: the flow sits rate-less (not stalled,
        // no finish time) until the batch flush solves its region.
        ++stats_.batched_events;
        batch_start_slots_.push_back(slot);
        batch_need_solve_ = true;
        return id;
    }
    // Verify mode forces the full solve: the oracle is a from-scratch
    // component fill, and a fast-path rate — assigned directly rather
    // than summed through fill increments — matches it mathematically
    // but not always in the last bit. Disabling the fast paths keeps
    // the invariant "stored rate == fresh fill of its component"
    // exact, so the oracle flags real closure bugs, not float dust.
    if (!verify_ && tryFastStart(slot)) {
        ++stats_.fast_starts;
        indexUpdate(slot, g.finish_at);
        maybeVerify();
        return id;
    }
    beginRegion();
    seedRegionFlow(slot);
    solveRegion();
    maybeVerify();
    return id;
}

bool
FlowScheduler::tryFastStart(std::uint32_t slot)
{
    Flow &f = slots_[slot];
    const std::span<const ResourceId> resources = resourcesOf(slot);
    // Pass 1: the admitted rate — the cap, further limited by
    // resources this flow has to itself (which it may saturate).
    double rate = f.cap;
    for (ResourceId rid : resources) {
        if (nflows_[rid] == 1)  // counting this flow
            rate = std::min(rate, eff_cap_[rid]);
    }
    // A private resource faulted to zero capacity admits nothing:
    // fall through to water-filling, which parks the flow at rate 0.
    if (rate <= 0.0)
        return false;
    // Pass 2: every shared resource must keep slack for the full
    // admitted rate, i.e. stay strictly unsaturated afterwards.
    for (ResourceId rid : resources) {
        if (nflows_[rid] == 1)
            continue;
        const double slack_after =
            eff_cap_[rid] - total_rate_[rid] - rate;
        if (slack_after <= eff_cap_[rid] * kSaturationFraction)
            return false;
    }

    const SimTime now = sim_.now();
    f.rate = rate;
    rate_slot_[slot] = rate;
    for (ResourceId rid : resources) {
        total_rate_[rid] += rate;
        topo_.resource(rid).log.setRate(now, total_rate_[rid]);
        ++stats_.rate_updates;
    }

    const SimTime done_at = now + f.remaining / f.rate;
    f.finish_at = done_at;
    if (completion_event_ == 0) {
        completion_time_ = done_at;
        completion_event_ = sim_.events().schedule(
            done_at, [this] { onCompletionEvent(); });
    } else if (done_at < completion_time_) {
        completion_time_ = done_at;
        completion_event_ =
            sim_.events().reschedule(completion_event_, done_at);
    }
    return true;
}

Bps
FlowScheduler::currentRate(FlowId id) const
{
    const std::int32_t slot = slotOf(id);
    return slot < 0 ? 0.0 : slots_[static_cast<std::size_t>(slot)].rate;
}

bool
FlowScheduler::isActive(FlowId id) const
{
    return slotOf(id) >= 0;
}

void
FlowScheduler::setCapacity(ResourceId rid, Bps capacity)
{
    DSTRAIN_ASSERT(capacity >= 0.0, "negative capacity for resource %d",
                   rid);
    ensureResourceArrays();
    DSTRAIN_ASSERT(rid >= 0 &&
                       static_cast<std::size_t>(rid) < eff_cap_.size(),
                   "bad resource id %d", rid);
    Resource &r = topo_.resource(rid);
    const double new_eff = capacity * linkClassEfficiency(r.cls);
    r.capacity = capacity;
    if (new_eff == eff_cap_[rid])
        return;
    ++stats_.capacity_updates;

    const bool was_zero = eff_cap_[rid] <= 0.0;
    const bool slack_before = !saturated(rid);
    eff_cap_[rid] = new_eff;
    const bool slack_after = new_eff > 0.0 && !saturated(rid);
    // A restore from zero wakes the parked crossers: they rejoin the
    // (possibly deferred) solve below, which re-parks any of them
    // still blocked on another downed link.
    if (was_zero && new_eff > 0.0)
        unparkResource(rid);

    if (batch_depth_ > 0) {
        // Deferred: match setCapacities() batch semantics — rates are
        // pre-batch (stale), so every changed resource with flows
        // seeds the flush region, and a failed fast check anywhere
        // forces the flush solve.
        ++stats_.batched_events;
        if (nflows_[rid] > 0) {
            batch_dirty_.push_back(rid);
            if (!(slack_before && slack_after))
                batch_need_solve_ = true;
        }
        return;
    }

    // Fast path: with no crossing flows — or with the resource
    // strictly unsaturated under both the old and the new capacity —
    // every flow's bottleneck stays where it is, so no rate changes
    // and neither a recompute nor a log write is needed.
    if (nflows_[rid] == 0 || (slack_before && slack_after)) {
        ++stats_.fast_capacity_updates;
        return;
    }

    beginRegion();
    seedRegionResource(rid);
    solveRegion();
    maybeVerify();
}

void
FlowScheduler::setCapacities(
    const std::vector<std::pair<ResourceId, Bps>> &updates)
{
    ensureResourceArrays();
    bool any_change = false;
    bool need_solve = false;
    cap_dirty_.clear();
    for (const auto &[rid, capacity] : updates) {
        DSTRAIN_ASSERT(capacity >= 0.0,
                       "negative capacity for resource %d", rid);
        DSTRAIN_ASSERT(rid >= 0 && static_cast<std::size_t>(rid) <
                                       eff_cap_.size(),
                       "bad resource id %d", rid);
        Resource &r = topo_.resource(rid);
        const double new_eff = capacity * linkClassEfficiency(r.cls);
        r.capacity = capacity;
        if (new_eff == eff_cap_[rid])
            continue;
        any_change = true;
        const bool was_zero = eff_cap_[rid] <= 0.0;
        const bool slack_before = !saturated(rid);
        eff_cap_[rid] = new_eff;
        const bool slack_after = new_eff > 0.0 && !saturated(rid);
        if (was_zero && new_eff > 0.0)
            unparkResource(rid);
        if (nflows_[rid] == 0)
            continue;
        // Every changed resource with flows seeds the solve region
        // (not just the ones failing the fast check): the batch is
        // solved against pre-batch rates, so a jointly affected
        // resource must not be skipped on a stale individual check.
        cap_dirty_.push_back(rid);
        if (!(slack_before && slack_after))
            need_solve = true;
    }
    if (!any_change)
        return;
    ++stats_.capacity_updates;  // the whole batch counts once

    if (batch_depth_ > 0) {
        // Fold into the open storm batch.
        ++stats_.batched_events;
        batch_dirty_.insert(batch_dirty_.end(), cap_dirty_.begin(),
                            cap_dirty_.end());
        if (need_solve)
            batch_need_solve_ = true;
        return;
    }

    if (!need_solve) {
        ++stats_.fast_capacity_updates;
        maybeVerify();
        return;
    }

    beginRegion();
    for (ResourceId rid : cap_dirty_)
        seedRegionResource(rid);
    solveRegion();
    maybeVerify();
}

void
FlowScheduler::beginBatch()
{
    ++batch_depth_;
}

void
FlowScheduler::endBatch()
{
    DSTRAIN_ASSERT(batch_depth_ > 0, "endBatch without beginBatch");
    if (--batch_depth_ > 0)
        return;
    flushBatch();
}

void
FlowScheduler::flushBatch()
{
    if (batch_start_slots_.empty() && batch_dirty_.empty()) {
        batch_need_solve_ = false;
        maybeVerify();
        return;
    }
    if (!batch_need_solve_) {
        // Capacity-only batch where every entry passed its fast
        // check: no rate can have moved.
        ++stats_.fast_capacity_updates;
        batch_dirty_.clear();
        maybeVerify();
        return;
    }
    // Seed order feeds component *enumeration* order only; the fill
    // and every observable consumer are enumeration-order-invariant,
    // so dedup by sort is safe and keeps the closure walk linear.
    std::sort(batch_dirty_.begin(), batch_dirty_.end());
    batch_dirty_.erase(
        std::unique(batch_dirty_.begin(), batch_dirty_.end()),
        batch_dirty_.end());

    beginRegion();
    for (std::uint32_t slot : batch_start_slots_)
        seedRegionFlow(slot);
    for (ResourceId rid : batch_dirty_)
        seedRegionResource(rid);
    batch_start_slots_.clear();
    batch_dirty_.clear();
    batch_need_solve_ = false;
    solveRegion();
    maybeVerify();
}

bool
FlowScheduler::cancel(FlowId id, Bytes *remaining)
{
    const std::int32_t s = slotOf(id);
    if (s < 0)
        return false;
    const std::uint32_t slot = static_cast<std::uint32_t>(s);
    Flow &f = slots_[slot];
    settleFlow(f, sim_.now());  // observation point for `remaining`
    if (remaining)
        *remaining = f.remaining;
    // The detached span stays readable until the next registration,
    // so the region work below reads it after the slot is freed.
    const std::span<const ResourceId> removed = resourcesOf(slot);
    for (ResourceId rid : removed)
        nflows_[rid] -= 1;
    if (f.stalled)
        unparkStalled(slot);
    indexRemove(slot);
    detachFlow(slot);
    releaseSlot(slot);
    ++stats_.cancels;

    if (batch_depth_ > 0) {
        ++stats_.batched_events;
        // A start deferred in this same batch leaves no seed behind.
        batch_start_slots_.erase(std::remove(batch_start_slots_.begin(),
                                             batch_start_slots_.end(),
                                             slot),
                                 batch_start_slots_.end());
        ++mark_epoch_;  // fresh epoch for zeroIfIdle deduplication
        for (ResourceId rid : removed)
            zeroIfIdle(rid);
        for (ResourceId rid : removed)
            if (nflows_[rid] > 0)
                batch_dirty_.push_back(rid);
        batch_need_solve_ = true;
        return true;
    }

    beginRegion();
    for (ResourceId rid : removed)
        zeroIfIdle(rid);
    // zeroIfIdle shares the mark epoch; a resource marked idle has no
    // flows, so it can never be (re)seeded anyway.
    for (ResourceId rid : removed)
        seedRegionResource(rid);
    solveRegion();
    maybeVerify();
    return true;
}

std::size_t
FlowScheduler::cancelAll()
{
    DSTRAIN_ASSERT(batch_depth_ == 0, "cancelAll inside a batch");
    if (active_count_ == 0)
        return 0;
    const SimTime now = sim_.now();
    const std::size_t n = active_count_;
    // Terminal observation point: make every flow's remaining exact.
    for (std::int32_t s = head_slot_; s >= 0; s = next_slot_[s])
        settleFlow(slots_[static_cast<std::size_t>(s)], now);
    beginRegion();  // epoch for zeroIfIdle deduplication
    for (std::int32_t s = head_slot_; s >= 0;) {
        const std::uint32_t slot = static_cast<std::uint32_t>(s);
        s = next_slot_[slot];
        const std::span<const ResourceId> removed = resourcesOf(slot);
        for (ResourceId rid : removed)
            nflows_[rid] -= 1;
        indexRemove(slot);
        detachFlow(slot);
        releaseSlot(slot);
        // Every resource the flow crossed logs exactly zero once idle,
        // so the abort instant is bit-reproducible.
        for (ResourceId rid : removed)
            zeroIfIdle(rid);
    }
    stats_.cancels += n;
    stalled_.clear();
    scheduleNextCompletion();  // cancels the pending event
    maybeVerify();
    return n;
}

bool
FlowScheduler::stalledByFault(std::uint32_t slot) const
{
    for (ResourceId rid : resourcesOf(slot))
        if (eff_cap_[rid] <= 0.0)
            return true;
    return false;
}

void
FlowScheduler::scheduleNextCompletion()
{
    SimTime best = kFlowNeverFinishes;
    if (active_count_ > 0) {
        // The index serves the minimum directly; no walk over the
        // active list.
        ++stats_.completion_scans_avoided;
        compactIndexIfBloated();
        skimIndex();
        if (!index_.empty())
            best = index_.top().key;
    }
    if (best == kFlowNeverFinishes) {
        // Nothing running (everything finished or stalled).
        if (completion_event_ != 0) {
            sim_.events().cancel(completion_event_);
            completion_event_ = 0;
        }
        return;
    }
    completion_time_ = best;
    // Always re-stamp the event (fresh FIFO sequence), exactly as the
    // historical cancel+schedule pair did on every solve: same-time
    // tie order against other subsystems' events is part of the
    // pinned deterministic behavior.
    if (completion_event_ != 0)
        completion_event_ =
            sim_.events().reschedule(completion_event_, best);
    else
        completion_event_ = sim_.events().schedule(
            best, [this] { onCompletionEvent(); });
}

void
FlowScheduler::onCompletionEvent()
{
    completion_event_ = 0;
    const SimTime now = sim_.now();

    // Collect finishers: flows whose predicted finish time has
    // arrived, sorted to start order — the canonical
    // completion-callback order.
    finisher_slots_.clear();
    while (!index_.empty() && index_.top().key <= now) {
        const IndexEntry e = index_.top();
        index_.pop();
        if (index_seq_[e.slot] == e.seq) {
            index_seq_[e.slot] = 0;
            finisher_slots_.push_back(e.slot);
        }
    }
    std::sort(finisher_slots_.begin(), finisher_slots_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return slots_[a].seq < slots_[b].seq;
              });

    // Reuse the member buffers but operate on moved-out locals so a
    // callback that re-enters the scheduler can't alias them.
    std::vector<std::uint32_t> finished = std::move(finished_);
    std::vector<std::function<void()>> callbacks = std::move(callbacks_);
    finished.clear();
    callbacks.clear();

    for (std::uint32_t slot : finisher_slots_) {
        Flow &f = slots_[slot];
        settleFlow(f, now);
        if (f.remaining > kByteEpsilon) {
            // Float dust: the exact settle says the flow is not quite
            // done (predicted finish rounded early). Re-predict and
            // let it fire again; never finish a flow with real bytes
            // left — unless the clock cannot move past now: late in a
            // long run one ulp of simulated time carries more bytes
            // than the residue, and re-queueing at now would spin.
            f.finish_at = f.anchor + f.remaining / f.rate;
            if (f.finish_at > now) {
                indexUpdate(slot, f.finish_at);
                continue;
            }
        }
        // Detached but not yet released: the slot keeps the Flow and
        // its arena span readable until the release below, and no
        // registration (the only arena writer) can run before it.
        detachFlow(slot);
        finished.push_back(slot);
    }

    if (finished.empty()) {
        // Dust-only event: every candidate was re-queued.
        scheduleNextCompletion();
        maybeVerify();
        finished_ = std::move(finished);
        callbacks_ = std::move(callbacks);
        return;
    }

    // A full recompute is needed only when a finisher frees capacity
    // on a saturated resource some surviving flow still crosses.
    // Verify mode always takes it (see the fast-start gate in
    // start()): survivors' rates were filled with the finisher as a
    // participant, and a fresh fill without it walks a different
    // increment sequence — equal mathematically, not always bitwise.
    bool need_full = verify_;
    for (std::uint32_t slot : finished)
        for (ResourceId rid : resourcesOf(slot))
            nflows_[rid] -= 1;
    for (std::uint32_t slot : finished) {
        for (ResourceId rid : resourcesOf(slot)) {
            if (nflows_[rid] > 0 && saturated(rid)) {
                need_full = true;
                break;
            }
        }
        if (need_full)
            break;
    }

    if (need_full) {
        beginRegion();
        for (std::uint32_t slot : finished)
            for (ResourceId rid : resourcesOf(slot))
                zeroIfIdle(rid);
        for (std::uint32_t slot : finished)
            for (ResourceId rid : resourcesOf(slot))
                seedRegionResource(rid);
        solveRegion();
    } else {
        for (std::uint32_t slot : finished) {
            ++stats_.fast_finishes;
            const double rate = slots_[slot].rate;
            for (ResourceId rid : resourcesOf(slot)) {
                total_rate_[rid] -= rate;
                // Snap float dust so idle resources read exactly 0.
                if (nflows_[rid] == 0 || total_rate_[rid] < 0.0)
                    total_rate_[rid] = 0.0;
                topo_.resource(rid).log.setRate(now, total_rate_[rid]);
                ++stats_.rate_updates;
            }
        }
        scheduleNextCompletion();
    }
    for (std::uint32_t slot : finished) {
        if (slots_[slot].on_complete)
            callbacks.push_back(std::move(slots_[slot].on_complete));
        releaseSlot(slot);
    }
    maybeVerify();

    for (auto &cb : callbacks)
        cb();

    // Return the buffers (and their capacity) for the next event.
    finished.clear();
    callbacks.clear();
    finished_ = std::move(finished);
    callbacks_ = std::move(callbacks);
}

void
FlowScheduler::oracleFillComponent(std::size_t begin, std::size_t end)
{
    // fillComponent(), writing scratch rates: identical arithmetic,
    // but into oracle_rate_ instead of Flow::rate so flow state, logs
    // and totals stay untouched.
    oracle_unfrozen_.clear();
    comp_resources_.clear();
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t slot = components_[i];
        oracle_rate_[slot] = 0.0;
        oracle_unfrozen_.push_back(slot);
        for (ResourceId rid : resourcesOf(slot)) {
            if (crossing_[rid]++ == 0) {
                residual_[rid] = eff_cap_[rid];
                comp_resources_.push_back(rid);
            }
        }
    }

    while (!oracle_unfrozen_.empty()) {
        double inc = std::numeric_limits<double>::max();
        for (ResourceId rid : comp_resources_) {
            const int n = crossing_[rid];
            if (n > 0)
                inc = std::min(inc, residual_[rid] / n);
        }
        for (std::uint32_t slot : oracle_unfrozen_)
            inc = std::min(inc, slots_[slot].cap - oracle_rate_[slot]);
        DSTRAIN_ASSERT(inc >= 0.0, "negative water-filling increment");

        for (std::uint32_t slot : oracle_unfrozen_)
            oracle_rate_[slot] += inc;
        for (ResourceId rid : comp_resources_) {
            residual_[rid] -= inc * crossing_[rid];
            res_saturated_[rid] = residual_[rid] <=
                                  eff_cap_[rid] * kSaturationFraction;
        }

        oracle_still_.clear();
        bool any_frozen = false;
        for (std::uint32_t slot : oracle_unfrozen_) {
            const Flow &f = slots_[slot];
            bool froze =
                oracle_rate_[slot] >= f.cap * (1.0 - kSaturationFraction);
            if (!froze) {
                for (ResourceId rid : resourcesOf(slot)) {
                    if (res_saturated_[rid]) {
                        froze = true;
                        break;
                    }
                }
            }
            if (froze) {
                any_frozen = true;
                for (ResourceId rid : resourcesOf(slot))
                    crossing_[rid] -= 1;
            } else {
                oracle_still_.push_back(slot);
            }
        }
        DSTRAIN_ASSERT(any_frozen || oracle_still_.empty(),
                       "water-filling failed to make progress");
        oracle_unfrozen_.swap(oracle_still_);

        std::size_t w = 0;
        for (ResourceId rid : comp_resources_)
            if (crossing_[rid] > 0)
                comp_resources_[w++] = rid;
        comp_resources_.resize(w);
    }
}

void
FlowScheduler::maybeVerify()
{
    if (!verify_ || batch_depth_ > 0)
        return;
    ++stats_.verified_solves;

    // The oracle: a from-scratch per-component fill over every active
    // non-stalled flow — the same definition of fair share the region
    // solve computes — into scratch rates, with its own round loop
    // over the global per-resource arrays. crossing_ is left at zero
    // by every oracle fill, so it is safe to reuse.
    oracle_rate_.resize(slots_.size());
    region_flows_.clear();
    for (std::int32_t s = head_slot_; s >= 0; s = next_slot_[s]) {
        if (!slots_[static_cast<std::size_t>(s)].stalled)
            region_flows_.push_back(static_cast<std::uint32_t>(s));
    }
    partitionComponents();
    for (std::size_t c = 0; c < comp_ranges_.size(); ++c) {
        const std::size_t end = (c + 1 < comp_ranges_.size())
                                    ? comp_ranges_[c + 1]
                                    : components_.size();
        oracleFillComponent(comp_ranges_[c], end);
    }

    SimTime best = kFlowNeverFinishes;
    std::size_t nstalled = 0;
    for (std::int32_t s = head_slot_; s >= 0; s = next_slot_[s]) {
        const std::uint32_t slot = static_cast<std::uint32_t>(s);
        const Flow &f = slots_[slot];
        if (f.stalled) {
            ++nstalled;
            if (f.rate != 0.0 || !stalledByFault(slot))
                fatal("verify-fair-share: flow '%s' (seq %llu) parked "
                      "while not fault-stalled at t=%g",
                      tags_.label(f.tag).c_str(),
                      static_cast<unsigned long long>(f.seq), sim_.now());
            continue;
        }
        if (oracle_rate_[slot] != f.rate) {
            fatal("verify-fair-share: flow '%s' (seq %llu) rate %a "
                  "diverged from the oracle's %a at t=%g",
                  tags_.label(f.tag).c_str(),
                  static_cast<unsigned long long>(f.seq), f.rate,
                  oracle_rate_[slot], sim_.now());
        }
        // The stored finish time must be the exact function of the
        // stored (anchor, remaining, rate) triple...
        const SimTime expect = f.anchor + f.remaining / f.rate;
        if (f.finish_at != expect) {
            fatal("verify-fair-share: flow '%s' (seq %llu) finish %a "
                  "!= anchor+remaining/rate %a at t=%g",
                  tags_.label(f.tag).c_str(),
                  static_cast<unsigned long long>(f.seq), f.finish_at,
                  expect, sim_.now());
        }
        if (index_seq_[slot] == 0)
            fatal("verify-fair-share: flow '%s' (seq %llu) missing "
                  "from the completion index at t=%g",
                  tags_.label(f.tag).c_str(),
                  static_cast<unsigned long long>(f.seq), sim_.now());
        if (f.finish_at < best)
            best = f.finish_at;
    }
    if (nstalled != stalled_.size())
        fatal("verify-fair-share: stalled list holds %zu flows but "
              "%zu active flows are parked at t=%g",
              stalled_.size(), nstalled, sim_.now());

    // ... and the scheduled completion event (fed by the index) must
    // sit at the minimum of them.
    if (best == kFlowNeverFinishes) {
        if (completion_event_ != 0)
            fatal("verify-fair-share: completion event pending with "
                  "no running flow at t=%g", sim_.now());
    } else {
        if (completion_event_ == 0 || completion_time_ != best)
            fatal("verify-fair-share: completion scheduled at %a, "
                  "stored finish times say %a at t=%g",
                  completion_time_, best, sim_.now());
        skimIndex();
        if (index_.empty() || index_.top().key != best)
            fatal("verify-fair-share: completion index min %a != "
                  "stored finish-time min %a at t=%g",
                  index_.empty() ? kFlowNeverFinishes
                                 : index_.top().key,
                  best, sim_.now());
    }
}

void
FlowScheduler::finalizeLogs()
{
    topo_.finalizeLogs(sim_.now());
}

} // namespace dstrain
