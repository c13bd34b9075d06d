/**
 * @file
 * Max-min fair-share flow scheduler (progressive filling).
 *
 * All active flows share resource capacities fairly: rates are
 * computed by water-filling — every flow's rate rises uniformly until
 * it hits its own cap or saturates a resource, at which point it
 * freezes; the rest keep rising. Rates are recomputed whenever the
 * flow set changes and completion events are scheduled on the DES.
 *
 * Resource capacities are de-rated by the per-class protocol
 * efficiency (linkClassEfficiency); per-flow caps additionally carry
 * the route's SerDes degradation, so the stress tests of paper
 * Sec. III-C reproduce directly from this scheduler.
 *
 * Performance: each event re-solves only the contention region of
 * the affected flows — the connected component of the flow/resource
 * sharing graph — while every flow outside it keeps its frozen rate.
 * Because max-min rates of one component are independent of every
 * other component, the scoped solve is exact, and per-event cost
 * scales with the region, not the cluster (see DESIGN.md
 * "Performance architecture" for the invariants). The reference is
 * the verify oracle (`--verify-fair-share`): a from-scratch fill of
 * every component after every event, asserted bitwise equal.
 *
 * Per-event cost is O(region) end-to-end, not just for the solve:
 * each flow carries an anchored (time, remaining) pair settled only
 * when its rate changes, a stored predicted finish time kept in a
 * lazy-invalidation min-heap (the completion index) touched only for
 * flows whose rate changed, and per-resource totals are re-summed
 * from the crossing-flow lists of the region's resources alone.
 * Fault-stalled zero-rate flows are parked on a stalled list that no
 * fill, scan, or index operation revisits until setCapacities()
 * restores their link.
 *
 * Per-resource state lives in flat arrays indexed by ResourceId and
 * fills run on reusable component-local scratch (no hashing, no
 * per-solve allocation once warm); flows live in a dense slot map with an
 * intrusive active list in start order; and flow
 * arrivals/departures that touch only unsaturated resources take an
 * O(route length) incremental path that skips any solve entirely.
 */

#ifndef DSTRAIN_NET_FLOW_SCHEDULER_HH
#define DSTRAIN_NET_FLOW_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "hw/topology.hh"
#include "net/flow.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace dstrain {

/** Construction options for FlowScheduler. */
struct FlowSchedulerOptions {
    /** Run the oracle after every event and assert that the stored
     * rates, the completion index and the stalled list all match a
     * from-scratch solve bitwise (slow; debugging). */
    bool verify_fair_share = false;
};

/**
 * The fluid-model network scheduler.
 *
 * One instance per experiment; it mutates resource rate logs in the
 * topology as flow rates change.
 */
class FlowScheduler
{
  public:
    /** Log2 buckets in the region-size histogram. */
    static constexpr std::size_t kRegionHistBuckets = 16;

    /** Scheduler work counters (for the micro-benchmarks and tests). */
    struct Stats {
        std::uint64_t recomputes = 0;     ///< water-filling solves
        std::uint64_t fast_starts = 0;    ///< starts admitted incrementally
        std::uint64_t fast_finishes = 0;  ///< completions handled incrementally
        std::uint64_t rate_updates = 0;   ///< per-resource rate notifications
        std::uint64_t capacity_updates = 0;  ///< setCapacities() effective calls
        std::uint64_t fast_capacity_updates = 0;  ///< ... without a recompute
        std::uint64_t cancels = 0;        ///< flows removed via cancel()
        std::uint64_t region_solves = 0;  ///< solves scoped to a region
        std::uint64_t region_flows = 0;   ///< total flows across region solves
        std::uint64_t region_peak = 0;    ///< largest region solved (flows)
        std::uint64_t verified_solves = 0;  ///< oracle comparisons performed
        std::uint64_t completion_index_updates = 0;  ///< finish-time (re)insertions
        std::uint64_t completion_scans_avoided = 0;  ///< reschedules served by the index
        std::uint64_t batched_events = 0;  ///< ops whose solve a batch deferred
        std::uint64_t stalled_parks = 0;  ///< flows parked on the stalled list
        std::uint64_t class_starts = 0;   ///< hop classes started
        std::uint64_t class_hops = 0;     ///< hops started inside classes
        std::uint64_t class_solves = 0;   ///< components filled at class level
        std::uint64_t materializations = 0;  ///< classes split into hops
        /** Region-size histogram: bucket k counts solves with a region
         * of [2^k, 2^(k+1)) flows (last bucket is open-ended). */
        std::array<std::uint64_t, kRegionHistBuckets> region_hist{};
    };

    /** Schedule flows over @p topo's resources on @p sim's clock. */
    FlowScheduler(Simulation &sim, Topology &topo,
                  FlowSchedulerOptions opts = {});

    FlowScheduler(const FlowScheduler &) = delete;
    FlowScheduler &operator=(const FlowScheduler &) = delete;

    ~FlowScheduler();

    /**
     * Start a flow now. The flow copies the route's resource set into
     * the route arena; @p spec's route and extra resources need only
     * live for the call. Zero-byte flows invoke on_complete via a
     * zero-delay event (never synchronously, to keep callback
     * ordering deterministic); the returned id refers to a flow that
     * is already finished, so isActive() reports false and
     * currentRate() reports 0 for it, exactly as for any other
     * completed flow.
     * @return the flow id.
     */
    FlowId start(FlowSpec spec);

    /**
     * Start a set of equal hops now (the fault-free collective path):
     * every route of @p spec carries spec.bytes, and spec.on_complete
     * receives hop counts as they land. The result is exactly that of
     * start() per hop, in order, with each hop completing through
     * on_complete(1). The scheduler keeps no record of the set: every
     * entity it starts holds its own copy of spec.on_complete, and a
     * landing calls that copy with the entity's hop count.
     *
     * Inside a batch, a maximal run of consecutive hops with equal
     * caps, pairwise resource-disjoint routes, and no link at zero
     * capacity or crossed by a plain flow runs as one *hop class*:
     * one slot, whose arena span
     * holds the member routes (one crossing-list entry per member
     * resource), with one completion-index entry and one landing of
     * all its hops. Its k members reserve k start sequences. A class
     * is fast-admitted when every member passes fast-start admission
     * at one rate, and deferred to the batch's solve when every
     * member fails it; otherwise its hops start one by one. A solve
     * fills a component made only of classes once, at class level,
     * when the per-hop components its members form (the slices) are
     * all in the region and are isomorphic copies of each other.
     * Any other solve, and any capacity change or oracle check, first
     * *materializes* the class into per-hop flows at its current
     * progress (DESIGN.md §6.6).
     */
    void startHops(const HopSetSpec &spec);

    /** The labels FlowSpec::tag ids refer to. */
    TagTable &tags() { return tags_; }
    const TagTable &tags() const { return tags_; }

    /** Number of currently active flows. */
    std::size_t activeCount() const { return active_count_; }

    /** Number of flows currently parked on the stalled list. */
    std::size_t stalledCount() const { return stalled_.size(); }

    /**
     * Current rate of an active flow; 0 if unknown/finished. Use
     * isActive() to distinguish "finished or never existed" from a
     * momentarily-zero rate.
     */
    Bps currentRate(FlowId id) const;

    /**
     * Is @p id a currently active (started, not yet completed) flow?
     * False for finished flows, zero-byte degenerate transfers, and
     * ids this scheduler never issued.
     */
    bool isActive(FlowId id) const;

    /**
     * Change resource capacities mid-run (the fault-injection path),
     * with at most one solve for the whole set: one fault event
     * hitting a failure domain coalesces into one water-filling pass
     * instead of one per link. Updates the topology's
     * Resource::capacity and the scheduler's effective-capacity array
     * together. Entries whose capacity is unchanged are skipped; a
     * call with any change counts once in Stats::capacity_updates.
     * Fast path: when every changed resource carries no flows, or
     * stays strictly unsaturated under both the old and the new
     * capacity, no rate can change and no solve runs.
     *
     * A capacity of 0 models a downed link: crossing flows stall at
     * rate zero (their telemetry logs record the dropout exactly) and
     * are parked on the stalled list — no fill, completion scan or
     * index touches them — until a restore unparks them. Stalled
     * flows have no completion event; a plan that downs a route
     * forever without rerouting will deadlock by design.
     */
    void setCapacities(const std::vector<std::pair<ResourceId, Bps>> &updates);

    /**
     * Open a batch. Every op — start(), startHops(), cancel() and
     * setCapacities() — applies through one protocol: it updates the
     * flows, capacities and topology at once, records what its solve
     * needs (a start that fails fast-start admission, the resources a
     * change touched, whether a solve is needed) and leaves the solve
     * to the flush. endBatch() closes the union region of the recorded
     * ops once and runs a single solve; an op with no batch open is a
     * batch of one and flushes at once. A deferred start sits at rate
     * zero until the flush. Nestable; only the outermost endBatch()
     * flushes.
     *
     * A batch of capacity changes ends in the rates the changes made
     * one by one give (water-filling is a pure function of the final
     * capacities, and a capacity change that leaves a resource
     * unsaturated never moves the fill's binding minimum — see
     * DESIGN.md §6.5). A batch of starts ends in max-min fair rates:
     * a flow admitted against totals that a deferred op changes
     * crosses a resource of the flush's closure and is re-solved
     * there, and a flow outside that closure read exact totals. The
     * rates can differ from those of the ops made one by one in the
     * last bit, since the flush fills merged components in one pass.
     * Verify mode defers every start, so the oracle checks every
     * closure. TransferManager batches each launch group this way.
     */
    void beginBatch();

    /** Close a batch; the outermost call flushes the deferred solve. */
    void endBatch();

    /** RAII wrapper for beginBatch()/endBatch(). */
    class ScopedBatch
    {
      public:
        explicit ScopedBatch(FlowScheduler &s) : s_(s) { s_.beginBatch(); }
        ~ScopedBatch() { s_.endBatch(); }
        ScopedBatch(const ScopedBatch &) = delete;
        ScopedBatch &operator=(const ScopedBatch &) = delete;

      private:
        FlowScheduler &s_;
    };

    /**
     * Remove an active flow without invoking its completion callback
     * (the transfer manager's reroute, cancel and abort paths).
     * Remaining un-transferred bytes are written to @p remaining when
     * non-null.
     * @return true if the flow was active and is now gone.
     */
    bool cancel(FlowId id, Bytes *remaining = nullptr);

    /**
     * Close all rate logs at the current time (call at end of the
     * measurement window before reading telemetry).
     */
    void finalizeLogs();

    /** Work counters since construction. */
    const Stats &stats() const { return stats_; }

  private:
    /** One entry of a resource's crossing-flow list. */
    struct ResFlow {
        std::uint32_t slot;  ///< the crossing flow's slot
        std::uint32_t idx;   ///< index of this resource in its route
    };

    /**
     * Water-filling scratch, reused by every fill.
     *
     * The fill rounds run on dense component-local arrays indexed by
     * local flow / resource ids (the CSR built by
     * partitionComponents()), so they touch a few KB of contiguous,
     * cache-resident memory instead of striding over O(cluster)
     * global arrays. The arithmetic — the values and the order they
     * combine in — is exactly the global-array fill's, so the result
     * is bit-identical; only the memory locations differ.
     */
    struct FillScratch {
        // Mutable per-resource round state, indexed by local id
        // (initialized from the comp_* spans on entry).
        std::vector<double> residual;
        std::vector<int> crossing;
        std::vector<unsigned char> sat;
        std::vector<std::uint32_t> live;    ///< pruned local working set
        // Mutable per-flow round state, local flow index = offset in
        // the component's span of components_.
        std::vector<double> frate;
        std::vector<std::uint32_t> unfrozen;
        std::vector<std::uint32_t> still;
    };

    /** One completion-index heap entry; stale when the slot's
     * index_seq_ no longer matches seq (lazy invalidation, same idiom
     * as the event queue's slot/generation scheme). */
    struct IndexEntry {
        SimTime key;        ///< predicted finish time
        std::uint64_t seq;  ///< insertion stamp for staleness checks
        std::uint32_t slot; ///< the flow's slot
    };
    struct IndexLater {
        bool operator()(const IndexEntry &a, const IndexEntry &b) const
        {
            return a.key > b.key;
        }
    };
    using IndexHeap =
        std::priority_queue<IndexEntry, std::vector<IndexEntry>,
                            IndexLater>;

    /** Make @p f.remaining exact at @p now (rate constant since its
     * anchor); one multiply-subtract over the whole span. */
    static void settleFlow(Flow &f, SimTime now)
    {
        if (now > f.anchor) {
            f.remaining -= f.rate * (now - f.anchor);
            if (f.remaining < 0.0)
                f.remaining = 0.0;
            f.anchor = now;
        }
    }

    /**
     * Try to admit the flow in @p slot without a full recompute:
     * succeeds when every resource it crosses retains slack for the
     * flow's full cap, so the flow runs at its cap and no existing
     * rate changes.
     */
    bool tryFastStart(std::uint32_t slot);

    /**
     * The fast-start admission rate of a flow with cap @p cap over
     * @p resources, or 0 when it must be solved. @p self is the number
     * of crossers the flow itself adds to nflows_ (1 once registered,
     * 0 before).
     */
    double fastRate(std::span<const ResourceId> resources, double cap,
                    int self) const;

    /** Run the registered entity in @p slot at @p rate: totals, logs
     * and the completion event (the commit of a fast start). */
    void admitFast(std::uint32_t slot, double rate);

    /** Admit the just-registered flow in @p slot: a fast start, or a
     * start deferred to the flush. */
    void admit(std::uint32_t slot);

    /** End an op that recorded work for the flush: count @p ops as
     * deferred while a batch is open, else flush at once. */
    void deferOrFlush(std::uint64_t ops);

    // --- hop classes (startHops()) ----------------------------------------

    /** Sentinel member index: the whole class was seeded. */
    static constexpr std::uint32_t kWholeClass = 0xFFFFFFFFu;

    /** A hop class's member layout inside its arena span, and the
     * current region's seeds among its members. */
    struct HopClass {
        /** Member m's resources are span [off[m], off[m+1]). */
        std::vector<std::uint32_t> off;
        /** Common member route length; 0 if the lengths differ. */
        std::uint32_t len = 0;
        std::uint64_t seed_epoch = 0;  ///< mark epoch of the seeds below
        bool seed_whole = false;       ///< seeded as an entity
        std::vector<std::uint32_t> seed_members;  ///< seeded via resources
    };

    /** Start hop @p i of @p spec as a one-hop entity. */
    void startHop(const HopSetSpec &spec, std::size_t i);

    /** Start hops [@p i, @p j) of @p spec (a class run) as a class, or
     * hop by hop when their admissions differ. */
    void startClass(const HopSetSpec &spec, std::size_t i, std::size_t j);

    /** Register a class of @p routes: registerFlow() over the member
     * routes back to back, plus the member layout. @return the
     * slot. */
    std::uint32_t registerClass(Flow f,
                                std::span<const Route *const> routes);

    /** The member of class slot @p slot owning span index @p idx. */
    std::uint32_t memberOf(std::uint32_t slot, std::uint32_t idx) const;

    /** Record that the region reached member @p member (or the whole
     * class) of class slot @p slot. */
    void markClassSeed(std::uint32_t slot, std::uint32_t member);

    /**
     * Split class slot @p slot into per-hop flows at its current
     * progress: member m takes start sequence seq + m, its sub-span of
     * the class's arena span, the class's crossing-list positions and
     * a copy of its completion; member 0 keeps the slot. mat_slots_
     * receives the member slots.
     */
    void materialize(std::uint32_t slot);

    /** Materialize every class crossing @p rid (capacity changes). */
    void materializeCrossers(ResourceId rid);

    /** Flag the components of the current partition that hold a
     * class in comp_class_. @return whether any does. */
    bool markClassComponents();

    /**
     * Can component @p c be filled at class level? Only classes, of
     * equal member counts and uniform member route lengths; every
     * slice (the members of one index) reached by the region's seeds;
     * and every slice an isomorphic copy of slice 0: the same classes
     * at the same route positions, with equal effective capacities,
     * and no other crosser.
     */
    bool classFillable(std::size_t c);

    /**
     * Materialize the classes of every component that cannot be
     * filled at class level, re-seed the region with exactly the
     * members the per-hop model would have seeded and re-partition.
     * @return whether the partition holds class components (all
     *         fillable; flagged in comp_class_).
     */
    bool materializeUnfillable();

    /** Fill class component @p c once, on its slice 0, and commit the
     * rates to its classes. */
    void classFill(std::size_t c);

    /** One finisher's completion, taken out of its slot: a plain
     * flow's done, or a hop entity's hops(n). */
    struct Landing {
        std::function<void()> done;
        std::function<void(std::uint32_t)> hops;
        std::uint32_t n = 0;
    };

    /** Completion event handler: lands the finishers in start
     * order. */
    void onCompletionEvent();

    /** Schedule (or reschedule) the next completion event from the
     * completion index. */
    void scheduleNextCompletion();

    /** Grow the per-resource scratch arrays to the topology's size. */
    void ensureResourceArrays();

    /** Is the resource at (or beyond) its saturation threshold? */
    bool saturated(ResourceId rid) const;

    /** Does the flow in @p slot cross a resource faulted to zero
     * capacity? */
    bool stalledByFault(std::uint32_t slot) const;

    /** The flow in @p slot's resources: its route-arena span (valid
     * until the next registration). */
    std::span<const ResourceId> resourcesOf(std::uint32_t slot) const
    {
        return {route_arena_.data() + route_begin_[slot],
                route_len_[slot]};
    }

    // --- completion index -------------------------------------------------

    /** Record @p slot's new predicted finish time in the index. */
    void indexUpdate(std::uint32_t slot, SimTime key);

    /** Invalidate @p slot's index entry (lazy: skimmed on pop). */
    void indexRemove(std::uint32_t slot)
    {
        index_seq_[slot] = 0;
    }

    /** Drop stale entries from the top of the index heap. */
    void skimIndex();

    /** Rebuild the heap from live entries when stale ones pile up. */
    void compactIndexIfBloated();

    /** Repack route_arena_ to active spans only (see route_arena_). */
    void compactRouteArena();

    // --- stalled-flow parking ---------------------------------------------

    /** Park @p slot on the stalled list (idempotent); clears its
     * finish time and index entry. */
    void parkStalled(std::uint32_t slot);

    /** Remove @p slot from the stalled list and clear its flag. */
    void unparkStalled(std::uint32_t slot);

    /** Unpark every stalled flow crossing @p rid (capacity-restore
     * path); flows still blocked elsewhere re-park at the next
     * solve's commit. */
    void unparkResource(ResourceId rid);

    // --- dense slot map ---------------------------------------------------

    /**
     * Flow ids encode (generation, slot) as EventQueue ids do, biased
     * by +1 so that 0 is never issued. A slot's generation is bumped
     * when its flow detaches, so every id issued for it before reads
     * inactive, and the id map is the slots themselves: O(live flows),
     * not O(flows ever started).
     */
    static constexpr FlowId encodeId(std::uint32_t gen, std::uint32_t slot)
    {
        return ((static_cast<FlowId>(gen) << 32) | slot) + 1;
    }

    /** Slot of an active flow id, or -1. */
    std::int32_t slotOf(FlowId id) const
    {
        const std::uint32_t slot = static_cast<std::uint32_t>(id - 1);
        const std::uint32_t gen = static_cast<std::uint32_t>((id - 1) >> 32);
        if (id == 0 || slot >= slot_gen_.size() || slot_gen_[slot] != gen ||
            slots_[slot].seq == 0)
            return -1;
        return static_cast<std::int32_t>(slot);
    }

    /** Place @p f in a free slot (or grow the per-slot arrays);
     * the slot is not yet linked or registered anywhere. */
    std::uint32_t allocSlot(Flow f);

    /** Link @p slot into the active list after @p after (-1 = at the
     * head). */
    void linkAfter(std::int32_t after, std::uint32_t slot);

    /** Place @p f in a slot, append the resources of @p routes
     * (one route, or a class's members), then each of @p extra not
     * already among them, to the route arena, and link it into the
     * active list and the per-resource flow lists. @return the
     * slot. */
    std::uint32_t registerFlow(Flow f, std::span<const Route *const> routes,
                               std::span<const ResourceId> extra);

    /** Detach slot @p slot from the active list and the per-resource
     * lists, and retire its id (the Flow itself stays readable). */
    void detachFlow(std::uint32_t slot);

    /** Reset a detached slot's Flow and return it to the free list. */
    void releaseSlot(std::uint32_t slot);

    // --- region machinery -------------------------------------------------

    /** Start a new region (bumps the BFS mark epoch). */
    void beginRegion();

    /** Seed the region with one active flow, a class as a whole
     * (stalled flows are skipped: they hold no rate and join no fill
     * until unparked). */
    void seedRegionFlow(std::uint32_t slot);

    /** Seed the region with every flow crossing @p rid; a class is
     * seeded through the member that crosses it. */
    void seedRegionResource(ResourceId rid);

    /** Add @p slot to the seed list once (no class bookkeeping). */
    void pushSeed(std::uint32_t slot);

    /**
     * Close the seeded region over shared resources (BFS), fill each
     * of its components, write the region's rate logs and reschedule
     * the completion event. An empty seed set only reschedules.
     */
    void solveRegion();

    /**
     * Partition the seed list in region_flows_ into connected
     * components of the contention graph, closing each over shared
     * resources (the ripple closure). components_ receives the
     * member slots grouped by component in BFS discovery order
     * (deterministic for a given event history; the fill is
     * order-insensitive, see fillComponent()); comp_ranges_ receives
     * each group's start offset. Membership is marked in comp_mark_
     * at comp_epoch_. Stalled flows never join.
     */
    void partitionComponents();

    /** End of component @p c's span of components_. */
    std::size_t compEnd(std::size_t c) const
    {
        return c + 1 < comp_ranges_.size() ? comp_ranges_[c + 1]
                                           : components_.size();
    }

    /** End of component @p c's span of comp_rids_. */
    std::size_t compRidEnd(std::size_t c) const
    {
        return c + 1 < comp_rid_ranges_.size() ? comp_rid_ranges_[c + 1]
                                               : comp_rids_.size();
    }

    /**
     * Progressive filling over component @p c (its flow span of
     * components_ and its resource span of the partition CSR), then
     * the commit: each flow whose rate changed is settled at its old
     * rate and gets a fresh finish time and index entry, and flows
     * filled at rate zero are parked. Appends the component's
     * resources to active_resources_ (in discovery order). Increment
     * rounds are component-local: this is the solver's bit-exact
     * definition of fair share (see DESIGN.md), identical whether a
     * component is re-solved alone or as part of a larger region.
     */
    void fillComponent(std::size_t c);

    /**
     * The progressive-filling rounds over a component given as a
     * flow/resource CSR: @p nf flows with caps @p fcap, flow fi's
     * local resource ids at @p fres[fbegin[fi] .. fbegin[fi+1]), and
     * @p nr resources with effective capacities @p rcap and crossing
     * counts @p crossing. Leaves the rates in fill_.frate.
     */
    void fillKernel(std::size_t nf, std::size_t nr, const double *fcap,
                    const std::uint32_t *fbegin, const std::uint32_t *fres,
                    const double *rcap, const int *crossing);

    /** The commit of components_[@p begin, @p end) from fill_.frate:
     * settle and re-index changed rates, park zero rates. */
    void commitRates(std::size_t begin, std::size_t end);

    /** fillComponent() into oracle_rate_, leaving flows untouched. */
    void oracleFillComponent(std::size_t begin, std::size_t end);

    /** Re-sum per-resource totals of active_resources_ from their
     * crossing-flow lists and write the rate logs. */
    void writeRegionTotals();

    /**
     * Zero the telemetry log and total of @p rid if no flow crosses
     * it anymore (removal paths; epoch-deduplicated within one event).
     */
    void zeroIfIdle(ResourceId rid);

    /** Flush the recorded ops: one closure, one solve (none when only
     * fast capacity changes were recorded). */
    void flushBatch();

    /** Run the oracle and assert bitwise-equal rates, a consistent
     * completion index and a sound stalled list. */
    void maybeVerify();

    Simulation &sim_;
    Topology &topo_;
    const bool verify_;
    TagTable tags_;
    std::uint64_t next_seq_ = 1;
    EventId completion_event_ = 0;
    SimTime completion_time_ = 0.0;  ///< when completion_event_ fires
    Stats stats_;

    // --- dense flow storage ----------------------------------------------
    std::vector<Flow> slots_;               ///< flow storage (slot-indexed)
    std::vector<std::uint32_t> free_slots_; ///< reusable slots (LIFO)
    std::vector<std::uint32_t> slot_gen_;   ///< per-slot id generation
    /** Intrusive doubly-linked active list. Flows are appended at the
     * tail as they start, so iteration from head_slot_ is in ascending
     * start sequence (Flow::seq) — the canonical, deterministic flow
     * order of every solver loop and of simultaneous-finisher
     * callbacks. */
    std::vector<std::int32_t> next_slot_;
    std::vector<std::int32_t> prev_slot_;
    std::int32_t head_slot_ = -1;
    std::int32_t tail_slot_ = -1;
    std::size_t active_count_ = 0;

    // --- completion index -------------------------------------------------
    IndexHeap index_;
    /** Per-slot stamp of the live heap entry; 0 = none. */
    std::vector<std::uint64_t> index_seq_;
    std::uint64_t next_index_seq_ = 1;
    std::vector<std::uint32_t> finisher_slots_;  ///< per-event scratch

    // --- stalled-flow parking ---------------------------------------------
    std::vector<std::uint32_t> stalled_;      ///< parked slots
    std::vector<std::uint32_t> stalled_pos_;  ///< slot -> index in stalled_

    /** Dense per-slot mirrors of Flow::rate and Flow::stalled. The
     * per-edge loops (BFS closure, totals summation) read these 8- /
     * 1-byte arrays instead of pulling a whole Flow struct into
     * cache per edge; every writer of the mirrored fields updates
     * them in the same statement. */
    std::vector<double> rate_slot_;
    std::vector<std::uint8_t> stalled_slot_;

    /** Every active flow's resource list (and rate cap), appended at
     * registration and compacted when the arena doubles its live
     * footprint — same lazy-reclamation idea as the completion
     * index. The arena is the only copy: a flow owns no vectors, and
     * the partition BFS walks these contiguous spans without a
     * struct hop per member flow. route_pos_ runs parallel to
     * route_arena_: the flow's index inside that resource's
     * crossing-flow list (res_flows_), for O(1) swap-remove. */
    std::vector<ResourceId> route_arena_;
    std::vector<std::uint32_t> route_pos_;
    std::vector<std::uint32_t> route_begin_;  ///< per-slot arena offset
    std::vector<std::uint32_t> route_len_;    ///< per-slot span length
    std::size_t arena_live_ = 0;  ///< summed span length of active slots
    std::vector<double> cap_slot_;  ///< Flow::cap mirror (set once)

    // --- op recording (see beginBatch()) ---------------------------------
    int batch_depth_ = 0;
    bool batch_need_solve_ = false;
    bool batch_cap_change_ = false;  ///< a capacity changed since the flush
    std::vector<std::uint32_t> batch_start_slots_;  ///< deferred starts
    std::vector<ResourceId> batch_dirty_;  ///< seeds of changes and removals

    // --- flat per-resource state (indexed by ResourceId) -----------------
    std::vector<double> eff_cap_;     ///< capacity * class efficiency
    std::vector<double> total_rate_;  ///< current aggregate rate
    std::vector<int> nflows_;         ///< active flows crossing
    std::vector<double> residual_;    ///< oracle-fill scratch
    std::vector<int> crossing_;       ///< oracle-fill scratch
    std::vector<std::vector<ResFlow>> res_flows_;  ///< crossing flows

    // --- region scratch ---------------------------------------------------
    std::vector<std::uint64_t> flow_mark_;  ///< seed-dedup mark per slot
    std::vector<std::uint64_t> res_mark_;   ///< zeroIfIdle mark per resource
    std::vector<std::uint8_t> res_saturated_;  ///< oracle per-round flag
    std::uint64_t mark_epoch_ = 0;
    std::vector<std::uint32_t> region_flows_;  ///< current seed list

    // --- component partition (see partitionComponents()) ------------------
    std::vector<std::uint64_t> comp_mark_;      ///< per slot
    std::vector<std::uint64_t> res_comp_mark_;  ///< per resource
    std::uint64_t comp_epoch_ = 0;
    std::vector<std::uint32_t> components_;  ///< slots grouped by component
    std::vector<std::size_t> comp_ranges_;   ///< start offset per group
    std::vector<ResourceId> comp_resources_; ///< oracle-fill working set
    /** The partition CSR: everything a fill needs, gathered by the
     * BFS (which touches each flow and each crossing list anyway) so
     * the fills themselves never stride over global state. Resource
     * ids inside a component are component-local (0..n-1 in discovery
     * order). comp_flow_begin_ is aligned with components_ (one tail
     * entry); comp_rid_ranges_ with comp_ranges_. */
    std::vector<std::uint32_t> comp_flow_res_;   ///< local rid per route edge
    std::vector<std::uint32_t> comp_flow_begin_; ///< CSR offsets per flow
    std::vector<double> comp_fcap_;          ///< flow caps, per components_
    std::vector<ResourceId> comp_rids_;      ///< local id -> rid, flat
    std::vector<std::size_t> comp_rid_ranges_;  ///< rid span per component
    std::vector<int> comp_crossing_;   ///< initial crossing counts, flat
    std::vector<double> comp_rcap_;    ///< effective caps, flat
    std::vector<std::uint32_t> res_local_;  ///< rid -> local id (comp-epoch)

    // --- hop entities and classes -----------------------------------------
    std::vector<HopClass> classes_;
    std::vector<std::uint32_t> free_classes_;
    std::vector<std::uint32_t> class_of_;  ///< per slot: class + 1, 0 = none
    /** Per slot: a startHops() entity's copy of its set's completion
     * (empty for a plain flow). */
    std::vector<std::function<void(std::uint32_t)>> hop_done_;
    std::size_t live_classes_ = 0;
    std::vector<double> hop_caps_;       ///< startHops() scratch
    std::vector<std::uint64_t> res_hop_mark_;  ///< disjointness marks
    std::vector<int> nclass_;  ///< per resource: crossing classes
    std::uint64_t hop_epoch_ = 0;
    std::vector<std::uint32_t> mat_slots_;  ///< materialize() output
    std::vector<std::uint32_t> reseed_;     ///< re-seeded members
    std::vector<std::uint32_t> seed_scratch_;
    std::vector<std::uint8_t> comp_class_;  ///< per component: holds a class
    // classFillable()/classFill() scratch, indexed by local resource id.
    std::vector<int> slice_cnt_;
    std::vector<std::uint32_t> slice_map_;
    std::vector<std::uint32_t> slice_inv_;
    std::vector<std::uint32_t> slice_touched_;
    std::vector<std::uint8_t> cover_;
    std::vector<std::uint32_t> slice_fbegin_;
    std::vector<std::uint32_t> slice_fres_;
    std::vector<double> slice_fcap_;
    std::vector<double> slice_rcap_;
    std::vector<int> slice_cross_;

    // --- reusable scratch buffers ----------------------------------------
    FillScratch fill_;
    std::vector<ResourceId> active_resources_;  ///< solved resources
    std::vector<Landing> landings_;
    std::vector<std::uint32_t> finished_;  ///< detached finisher slots
    std::vector<double> oracle_rate_;          ///< verify-mode rates
    std::vector<std::uint32_t> oracle_unfrozen_;
    std::vector<std::uint32_t> oracle_still_;
};

} // namespace dstrain

#endif // DSTRAIN_NET_FLOW_SCHEDULER_HH
