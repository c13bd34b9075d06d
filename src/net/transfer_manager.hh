/**
 * @file
 * TransferManager: point-to-point transfer facade over the router and
 * the flow scheduler.
 *
 * A transfer is "send `bytes` from component A to component B":
 * the manager resolves the route, applies the route latency as a
 * start delay, starts the flow, and invokes the completion callback.
 * Collectives, offload staging and NVMe IO are all built from this.
 *
 * Every start() is a transfer: a slot of the transfer slab that keeps
 * the full request (endpoints, waypoints, the route resolved at the
 * start, bytes remaining and delivered, the caller's completion) under
 * an id. A collective round starts through startHops(), which gives
 * its hops one launch event per distinct launch time. On the
 * fault-free path each launch time's hops are one hop-set record (the
 * only other record the manager keeps): every hop's route and cap,
 * the hop payload and the round's completion; its launch event and
 * completion capture only (this, index), so they fit std::function's
 * inline buffer and a hop allocates nothing.
 *
 * Once enableRetries() is called (the fault-injection path), every
 * hop of startHops() is a transfer too, and the manager recovers
 * flows stranded on a downed route: a stalled flow is cancelled,
 * rerouted through the node's alternate NIC, and relaunched with the
 * remaining bytes under bounded exponential backoff (DESIGN.md "Fault
 * model").
 */

#ifndef DSTRAIN_NET_TRANSFER_MANAGER_HH
#define DSTRAIN_NET_TRANSFER_MANAGER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "sim/simulation.hh"

namespace dstrain {

class ResilienceCoordinator;

/** Options for TransferManager::start() and startHops(). */
struct TransferOptions {
    /**
     * Force start()'s route through these components, in order
     * (e.g. pin traffic to one NIC; a HopEdge carries a hop's own).
     * Empty = shortest path. Valid for the call; the manager copies
     * what it keeps.
     */
    std::span<const ComponentId> waypoints;

    /** Extra per-flow rate cap (0 = none); see FlowSpec::rate_cap. */
    Bps rate_cap = 0.0;

    /**
     * Multiplier on the route's uncontended rate cap (<= 1.0):
     * models transfers that cannot saturate the path (e.g. ZeRO-3's
     * many small per-parameter gathers).
     */
    double rate_factor = 1.0;

    /** Extra shared resources; see FlowSpec::extra_resources. */
    std::vector<ResourceId> extra_resources;

    /**
     * ECMP flow key: flows with different keys between the same
     * endpoints may take different equal-cost paths on multipath
     * fabrics (collectives pass the channel index). Deterministic:
     * the same key always selects the same path.
     */
    std::uint64_t flow_key = 0;

    /** Debug label (TransferManager::internTag()). */
    TagId tag = kNoTag;

    /**
     * Keeps the caller's state alive while the transfer is in
     * flight: the transfer holds it until on_done has run, or until
     * abortAll() drops the transfer. A caller whose on_done captures
     * only a raw pointer and an index (so it fits std::function's
     * inline buffer) passes its owner here. The caller must not keep
     * itself alive through it: nothing may hold itself.
     */
    std::shared_ptr<void> keepalive;
};

/**
 * One hop of a collective round, for TransferManager::startHops():
 * its endpoints, the NIC waypoints its route is pinned through (held
 * inline, so an edge owns no heap memory), and that route, resolved
 * by the caller through Router::routeThrough() since the router's
 * last cache flush.
 */
struct HopEdge {
    ComponentId src = kNoComponent;
    ComponentId dst = kNoComponent;
    std::array<ComponentId, 2> via{};
    std::uint32_t vias = 0;  ///< entries of via in use
    const Route *route = nullptr;

    /** The pinned waypoints, in order. */
    std::span<const ComponentId> waypoints() const
    {
        return {via.data(), vias};
    }
};

/**
 * Starts point-to-point transfers on the simulated fabric.
 */
class TransferManager
{
  public:
    /**
     * Byte-accounting and work counters. The conservation invariant
     * checked after every run (see verifyConservation()) is
     *
     *   bytes_requested == bytes_delivered + bytes_aborted
     *
     * across every cancel/reroute/park-resume path, within a small
     * completion-epsilon tolerance per transfer.
     */
    struct Stats {
        std::uint64_t started = 0;    ///< transfers started
        std::uint64_t completed = 0;  ///< transfers fully delivered
        std::uint64_t aborted = 0;    ///< transfers killed by abortAll()
        std::uint64_t reroutes = 0;   ///< stranded-flow reroute attempts
        Bytes bytes_requested = 0.0;  ///< total bytes asked for
        Bytes bytes_delivered = 0.0;  ///< bytes that actually landed
        Bytes bytes_aborted = 0.0;    ///< bytes discarded by abortAll()
        /** Transfers whose delivered bytes missed the requested. */
        std::uint64_t conservation_violations = 0;
    };

    /** All references must outlive the manager. */
    TransferManager(Simulation &sim, Cluster &cluster,
                    FlowScheduler &flows);

    TransferManager(const TransferManager &) = delete;
    TransferManager &operator=(const TransferManager &) = delete;

    /**
     * Transfer @p bytes from @p src to @p dst; @p on_done fires when
     * the last byte lands. The transfer launches through an event of
     * its own.
     */
    void start(ComponentId src, ComponentId dst, Bytes bytes,
               std::function<void()> on_done, TransferOptions opts = {});

    /**
     * Transfer @p bytes over each of @p edges: the one way a
     * collective round starts. Hops whose launch times (now + route
     * latency) are bitwise equal share one launch event, and the
     * events are created in the order of their first hop, so every
     * hop launches in exactly the FIFO order a per-hop event would
     * have given it. A launch event starts its hops in edge order
     * inside one FlowScheduler batch, so a round of k hops costs one
     * region solve, not k.
     *
     * On the fault-free path one launch time's hops are one hop set,
     * started through FlowScheduler::startHops(), which runs the
     * equal, resource-disjoint hops as hop classes. Once retries are
     * enabled every hop is a transfer instead, started in edge order,
     * and hop i's transfer id (a handle for
     * transferStalled()/cancelTransfer()) goes to xids[i]; the
     * fault-free path leaves @p xids alone. Either way @p on_done
     * receives the number of hops that landed, and the counts sum to
     * edges.size(); every hop keeps a copy of it. @p opts names no
     * waypoints or extra resources; its flow_key is the one a
     * reroute resolves with.
     */
    void startHops(std::span<const HopEdge> edges, Bytes bytes,
                   std::function<void(std::uint32_t)> on_done,
                   TransferOptions opts, std::span<std::uint64_t> xids);

    /** The TagId of @p label for TransferOptions::tag. */
    TagId internTag(std::string_view label)
    {
        return flows_.tags().intern(label);
    }

    /**
     * Recover flows stranded by a link fault from now on: every hop
     * of a later startHops() call is a transfer of its own, and a
     * capacity change arms the stranded-flow scan (the fault injector
     * calls it when it arms).
     */
    void enableRetries() { retries_ = true; }

    /** Are stranded flows recovered (enableRetries() called)? */
    bool retriesEnabled() const { return retries_; }

    /**
     * Attach the degraded-mode resilience coordinator
     * (net/resilience.hh). The stranded-flow scan then defers
     * reroutes to the end of an open routing-reconvergence window
     * and force-flushes the router's route caches before any reroute
     * attempt, so a retried flow can never relaunch onto a route
     * cached before the fault. nullptr detaches.
     */
    void setResilience(ResilienceCoordinator *rc) { resilience_ = rc; }

    /** The attached resilience coordinator (may be nullptr). */
    ResilienceCoordinator *resilience() const { return resilience_; }

    /**
     * Is transfer @p xid currently launched and moving zero bytes/s?
     * False for unknown ids, transfers between attempts, and moving
     * flows. The collective watchdog's progress probe.
     */
    bool transferStalled(std::uint64_t xid) const;

    /**
     * Byte-conservingly abort one in-flight transfer: cancel its
     * flow, account delivered-so-far as delivered and the remainder
     * as aborted, and drop the bookkeeping *without* firing the
     * completion callback. The collective watchdog uses this to
     * replace a stalled hop with a fresh transfer of the remaining
     * bytes on reconverged routes.
     *
     * @return the undelivered remainder (0 for unknown ids).
     */
    Bytes cancelTransfer(std::uint64_t xid);

    /**
     * The abort epoch: bumped by abortAll(). Externally scheduled
     * continuations (the collective watchdog) capture it to detect a
     * hard-fault abort between scheduling and firing.
     */
    std::uint64_t abortEpoch() const { return epoch_; }

    /**
     * Fault-injector notification that some resource capacity just
     * changed. Schedules (coalesced) a stranded-flow scan after the
     * detection delay. No-op while retries are disabled.
     */
    void notifyCapacityChange();

    /**
     * Abort every in-flight transfer: cancel the transfers' flows
     * without completion callbacks (what they moved counts
     * delivered), release every transfer with its completion and
     * keepalive, cancel the pending launch events, and advance the
     * abort epoch so stranded-flow scans scheduled before the abort
     * become no-ops. The hard-failure recovery path; aborted bytes
     * are accounted in stats().bytes_aborted. A hard fault needs a
     * fault plan, which enables retries before the first round, so
     * every in-flight flow is a transfer's: DSTRAIN_ASSERTs that no
     * hop set is live.
     * @return the number of transfers aborted.
     */
    std::size_t abortAll();

    /**
     * Check the per-transfer byte-conservation invariant after a run
     * has drained: every started transfer completed or aborted, and
     * requested == delivered + aborted bytes within tolerance.
     * DSTRAIN_ASSERTs (all build types) on violation.
     */
    void verifyConservation() const;

    /** Byte-accounting and work counters since construction. */
    const Stats &stats() const { return stats_; }

    /** Number of transfers started since construction. */
    std::uint64_t startedCount() const { return stats_.started; }

    /** Number of transfers completed since construction. */
    std::uint64_t completedCount() const { return stats_.completed; }

    /** Transfers in flight (started, not completed or aborted). */
    std::uint64_t inFlight() const
    {
        return stats_.started - stats_.completed - stats_.aborted;
    }

    /** Reroute attempts performed since construction. */
    std::uint64_t rerouteCount() const { return stats_.reroutes; }

    /** The underlying flow scheduler. */
    FlowScheduler &flows() { return flows_; }

    /** The cluster (router/topology access for callers). */
    Cluster &cluster() { return cluster_; }

    /** The simulation context. */
    Simulation &sim() { return sim_; }

  private:
    /**
     * One launch time's hops of a fault-free round (startHops()): a
     * slab record, the only one besides the transfers. Its launch
     * event and every hop entity's completion capture (this, index).
     * Only its last landing releases it: no fault plan, no abort.
     */
    struct HopSet {
        /** Every hop's route, resolved by the caller (router storage
         * outlives cache flushes); empty marks a free slot. */
        std::vector<const Route *> routes;
        std::vector<Bps> caps;  ///< attemptRateCap() of each route
        Bytes bytes = 0.0;      ///< every hop's payload
        TagId tag = kNoTag;
        /** The round's completion, taking a hop count. */
        std::function<void(std::uint32_t)> on_done;
        std::shared_ptr<void> keepalive;
        std::uint32_t landed = 0;  ///< hops landed so far
    };

    /**
     * In-flight bookkeeping for one transfer: a slot of the transfer
     * slab. Its transfer id is seq << kSlotBits | slot, so a lookup is
     * an index plus a compare of seq, and an id whose slot has moved
     * on to a later transfer reads as unknown.
     */
    struct Transfer {
        /** The transfer's start sequence; 0 marks a free slot. */
        std::uint64_t seq = 0;
        ComponentId src = kNoComponent;
        ComponentId dst = kNoComponent;
        std::vector<ComponentId> waypoints;
        /**
         * The route resolved at start, and the router cache flushes
         * it was resolved under. The first launch reuses it while no
         * flush has happened since (a lookup then returns this very
         * route); nullptr once a reroute changed the waypoints, so
         * every relaunch resolves afresh.
         */
        const Route *route = nullptr;
        std::uint64_t route_flushes = 0;
        Bytes requested = 0.0;        ///< original transfer size
        Bytes remaining = 0.0;        ///< bytes left to move
        Bytes delivered = 0.0;        ///< landed by earlier attempts
        Bps rate_cap = 0.0;           ///< caller's explicit cap
        double rate_factor = 1.0;
        std::vector<ResourceId> extra_resources;
        std::uint64_t flow_key = 0;   ///< ECMP key of every attempt
        TagId tag = kNoTag;
        std::function<void()> on_done;
        /** A startHops() hop's completion, called with 1 instead. */
        std::function<void(std::uint32_t)> on_hops;
        std::shared_ptr<void> keepalive;
        FlowId flow = 0;              ///< 0 = not currently flowing
        int attempts = 0;             ///< reroutes performed so far
    };

    /** Low bits of a transfer id: its slot in the slab. */
    static constexpr int kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;

    /** A launch-group member: a transfer id or a hop-set index. */
    struct Member {
        std::uint64_t id;
        bool set;  ///< id is a hop-set index
    };

    /** The transfers and hop sets one launch event starts, in start
     * order. */
    struct LaunchGroup {
        EventId event = 0;  ///< 0 = free slot
        std::vector<Member> members;
    };

    /** Record a completed delivery and check byte conservation. */
    void accountDelivery(Bytes requested, Bytes undelivered,
                         int attempts, TagId tag);

    /**
     * Cancel transfer @p t's flow, if any, and book the transfer as
     * aborted: what its attempts moved counts delivered, the
     * remainder aborted. The caller drops the bookkeeping; the
     * completion callback never fires.
     * @return the undelivered remainder.
     */
    Bytes abortTransfer(Transfer &t);

    /** The id of the transfer started @p seq-th, in @p slot. */
    static std::uint64_t xidOf(std::uint64_t seq, std::uint32_t slot)
    {
        return seq << kSlotBits | slot;
    }

    /** Transfer @p xid's slot in the slab. */
    static std::uint32_t slotOf(std::uint64_t xid)
    {
        return static_cast<std::uint32_t>(xid & kSlotMask);
    }

    /**
     * Is @p xid a live transfer? False once it finished, was
     * cancelled or aborted, even after its slot is reused.
     */
    bool isLive(std::uint64_t xid) const
    {
        const std::uint64_t seq = xid >> kSlotBits;
        return seq != 0 && slotOf(xid) < transfers_.size() &&
               transfers_[slotOf(xid)].seq == seq;
    }

    /**
     * Take a transfer slot for @p bytes from @p src to @p dst over
     * @p route (resolved through @p waypoints), count the transfer
     * started and fill in its request from @p opts; the caller sets
     * the completion and keepalive. start() and startHops() share it.
     * @return the transfer id.
     */
    std::uint64_t startTransfer(ComponentId src, ComponentId dst,
                                std::span<const ComponentId> waypoints,
                                const Route &route, Bytes bytes,
                                const TransferOptions &opts);

    /** Free transfer slot @p slot; its vectors keep their capacity
     * for the next transfer. */
    void releaseTransfer(std::uint32_t slot);

    /**
     * The live transfer slots in start order. Freed slots are reused
     * LIFO, so slot order is not start order; recovery scans visit
     * this order so every reroute, cancel and telemetry write keeps
     * start order.
     */
    std::vector<std::uint32_t> liveInStartOrder() const;

    /** Start the hops of hop set @p idx. */
    void launchSet(std::uint32_t idx);

    /** @p n hops of hop set @p idx landed; the last landing frees
     * the set. */
    void finishHops(std::uint32_t idx, std::uint32_t n);

    /** A launch group with no members yet, whose event fires at
     * @p when. */
    std::uint32_t openLaunchGroup(SimTime when);

    /**
     * The launch event of group @p g: start its members in order
     * inside one FlowScheduler batch, so a round's k hops cost one
     * solve instead of k growing ones. Hops that pass fast-start
     * admission run at once; the rest share the flush's solve.
     */
    void runLaunchGroup(std::uint32_t g);

    /**
     * Start the flow for transfer @p xid, on the route it started
     * with unless a cache flush or a reroute has moved it.
     */
    void launchTransfer(std::uint64_t xid);

    /**
     * Arm a stranded-flow scan if transfer @p xid launched straight
     * into a fault. Runs once the launch's solve is done: a start
     * still deferred in a batch reads rate zero.
     */
    void armIfStranded(std::uint64_t xid);

    /** Flow completion of transfer @p xid. */
    void finishTransfer(std::uint64_t xid);

    /** Scan for stranded flows and reroute them (bounded). */
    void checkStranded();

    /**
     * Waypoints for the next attempt: each intermediate NIC on the
     * current route swapped for the next NIC of the same node. When
     * no alternate NIC exists the current waypoints are returned
     * (plain retry on the same path).
     */
    std::vector<ComponentId> alternateWaypoints(
        ComponentId src, ComponentId dst,
        const std::vector<ComponentId> &current,
        std::uint64_t flow_key) const;

    Simulation &sim_;
    Cluster &cluster_;
    FlowScheduler &flows_;
    Stats stats_;
    bool retries_ = false;
    ResilienceCoordinator *resilience_ = nullptr;
    /** The hop-set slab; freed slots are reused LIFO. */
    std::vector<HopSet> sets_;
    std::vector<std::uint32_t> free_sets_;
    /** The transfer slab; freed slots are reused LIFO. */
    std::vector<Transfer> transfers_;
    std::vector<std::uint32_t> free_transfers_;
    std::uint64_t next_seq_ = 1;
    /** First start sequence issued after the last abortAll(). */
    std::uint64_t abort_seq_floor_ = 1;
    /** Launch groups with a pending event; free slots reused. */
    std::vector<LaunchGroup> groups_;
    std::vector<std::uint32_t> free_groups_;
    std::vector<Member> launching_;  ///< runLaunchGroup() scratch
    /** startHops() scratch: the call's launch times with their
     * groups, and each hop's group. */
    std::vector<std::pair<SimTime, std::uint32_t>> call_groups_;
    std::vector<std::uint32_t> hop_group_;
    /** Bumped by abortAll(); stale scheduled work checks it. */
    std::uint64_t epoch_ = 0;
    bool check_scheduled_ = false;
};

} // namespace dstrain

#endif // DSTRAIN_NET_TRANSFER_MANAGER_HH
