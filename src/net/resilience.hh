/**
 * @file
 * The degraded-mode resilience layer: topology-change notification,
 * routing reconvergence and the counters that summarize how a run
 * coped with a damaged fabric.
 *
 * Healthy-fabric runs route on per-source BFS trees and ECMP path
 * enumerations the Router caches once and reuses forever — correct
 * because routes are computed from nominal capacities and faults are
 * modeled as live contention. Under *hard* cuts (linkdown, switch
 * kill) that model over-reports goodput: real fabrics re-converge
 * (BGP/LFA, typically milliseconds) and then steer traffic around the
 * dead link, while the cached trees would keep parking flows on it
 * forever.
 *
 * The ResilienceCoordinator models exactly that control-plane loop:
 *
 *  - FaultInjector reports every capacity change to the coordinator
 *    (onTopologyChange()).
 *  - The coordinator holds the change for a configurable
 *    reconvergence delay (new flows keep taking stale-or-parked
 *    routes, like a real fabric between failure and FIB update),
 *    then invalidates the Router's caches in one shot.
 *  - With `Router::setAvoidDeadLinks(true)`, post-invalidation
 *    route computations skip capacity-zero edges, so rerouted and
 *    new flows steer around the cut. If a destination is fully
 *    partitioned the router falls back to the stale shortest path
 *    and the flow parks — never a panic.
 *
 * Everything here is opt-in (`ResilienceConfig::enabled`); a run
 * without it is bit-identical to the pre-resilience tree, which the
 * fingerprint regression suite pins.
 */

#ifndef DSTRAIN_NET_RESILIENCE_HH
#define DSTRAIN_NET_RESILIENCE_HH

#include <cstdint>
#include <vector>

#include "hw/routing.hh"
#include "sim/simulation.hh"
#include "util/config_error.hh"
#include "util/units.hh"

namespace dstrain {

/** Knobs of the degraded-mode resilience layer (all opt-in). */
struct ResilienceConfig {
    /** Master switch; off = bit-identical legacy behavior. */
    bool enabled = false;

    /**
     * Routing-reconvergence delay: how long after a capacity change
     * the router keeps serving stale routes before its caches are
     * invalidated (models BGP/LFA convergence, O(ms) on modern
     * fabrics). Changes arriving inside an open window extend it.
     */
    SimTime reconvergence_delay = 2e-3;

    /**
     * Per-round progress timeout for collectives (the NCCL-watchdog
     * model): a round whose transfers have made no progress for this
     * long is aborted byte-conservingly and relaunched — with only
     * the undelivered remainder — on reconverged routes. 0 disables
     * the watchdog.
     */
    SimTime collective_timeout = 25e-3;

    /** Structural checks; empty result = valid. */
    std::vector<ConfigError> validate() const;
};

/**
 * What the resilience layer did during a run. All counters are zero
 * on a healthy fabric — the report fingerprint only grows a
 * resilience section when one of them fires, so enabling resilience
 * on a clean run stays bit-identical.
 */
struct ResilienceStats {
    /** Router cache flushes after reconvergence windows closed. */
    std::uint64_t route_invalidations = 0;

    /** Reroute scans deferred to the end of a convergence window. */
    std::uint64_t reconvergence_waits = 0;

    /** Collective watchdog firings that rescued stalled rounds. */
    std::uint64_t collective_timeouts = 0;

    /** Algorithms re-resolved because their structure was cut. */
    std::uint64_t collective_fallbacks = 0;

    /** Communicator groups reformed over surviving ranks. */
    std::uint64_t comm_shrinks = 0;

    /** True when any counter fired (gates the report section). */
    bool any() const
    {
        return route_invalidations || reconvergence_waits ||
               collective_timeouts || collective_fallbacks ||
               comm_shrinks;
    }
};

/**
 * Drives the reconvergence model: collects topology-change
 * notifications, holds them for the configured delay, then
 * invalidates the router caches exactly once per window.
 */
class ResilienceCoordinator
{
  public:
    /**
     * Wire the coordinator to @p sim's clock and @p router's caches.
     * Callers still need to enable dead-link avoidance
     * (`router.setAvoidDeadLinks(true)`) and point the FaultInjector
     * at the coordinator.
     */
    ResilienceCoordinator(Simulation &sim, const Router &router,
                          ResilienceConfig config);

    ResilienceCoordinator(const ResilienceCoordinator &) = delete;
    ResilienceCoordinator &operator=(const ResilienceCoordinator &) =
        delete;

    /** Active config. */
    const ResilienceConfig &config() const { return cfg_; }

    /** A capacity changed (FaultInjector, after every capacity
     * update): open or extend the window and arm the flush event. */
    void onTopologyChange();

    /**
     * True while a reconvergence window is open: a capacity change
     * happened and the router still serves pre-change routes.
     */
    bool inReconvergence() const;

    /**
     * When the currently-open window closes; `now` when none is
     * open. Transfer retries scheduled at this instant run after the
     * cache flush (the flush event is enqueued first, FIFO order).
     */
    SimTime reconvergedAt() const;

    /**
     * Immediately flush the router caches if a change is pending —
     * the stranded-flow scan calls this before any reroute attempt
     * so a retried flow can never relaunch onto a route that was
     * cached before the fault.
     */
    void ensureFresh();

    /** Mutable counters (incremented by the cooperating layers). */
    ResilienceStats &stats() { return stats_; }
    const ResilienceStats &stats() const { return stats_; }

  private:
    /** Flush-event body: re-arm if the window moved, else flush. */
    void maybeInvalidate();

    /** Flush the router caches and close the window. */
    void invalidate();

    Simulation &sim_;
    const Router &router_;
    ResilienceConfig cfg_;
    ResilienceStats stats_;

    /** A change is pending and the caches are stale. */
    bool dirty_ = false;

    /** A maybeInvalidate event is armed. */
    bool flush_armed_ = false;

    /** End of the open reconvergence window (valid while dirty_). */
    SimTime converging_until_ = 0.0;
};

} // namespace dstrain

#endif // DSTRAIN_NET_RESILIENCE_HH
