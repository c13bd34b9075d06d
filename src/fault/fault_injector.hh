/**
 * @file
 * FaultInjector: executes a FaultPlan against a live simulation.
 *
 * arm() resolves every FaultEvent's target against the cluster
 * (fatal on a target that does not exist — a configuration error)
 * and schedules one apply and, for finite windows, one restore event
 * on the simulation's event queue. Applying a fault mutates resource
 * capacities through FlowScheduler::setCapacities() — never directly —
 * so in-flight flow rates re-waterfill at the fault instant and the
 * streaming telemetry records the degraded rates exactly. Restores
 * return capacities to Resource::nominal_capacity (respecting other
 * still-active faults on the same resource: the effective fraction is
 * the minimum across overlapping windows).
 *
 * The injector also snapshots per-link byte counters at each apply
 * and restore so finalize() can report before/during/after average
 * bandwidth per affected link.
 */

#ifndef DSTRAIN_FAULT_FAULT_INJECTOR_HH
#define DSTRAIN_FAULT_FAULT_INJECTOR_HH

#include <utility>
#include <vector>

#include "engine/executor.hh"
#include "fault/fault_plan.hh"

namespace dstrain {

class ResilienceCoordinator;

/** Measured effect of one fault on one affected link direction. */
struct LinkImpact {
    std::string label;        ///< resource label, e.g. "n0.roce0.fwd"
    Bps nominal = 0.0;        ///< as-built capacity
    Bps faulted = 0.0;        ///< capacity during the window
    Bps avg_before = 0.0;     ///< mean rate, measurement start -> apply
    Bps avg_during = 0.0;     ///< mean rate over the fault window
    Bps avg_after = 0.0;      ///< mean rate, restore -> measurement end
};

/** Everything measured about one executed fault. */
struct FaultImpact {
    FaultEvent event;             ///< the fault as configured
    SimTime applied_at = 0.0;     ///< when it hit
    SimTime restored_at = 0.0;    ///< when it cleared (if restored)
    bool restored = false;        ///< false = lasted to end of run
    std::vector<LinkImpact> links;

    /**
     * Mean iteration time of iterations overlapping the fault window
     * divided by the mean of clean iterations; 1.0 when either set is
     * empty. Filled in by Experiment::run().
     */
    double iteration_slowdown = 1.0;
};

/**
 * Executes one FaultPlan. Construct after the engines, arm() before
 * running the simulation, finalize() after it drains.
 */
class FaultInjector
{
  public:
    /** A resolved event: which resources / rank / node it touches. */
    struct Resolved {
        std::vector<ResourceId> rids;  ///< capacity-scaled resources
        int rank = -1;                 ///< straggler/gpudown rank (or -1)
        int nvme_node = -1;            ///< NVMe-degraded node (or -1)
        int node = -1;                 ///< nodedown node (or -1)
    };

    /** All references must outlive the injector. */
    FaultInjector(Simulation &sim, Cluster &cluster, FlowScheduler &flows,
                  TransferManager &tm, Executor &executor, AioEngine &aio,
                  FaultPlan plan);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Resolve targets and schedule the plan's apply/restore events.
     * Call exactly once, before the simulation runs. fatal() on a
     * target that does not exist in this cluster.
     */
    void arm();

    /**
     * Compute the per-link window averages against the measurement
     * window [@p measured_begin, @p measured_end). Call after the
     * simulation has drained and logs are finalized. Averages are
     * reported only for faults applied inside the window (a fault in
     * warm-up has its byte baselines truncated away).
     */
    void finalize(SimTime measured_begin, SimTime measured_end);

    /** Impact records, in plan order. */
    const std::vector<FaultImpact> &impacts() const { return impacts_; }

    /** The plan being executed. */
    const FaultPlan &plan() const { return plan_; }

    /** The resolution of event @p i (valid after arm()). */
    const Resolved &resolved(std::size_t i) const { return resolved_[i]; }

    /**
     * Install the hard-fault sink. Applying a gpudown/nodedown event
     * zeroes the affected resources and hands the event index to this
     * handler (the RecoveryManager) instead of scheduling a restore;
     * applying a hard fault without a handler is fatal() — the run
     * could only deadlock.
     */
    void setHardFaultHandler(std::function<void(std::size_t)> handler)
    {
        hard_handler_ = std::move(handler);
    }

    /**
     * Bring event @p i's resources back to nominal (respecting other
     * overlapping faults). The restart-recovery path calls this when
     * the replacement hardware joins; elastic recovery never does —
     * a dead node's links stay down.
     */
    void restoreHard(std::size_t i);

    /**
     * Report every capacity change to @p rc (the resilience
     * coordinator, net/resilience.hh), so the router's cached routes
     * are invalidated after the configured reconvergence window.
     * nullptr (the default) reports nothing — routes stay permanently
     * cached, the pre-resilience behavior.
     */
    void setResilience(ResilienceCoordinator *rc) { resilience_ = rc; }

  private:
    /** Byte-counter baselines of one affected resource. */
    struct Snapshot {
        ResourceId rid = kNoResource;
        Bytes at_apply = 0.0;
        Bytes at_restore = 0.0;
    };

    /** Resolve one event's target; fatal() when it matches nothing. */
    Resolved resolve(const FaultEvent &ev) const;

    void apply(std::size_t i);
    void restore(std::size_t i);

    /** (De)activate @p fraction on a resource (bookkeeping only; the
     * capacity takes effect via updateCapacities()). */
    void pushFraction(ResourceId rid, double fraction);
    void popFraction(ResourceId rid, double fraction);

    /**
     * Re-derive the capacities of @p rids from their active fault
     * fractions and apply them as one FlowScheduler::setCapacities()
     * call — a multi-link fault event triggers one solve, not one
     * per link — then report the change to the resilience
     * coordinator.
     */
    void updateCapacities(const std::vector<ResourceId> &rids);

    /** Re-derive a rank's straggler factor / the aio latency factor. */
    void updateGpu(int rank);
    void updateNvmeLatency();

    Simulation &sim_;
    Cluster &cluster_;
    FlowScheduler &flows_;
    TransferManager &tm_;
    Executor &executor_;
    AioEngine &aio_;
    FaultPlan plan_;

    std::vector<Resolved> resolved_;
    std::vector<FaultImpact> impacts_;
    std::vector<std::vector<Snapshot>> snaps_;  ///< per event

    /** Active fractions per resource (indexed by ResourceId). */
    std::vector<std::vector<double>> active_;
    /** Active straggler fractions per rank. */
    std::vector<std::vector<double>> gpu_active_;
    /** Active NVMe fractions (latency factor = 1 / min). */
    std::vector<double> nvme_active_;

    /** Reusable batch buffer for updateCapacities(). */
    std::vector<std::pair<ResourceId, Bps>> cap_batch_;

    /** Sink for applied hard faults (the RecoveryManager). */
    std::function<void(std::size_t)> hard_handler_;

    /** Optional capacity-change sink (degraded-mode resilience). */
    ResilienceCoordinator *resilience_ = nullptr;

    bool armed_ = false;
};

} // namespace dstrain

#endif // DSTRAIN_FAULT_FAULT_INJECTOR_HH
