/**
 * @file
 * FaultPlan: a deterministic, declarative schedule of hardware faults
 * to inject into a run.
 *
 * Real multi-node training jobs see links that degrade or flap, NICs
 * that die mid-collective, GPUs that throttle, and NVMe stacks that
 * slow down. dstrain models each as a timed mutation of the affected
 * resource capacities (or compute/latency factors): the FaultInjector
 * schedules one apply and one restore event per FaultEvent on the
 * simulation's event queue, so a plan is bit-reproducible — the same
 * seed and plan always produce the same report, serially or under the
 * parallel sweep runner.
 *
 * Plans come from code (ExperimentConfig::faults) or from the CLI's
 * `--faults` spec string; see parseFaultSpec() for the grammar.
 */

#ifndef DSTRAIN_FAULT_FAULT_PLAN_HH
#define DSTRAIN_FAULT_FAULT_PLAN_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hw/link.hh"
#include "util/config_error.hh"
#include "util/units.hh"

namespace dstrain {

/**
 * The fault taxonomy. Each kind's doc names the targets it takes;
 * parseFaultTarget() parses them, and every index in a target (`<k>`,
 * `<j>`, `<r>`) is decimal digits that fit an int.
 */
enum class FaultKind {
    /**
     * A link class runs at `fraction` of nominal bandwidth for the
     * window (cable errors, congestion from a neighboring job).
     * Target namespaces:
     *   - a link-class name (`roce`, `nvlink`, `pcie-gpu`,
     *     `pcie-nic`, `pcie-nvme`, `xgmi`, `dram`, `nvme-media`,
     *     `iod`), optionally scoped to one node with `/n<k>` or to
     *     one rack with `/rack<k>` (failure domains come from the
     *     fabric generator; see hw/fabric.hh);
     *   - `rail<r>`: the RoCE uplinks of NIC `r` on every node (a
     *     rail-optimized fabric loses a whole rail switch this way);
     *   - `sw<j>`: every link touching switch `j` — uplinks and
     *     inter-switch trunks alike.
     */
    LinkDegrade,

    /**
     * The links go fully down (capacity 0) and come back at the end
     * of the window. Same targets as LinkDegrade. In-flight flows
     * stall until the transfer manager's stranded-flow scan, on under
     * any fault plan, reroutes them.
     */
    LinkFlap,

    /**
     * Permanent link kill: the targeted links drop to capacity zero
     * at `begin` and never restore — a fiber cut or a fried switch,
     * killing fabric without killing GPUs. Same failure-domain
     * targets as LinkDegrade (`<class>[/n<k>|/rack<k>]`, `rail<r>`,
     * `sw<j>`); takes no duration and no fraction. Soft from the
     * recovery manager's perspective (no checkpoint rewind); the
     * resilience layer's reconvergence/reroute machinery is what
     * carries traffic around it.
     */
    LinkDown,

    /**
     * One NIC dies: its PCIe attach and its RoCE links drop to zero
     * for the window. Target: `n<k>.nic<j>`. Traffic pinned through
     * the dead NIC fails over to the node's alternate NIC.
     */
    NicFailover,

    /**
     * A straggler GPU: rank `rank<k>` computes at `fraction` of its
     * normal speed for the window (thermal throttling, ECC retries).
     */
    GpuStraggler,

    /**
     * Node `n<k>`'s NVMe subsystem degrades: PCIe-NVMe and media
     * capacities scale by `fraction` and the aio submission latency
     * scales by 1/`fraction` for the window.
     */
    NvmeDegrade,

    /**
     * Hard failure: the GPU serving rank `rank<k>` dies at `begin`
     * and stays dead — its attach links drop to zero, the in-flight
     * iteration is aborted and the RecoveryManager takes over
     * (checkpoint restore + replay; with no checkpoint committed
     * yet the run replays from iteration 0). Takes no duration and
     * no fraction.
     */
    GpuDown,

    /**
     * Hard failure: node `n<k>` dies wholesale — every resource it
     * owns drops to zero. Recovery either replaces the node
     * (`restart`) or re-shards state across the survivors
     * (`elastic`). Takes no duration and no fraction.
     */
    NodeDown,
};

/** What a fault target names: FaultEvent::target, parsed. */
struct FaultTarget {
    /** The target namespace. */
    enum class Scope {
        Class,   ///< a link class, optionally scoped to a node or rack
        Rail,    ///< `rail<r>`: NIC r's RoCE uplinks on every node
        Switch,  ///< `sw<j>`: every link of switch j
        Nic,     ///< `n<k>.nic<j>`: one NIC
        Rank,    ///< `rank<k>`: one GPU rank
        Node,    ///< `n<k>`: one node
    };

    Scope scope = Scope::Class;
    LinkClass cls = LinkClass::Roce;  ///< Class: the link class
    int node = -1;   ///< Class `/n<k>`, Nic, Node: the node (or -1)
    int rack = -1;   ///< Class `/rack<k>`: the rack (or -1)
    int index = -1;  ///< Rail r, Switch j, Nic j, Rank k
};

/**
 * Parse @p text as the target of a @p kind event; the namespaces each
 * kind takes are listed in the FaultKind docs. Indices are digits only
 * (no sign, no space) and must fit an int. On a syntax error returns
 * nullopt and sets @p error to what was expected. The one target
 * grammar: FaultPlan::validate() reports its errors and the
 * FaultInjector resolves what it returns.
 */
std::optional<FaultTarget> parseFaultTarget(FaultKind kind,
                                            std::string_view text,
                                            std::string *error);

/** Is @p kind a hard (permanent, recovery-driving) failure? */
bool isHardFault(FaultKind kind);

/** Spec spelling of a kind (`degrade`, `flap`, `nicdown`, ...). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent {
    FaultKind kind = FaultKind::LinkDegrade;

    /** When the fault hits, in simulated seconds from run start. */
    SimTime begin = 0.0;

    /** Window length; 0 = the rest of the run (never restored). */
    SimTime duration = 0.0;

    /** What is hit; grammar depends on `kind` (see FaultKind docs). */
    std::string target;

    /**
     * Remaining fraction of nominal capacity/speed during the window
     * (LinkDegrade, GpuStraggler, NvmeDegrade). Ignored for LinkFlap
     * and NicFailover, which always drop to zero.
     */
    double fraction = 0.5;

    /** Round-trippable spec form, e.g. "degrade@1+0.5:roce:0.4". */
    std::string str() const;
};

/**
 * A full fault schedule. Arming a non-empty plan turns on stranded-flow
 * recovery (TransferManager::enableRetries()): a plan that downs
 * links without recovery would deadlock the run.
 */
struct FaultPlan {
    std::vector<FaultEvent> events;

    /** No faults scheduled? (An empty plan changes nothing.) */
    bool empty() const { return events.empty(); }

    /** Structural checks; empty result = valid. */
    std::vector<ConfigError> validate() const;

    /** The comma-joined spec form of all events. */
    std::string str() const;
};

/** Does the plan schedule any hard (gpudown/nodedown) fault? */
bool hasHardFaults(const FaultPlan &plan);

/**
 * Parse a CLI fault spec: comma-separated events of the form
 *
 *   <kind>@<begin>[+<duration>]:<target>[:<fraction>]
 *
 * where <kind> is `degrade`, `flap`, `linkdown`, `nicdown`,
 * `straggler`, `nvme`, `gpudown` or `nodedown`; times are simulated
 * seconds; a missing duration means the rest of the run (and the
 * permanent kinds linkdown / gpudown / nodedown reject a duration).
 * Examples:
 *
 *   degrade@1+0.5:roce:0.4      RoCE at 40% for 0.5 s starting at 1 s
 *   flap@2+0.2:roce/n1          node 1's RoCE links down for 200 ms
 *   degrade@1+1:rail1:0.3       rail 1 (every node's NIC 1) at 30%
 *   flap@2+0.5:sw3              everything on switch 3 down for 0.5 s
 *   linkdown@2:rail1            rail 1 dies at 2 s and stays dead
 *   degrade@1:roce/rack0:0.5    rack 0's RoCE at half speed onwards
 *   nicdown@1+1:n0.nic1         node 0's NIC 1 dead for 1 s
 *   straggler@0+2:rank3:0.6     rank 3 at 60% speed for 2 s
 *   nvme@1:n0:0.5               node 0's NVMe at half speed onwards
 *   gpudown@3:rank2             rank 2's GPU dies at 3 s
 *   nodedown@3:n1               node 1 dies at 3 s
 *
 * Problems are appended to @p errors; each error's field names the
 * event's ordinal, its character offset in @p spec, and the offending
 * item text, so a bad item in a long spec is locatable. The returned
 * plan contains the events that did parse.
 */
FaultPlan parseFaultSpec(const std::string &spec,
                         std::vector<ConfigError> *errors);

} // namespace dstrain

#endif // DSTRAIN_FAULT_FAULT_PLAN_HH
