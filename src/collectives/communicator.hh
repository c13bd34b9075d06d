/**
 * @file
 * Communicator groups and the collective-communication engine.
 *
 * Collectives are modeled as per-round transfer schedules emitted by
 * a pluggable CollectiveAlgorithm (collectives/algorithms.hh). The
 * default is the ring family NCCL selects on this topology:
 * reduce-scatter and all-gather run N-1 rounds in which every rank
 * ships `bytes / N` to its ring neighbor; all-reduce is a
 * reduce-scatter followed by an all-gather; broadcast is a pipelined
 * ring. Pairwise, tree and hierarchical two-level schedules are
 * selectable per invocation (CollectiveOptions::algorithm) or per
 * engine (CollectiveAlgoSpec, the `--collective-algo` grammar).
 * Every round's transfers are real flows on the simulated fabric, so
 * link telemetry sees exactly the traffic pattern the paper's
 * profilers saw.
 *
 * For groups spanning nodes the engine splits traffic across
 * channels pinned to the node's NICs round-robin — mirroring NCCL's
 * multi-channel behavior and reproducing the paper's observation
 * that a portion of inter-node GPU traffic crosses the xGMI links to
 * reach the neighboring CPU's NIC (Sec. IV-E2).
 */

#ifndef DSTRAIN_COLLECTIVES_COMMUNICATOR_HH
#define DSTRAIN_COLLECTIVES_COMMUNICATOR_HH

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "net/transfer_manager.hh"

namespace dstrain {

/** An ordered set of global GPU ranks participating in a collective. */
struct CommGroup {
    std::vector<int> ranks;

    /** Group size. */
    int size() const { return static_cast<int>(ranks.size()); }

    /** A group over ranks [0, n). */
    static CommGroup worldOf(int n);
};

/** The collective operations the training strategies use. */
enum class CollectiveOp {
    AllReduce,
    ReduceScatter,
    AllGather,
    Broadcast,
    Reduce,
    AllToAll,
};

/** Number of CollectiveOp values (spec tables are indexed by op). */
constexpr int kNumCollectiveOps = 6;

/** Human-readable collective name (timeline labels). */
const char *collectiveOpName(CollectiveOp op);

/**
 * The schedule families a collective can run as. Auto defers the
 * choice: per invocation to the engine's spec, and in the spec to
 * the topology-aware policy (chooseCollectiveAlgorithm).
 */
enum class CollectiveAlgo {
    Auto,
    Ring,
    Pairwise,
    Tree,
    Hierarchical,
};

/** Human-readable algorithm name (CLI, report tables). */
const char *collectiveAlgoName(CollectiveAlgo algo);

/**
 * Per-engine algorithm selection: a default plus optional per-op
 * overrides, populated from the `--collective-algo` grammar
 * (parseCollectiveAlgoSpec in algorithms.hh). The shipped default —
 * ring for every op — reproduces the pre-library engine bit for bit.
 */
struct CollectiveAlgoSpec {
    /** Algorithm when no per-op override matches; Auto = topology pick. */
    CollectiveAlgo default_algo = CollectiveAlgo::Ring;

    /** Per-op override; Auto = fall through to default_algo. */
    std::array<CollectiveAlgo, kNumCollectiveOps> per_op{};

    /** The requested (possibly Auto) algorithm for @p op. */
    CollectiveAlgo requestedFor(CollectiveOp op) const
    {
        const CollectiveAlgo o =
            per_op[static_cast<std::size_t>(static_cast<int>(op))];
        return o != CollectiveAlgo::Auto ? o : default_algo;
    }
};

/** One transfer of a collective round (global src/dst ranks). */
struct CollectiveHop {
    int src_rank;
    int dst_rank;
    Bytes bytes;
};

/** One round: every entry transfers concurrently; rounds barrier. */
using CollectiveRound = std::vector<CollectiveHop>;

/** Tuning knobs for one collective invocation. */
struct CollectiveOptions {
    /**
     * Number of parallel channels (rings). 0 = automatic: 1 for
     * intra-node groups, 2 (one per NIC) for inter-node groups
     * (resolveChannels in topology_view.hh).
     */
    int channels = 0;

    /**
     * Pin channel c's inter-node egress/ingress to NIC (c % nics).
     * This is what produces cross-socket xGMI traffic for GPUs whose
     * socket does not own the pinned NIC.
     */
    bool pin_channels_to_nics = true;

    /**
     * Per-hop achievable-bandwidth factor (<= 1.0): ZeRO-3's
     * fine-grained gathers use ~0.3 (see strategies/strategy.hh).
     */
    double bandwidth_factor = 1.0;

    /**
     * Schedule family for this invocation. Auto defers to the
     * engine's CollectiveAlgoSpec (whose shipped default is Ring).
     */
    CollectiveAlgo algorithm = CollectiveAlgo::Auto;

    /** Debug label. */
    std::string tag;
};

/**
 * Per-(op, algorithm) accounting of what the engine actually ran —
 * the algorithm recorded is the concrete one after Auto resolution
 * and fallback, so the report shows what was simulated, not what was
 * asked for.
 */
struct CollectiveUsage {
    CollectiveOp op;
    CollectiveAlgo algo;
    std::uint64_t invocations = 0;
    /** Sum of logical payloads passed to the collective calls. */
    Bytes payload_bytes = 0;
    /** Closed-form fabric bytes (collectiveTotalVolume) for them. */
    Bytes fabric_bytes = 0;
};

/**
 * Executes collectives on the simulated fabric.
 */
class CollectiveEngine
{
  public:
    using Callback = std::function<void()>;

    explicit CollectiveEngine(TransferManager &tm);

    CollectiveEngine(const CollectiveEngine &) = delete;
    CollectiveEngine &operator=(const CollectiveEngine &) = delete;

    /**
     * Engine-wide algorithm selection (the `--collective-algo`
     * spec). Per-invocation CollectiveOptions::algorithm wins over
     * it. Default: ring everywhere.
     */
    void setAlgoSpec(const CollectiveAlgoSpec &spec) { spec_ = spec; }

    /** The engine-wide algorithm spec. */
    const CollectiveAlgoSpec &algoSpec() const { return spec_; }

    /**
     * Attach the degraded-mode resilience coordinator
     * (net/resilience.hh). Enables the per-round progress watchdog
     * (config().collective_timeout), the degraded-schedule fallback
     * and dead-rank group filtering.
     * nullptr detaches; detached behavior is bit-identical to the
     * pre-resilience engine.
     */
    void configureResilience(ResilienceCoordinator *rc)
    {
        resilience_ = rc;
    }

    /**
     * Mark @p ranks dead (the elastic communicator shrink): every
     * subsequent group is reformed over its surviving ranks before
     * the algorithm resolves, so a strategy that still names a lost
     * rank degrades instead of panicking. No-op without an attached
     * resilience coordinator.
     */
    void markRanksDead(const std::vector<int> &ranks);

    /**
     * All-reduce @p bytes per rank across @p group.
     * @p on_done fires when every rank holds the reduced result.
     */
    void allReduce(const CommGroup &group, Bytes bytes, Callback on_done,
                   CollectiveOptions opts = {});

    /** Reduce-scatter @p bytes per rank (each keeps bytes/N). */
    void reduceScatter(const CommGroup &group, Bytes bytes,
                       Callback on_done, CollectiveOptions opts = {});

    /** All-gather so every rank ends with @p bytes total. */
    void allGather(const CommGroup &group, Bytes bytes, Callback on_done,
                   CollectiveOptions opts = {});

    /** Pipelined ring broadcast of @p bytes from @p root. */
    void broadcast(const CommGroup &group, int root, Bytes bytes,
                   Callback on_done, CollectiveOptions opts = {});

    /**
     * Rooted reduce of @p bytes (ring reduce; root ends with the
     * sum). Used by ZeRO-2's gradient reduction.
     */
    void reduce(const CommGroup &group, int root, Bytes bytes,
                Callback on_done, CollectiveOptions opts = {});

    /**
     * All-to-all of @p bytes per rank: every rank holds @p bytes of
     * which 1/N is destined to each peer (MoE token dispatch and
     * combine). Runs as N-1 pairwise-exchange rounds.
     */
    void allToAll(const CommGroup &group, Bytes bytes, Callback on_done,
                  CollectiveOptions opts = {});

    /** Number of collectives completed (test/diagnostic hook). */
    std::uint64_t completedCount() const { return completed_; }

    /** What ran so far, keyed by (op, concrete algorithm). */
    const std::vector<CollectiveUsage> &usage() const { return usage_; }

  private:
    /** One invocation's rounds in flight (communicator.cc). */
    class RoundRunner;

    /**
     * Resolve the algorithm, split @p bytes across channels, emit
     * the schedule once and run it on every channel.
     */
    void runOp(CollectiveOp op, const CommGroup &group, int root,
               Bytes bytes, CollectiveOptions opts, Callback on_done);

    /** Fold one invocation into the usage table. */
    void recordUsage(CollectiveOp op, CollectiveAlgo algo, int n,
                     Bytes bytes);

    /**
     * The edge of a hop from @p src_rank to @p dst_rank on channel
     * @p channel: the GPUs, the src node's and dst node's NIC of the
     * channel as waypoints (none for intra-node hops and unpinned
     * collectives, which take the shortest path), and the route
     * through them, ECMP-keyed by the channel.
     */
    HopEdge edge(int src_rank, int dst_rank, std::size_t channel,
                 bool pin) const;

    /** Is @p rank marked dead (elastic shrink)? */
    bool rankDead(int rank) const;

    /**
     * Is a participating node's intra-node NVLink domain cut? The
     * structural assumption of the hierarchical schedule; when true
     * the degraded fallback re-resolves to ring/pairwise.
     */
    bool hierarchicalDomainCut(const CommGroup &group) const;

    TransferManager &tm_;
    CollectiveAlgoSpec spec_;
    std::vector<CollectiveUsage> usage_;
    std::uint64_t completed_ = 0;
    ResilienceCoordinator *resilience_ = nullptr;
    /** Sorted unique ranks lost to hard faults (elastic shrink). */
    std::vector<int> dead_ranks_;
};

} // namespace dstrain

#endif // DSTRAIN_COLLECTIVES_COMMUNICATOR_HH
