/**
 * @file
 * The pluggable collective-algorithm library.
 *
 * A CollectiveAlgorithm turns (op, group, payload) into a
 * CollectiveSchedule: a few phases of one hop pattern each, from which
 * the CollectiveEngine produces round r on demand and executes it as
 * real flows (as HCL's agRunRing(engine, params) drives a ring from
 * its parameters, not from a materialized hop list). Four families
 * are implemented, mirroring the regimes NCCL (and HCL's
 * agRunRing/agRunPairwise split) selects:
 *
 *  - Ring: the node-major rings the engine has always modeled —
 *    bandwidth-optimal, N-1 rounds of bytes/N chunks, pipelined for
 *    the rooted ops. Bit-identical to the pre-library engine.
 *  - Pairwise: direct exchange; round r sends rank i's chunk
 *    straight to rank (i + r + 1) mod N. Also the canonical
 *    all-to-all schedule.
 *  - Tree: binomial broadcast/reduce (log2 N rounds of full-payload
 *    hops — latency-optimal) and recursive doubling/halving
 *    all-gather/reduce-scatter for power-of-two groups.
 *  - Hierarchical: the two-level decomposition — intra-node rings
 *    reduce/spread on NVLink, per-local-rank rail rings cross the
 *    inter-node fabric exactly once per chunk, cutting RoCE volume
 *    from (N-1)/N to (M-1)/N per payload byte on M nodes.
 *
 * `chooseCollectiveAlgorithm` is the topology-aware `auto` policy;
 * `resolveCollectiveAlgorithm` applies it plus the deterministic
 * fallback chain for unsupported (op, group) combinations, so the
 * algorithm recorded in usage accounting is always the one that ran.
 */

#ifndef DSTRAIN_COLLECTIVES_ALGORITHMS_HH
#define DSTRAIN_COLLECTIVES_ALGORITHMS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "collectives/communicator.hh"
#include "collectives/topology_view.hh"
#include "hw/cluster.hh"

namespace dstrain {

/**
 * One invocation's transfer schedule, produced round by round.
 *
 * The schedule is a list of phases; a phase repeats one hop pattern
 * over the schedule's rank order for a number of steps (rounds). A
 * round is a pure function of (phase, step), so the engine keeps only
 * the round in flight, never the invocation's n(n-1) hops. Rounds
 * execute sequentially with a barrier between them; hops within a
 * round run concurrently, in the order round() emits them.
 */
class CollectiveSchedule
{
  public:
    /** The hop patterns the four families are made of. */
    enum class Pattern : std::uint8_t {
        Ring,            ///< order[i] -> order[i+1 mod n], every i
        Shift,           ///< step s: order[i] -> order[i+s+1 mod n]
        Pipeline,        ///< step s: link i -> i+1 carries slice s-i
        BinomialBcast,   ///< step s: order[p] -> order[p + 2^s]
        BinomialReduce,  ///< step s: order[p + 2^(L-1-s)] -> order[p]
        XorDoubling,     ///< step s: order[i] -> order[i ^ 2^s]
        XorHalving,      ///< step s: order[i] -> order[i ^ n/2^(s+1)]
        IntraNode,       ///< every node's ring over its gpn ranks
        Rail,            ///< every rail's ring over the nodes
    };

    /** A schedule over @p order (node-major with @p gpn ranks per
     * node for the IntraNode and Rail patterns). */
    explicit CollectiveSchedule(std::vector<int> order, int gpn = 0)
        : order_(std::move(order)), gpn_(gpn)
    {
    }

    /**
     * Append a phase of @p steps rounds. @p bytes is every hop's
     * payload, except for XorDoubling (bytes * 2^s / n at step s) and
     * XorHalving (bytes / 2^(s+1) at step s).
     */
    void addPhase(Pattern pattern, int steps, Bytes bytes);

    /** Number of rounds. */
    std::size_t size() const { return rounds_; }

    /** Round @p r (< size()) into @p out, replacing its contents. */
    void round(std::size_t r, CollectiveRound &out) const;

  private:
    struct Phase {
        Pattern pattern;
        int steps;
        Bytes bytes;
    };

    std::vector<int> order_;
    int gpn_;
    std::vector<Phase> phases_;
    std::size_t rounds_ = 0;
};

/**
 * One schedule family. Implementations are stateless singletons
 * (collectiveAlgorithm below); schedule() must be a pure function of
 * its arguments so repeated runs are deterministic.
 */
class CollectiveAlgorithm
{
  public:
    virtual ~CollectiveAlgorithm() = default;

    /** The family's CollectiveAlgo tag. */
    virtual CollectiveAlgo id() const = 0;

    /** Human-readable name (== collectiveAlgoName(id())). */
    const char *name() const { return collectiveAlgoName(id()); }

    /**
     * Can this family natively schedule @p op over @p group? When
     * not, resolveCollectiveAlgorithm falls back deterministically
     * (ring for the rooted ops, pairwise for all-to-all).
     */
    virtual bool supports(CollectiveOp op, const CommGroup &group,
                          const TopologyView &view) const = 0;

    /**
     * The transfer schedule for one channel's share of the payload.
     * @p share is the per-rank logical payload of this channel
     * (bytes / channels); @p root is the root rank for Broadcast and
     * Reduce and ignored otherwise. Every channel walks the same
     * schedule.
     */
    virtual CollectiveSchedule
    schedule(CollectiveOp op, const CommGroup &group, Bytes share,
             int root, const TopologyView &view) const = 0;
};

/** The singleton implementation of @p algo (not Auto). */
const CollectiveAlgorithm &collectiveAlgorithm(CollectiveAlgo algo);

/**
 * The topology-aware `auto` policy: hierarchical for the unrooted
 * bandwidth ops on multi-node groups with a uniform rank-per-node
 * layout, tree for small payloads and the rooted ops on larger
 * groups, pairwise for all-to-all, ring otherwise.
 */
CollectiveAlgo chooseCollectiveAlgorithm(CollectiveOp op,
                                         const CommGroup &group,
                                         Bytes bytes,
                                         const TopologyView &view);

/**
 * Resolve @p requested (possibly Auto) to the concrete algorithm
 * that will run @p op over @p group: Auto goes through
 * chooseCollectiveAlgorithm, then unsupported combinations fall back
 * (all-to-all -> Pairwise, everything else -> Ring). Never returns
 * Auto; the result always supports (op, group).
 */
CollectiveAlgo resolveCollectiveAlgorithm(CollectiveOp op,
                                          const CommGroup &group,
                                          Bytes bytes,
                                          CollectiveAlgo requested,
                                          const TopologyView &view);

/** Parse one algorithm name (`ring`, `pairwise`, `tree`, `hierarchical`, `auto`). */
std::optional<CollectiveAlgo> parseCollectiveAlgo(const std::string &name);

/**
 * Parse the `--collective-algo` grammar: a comma-separated list of
 * either a bare algorithm name (sets the default) or `<op>=<algo>`
 * overrides, e.g. `auto`, `tree`, `allgather=hierarchical`,
 * `ring,allreduce=hierarchical,alltoall=pairwise`. Op names accept
 * both the compact (`allreduce`) and display (`all-reduce`) forms.
 * Returns std::nullopt and fills @p error on a malformed spec.
 */
std::optional<CollectiveAlgoSpec>
parseCollectiveAlgoSpec(const std::string &spec, std::string *error);

} // namespace dstrain

#endif // DSTRAIN_COLLECTIVES_ALGORITHMS_HH
