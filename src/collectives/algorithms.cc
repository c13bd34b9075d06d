/**
 * @file
 * Implementation of the collective-algorithm library and the
 * topology-aware `auto` selection policy.
 */

#include "collectives/algorithms.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dstrain {

namespace {

/** Payloads below this ride the latency-optimal tree under `auto`. */
constexpr Bytes kTreeSmallPayload = 256.0 * 1024.0;

/** group.ranks rotated so @p root sits at position 0. */
std::vector<int>
rotatedFromRoot(const CommGroup &group, int root, int extra)
{
    const int n = group.size();
    std::vector<int> order;
    std::size_t root_pos = 0;
    for (std::size_t i = 0; i < group.ranks.size(); ++i)
        if (group.ranks[i] == root)
            root_pos = i;
    for (int i = 0; i < n; ++i)
        order.push_back(group.ranks[(root_pos +
                                     static_cast<std::size_t>(extra + i)) %
                                    group.ranks.size()]);
    return order;
}

/**
 * The N-1 neighbor-ring rounds of reduce-scatter / all-gather;
 * all-reduce runs two phases of them. Chunk arithmetic matches the
 * pre-library engine exactly (share / n once, reused per hop).
 */
std::vector<CollectiveRound>
ringUnrooted(const CommGroup &group, Bytes share, int phases)
{
    const int n = group.size();
    std::vector<CollectiveRound> rounds;
    const Bytes chunk = share / n;
    for (int phase = 0; phase < phases; ++phase) {
        for (int r = 0; r < n - 1; ++r) {
            CollectiveRound round;
            for (int i = 0; i < n; ++i) {
                round.push_back(
                    CollectiveHop{group.ranks[static_cast<std::size_t>(i)],
                                  group.ranks[static_cast<std::size_t>(
                                      (i + 1) % n)],
                                  chunk});
            }
            rounds.push_back(std::move(round));
        }
    }
    return rounds;
}

/**
 * Pipelined ring for the rooted ops: the payload is cut into slices
 * that travel down the ring; with k slices the makespan approaches
 * (1 + (n-2)/k) * bytes / bw. Rounds model the pipeline steps: at
 * step t, link i (i -> i+1) carries slice (t - i).
 */
std::vector<CollectiveRound>
ringPipeline(const std::vector<int> &order, Bytes share)
{
    const int n = static_cast<int>(order.size());
    const int slices = 8;
    std::vector<CollectiveRound> rounds;
    const Bytes slice = share / slices;
    const int steps = slices + n - 2;
    for (int t = 0; t < steps; ++t) {
        CollectiveRound round;
        for (int i = 0; i < n - 1; ++i) {
            const int s = t - i;
            if (s < 0 || s >= slices)
                continue;
            round.push_back(
                CollectiveHop{order[static_cast<std::size_t>(i)],
                              order[static_cast<std::size_t>(i + 1)],
                              slice});
        }
        if (!round.empty())
            rounds.push_back(std::move(round));
    }
    return rounds;
}

/**
 * Direct-exchange rounds: round r has every rank i ship one chunk
 * straight to rank (i + r + 1) mod n. One phase is reduce-scatter,
 * all-gather or all-to-all; all-reduce runs two.
 */
std::vector<CollectiveRound>
pairwiseExchange(const CommGroup &group, Bytes share, int phases)
{
    const int n = group.size();
    std::vector<CollectiveRound> rounds;
    const Bytes chunk = share / n;
    for (int phase = 0; phase < phases; ++phase) {
        for (int r = 0; r < n - 1; ++r) {
            CollectiveRound round;
            for (int i = 0; i < n; ++i) {
                round.push_back(
                    CollectiveHop{group.ranks[static_cast<std::size_t>(i)],
                                  group.ranks[static_cast<std::size_t>(
                                      (i + r + 1) % n)],
                                  chunk});
            }
            rounds.push_back(std::move(round));
        }
    }
    return rounds;
}

bool
isPowerOfTwo(int n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

/** Binomial broadcast from order[0]: round k doubles the frontier. */
std::vector<CollectiveRound>
binomialBroadcast(const std::vector<int> &order, Bytes share)
{
    const int n = static_cast<int>(order.size());
    std::vector<CollectiveRound> rounds;
    for (int k = 0; (1 << k) < n; ++k) {
        CollectiveRound round;
        for (int p = 0; p < (1 << k); ++p) {
            const int q = p + (1 << k);
            if (q >= n)
                break;
            round.push_back(
                CollectiveHop{order[static_cast<std::size_t>(p)],
                              order[static_cast<std::size_t>(q)], share});
        }
        rounds.push_back(std::move(round));
    }
    return rounds;
}

/** Binomial reduce toward order[0]: the broadcast mirrored. */
std::vector<CollectiveRound>
binomialReduce(const std::vector<int> &order, Bytes share)
{
    const int n = static_cast<int>(order.size());
    int levels = 0;
    while ((1 << levels) < n)
        ++levels;
    std::vector<CollectiveRound> rounds;
    for (int k = levels - 1; k >= 0; --k) {
        CollectiveRound round;
        for (int p = 0; p < (1 << k); ++p) {
            const int q = p + (1 << k);
            if (q >= n)
                break;
            round.push_back(
                CollectiveHop{order[static_cast<std::size_t>(q)],
                              order[static_cast<std::size_t>(p)], share});
        }
        if (!round.empty())
            rounds.push_back(std::move(round));
    }
    return rounds;
}

/** Recursive-doubling all-gather (power-of-two groups only). */
std::vector<CollectiveRound>
recursiveDoubling(const CommGroup &group, Bytes share)
{
    const int n = group.size();
    std::vector<CollectiveRound> rounds;
    for (int dist = 1; dist < n; dist *= 2) {
        CollectiveRound round;
        const Bytes bytes = share * dist / n;
        for (int i = 0; i < n; ++i) {
            round.push_back(
                CollectiveHop{group.ranks[static_cast<std::size_t>(i)],
                              group.ranks[static_cast<std::size_t>(
                                  i ^ dist)],
                              bytes});
        }
        rounds.push_back(std::move(round));
    }
    return rounds;
}

/** Recursive-halving reduce-scatter (power-of-two groups only). */
std::vector<CollectiveRound>
recursiveHalving(const CommGroup &group, Bytes share)
{
    const int n = group.size();
    std::vector<CollectiveRound> rounds;
    Bytes bytes = share / 2;
    for (int dist = n / 2; dist >= 1; dist /= 2) {
        CollectiveRound round;
        for (int i = 0; i < n; ++i) {
            round.push_back(
                CollectiveHop{group.ranks[static_cast<std::size_t>(i)],
                              group.ranks[static_cast<std::size_t>(
                                  i ^ dist)],
                              bytes});
        }
        rounds.push_back(std::move(round));
        bytes /= 2;
    }
    return rounds;
}

// ---------------------------------------------------------------- Ring

class RingAlgorithm final : public CollectiveAlgorithm
{
  public:
    CollectiveAlgo id() const override { return CollectiveAlgo::Ring; }

    bool
    supports(CollectiveOp op, const CommGroup &group,
             const TopologyView &) const override
    {
        return group.size() >= 2 && op != CollectiveOp::AllToAll;
    }

    std::vector<CollectiveRound>
    rounds(CollectiveOp op, const CommGroup &group, Bytes share,
           int root, const TopologyView &) const override
    {
        switch (op) {
          case CollectiveOp::ReduceScatter:
          case CollectiveOp::AllGather:
            return ringUnrooted(group, share, 1);
          case CollectiveOp::AllReduce:
            return ringUnrooted(group, share, 2);
          case CollectiveOp::Broadcast:
            return ringPipeline(rotatedFromRoot(group, root, 0), share);
          case CollectiveOp::Reduce:
            // Toward the root: same pipeline in the opposite
            // direction; order[n-1] == root.
            return ringPipeline(rotatedFromRoot(group, root, 1), share);
          case CollectiveOp::AllToAll:
            break;
        }
        panic("ring cannot schedule %s", collectiveOpName(op));
    }
};

// ------------------------------------------------------------ Pairwise

class PairwiseAlgorithm final : public CollectiveAlgorithm
{
  public:
    CollectiveAlgo id() const override { return CollectiveAlgo::Pairwise; }

    bool
    supports(CollectiveOp op, const CommGroup &group,
             const TopologyView &) const override
    {
        switch (op) {
          case CollectiveOp::AllReduce:
          case CollectiveOp::ReduceScatter:
          case CollectiveOp::AllGather:
          case CollectiveOp::AllToAll:
            return group.size() >= 2;
          case CollectiveOp::Broadcast:
          case CollectiveOp::Reduce:
            return false;
        }
        return false;
    }

    std::vector<CollectiveRound>
    rounds(CollectiveOp op, const CommGroup &group, Bytes share, int,
           const TopologyView &) const override
    {
        switch (op) {
          case CollectiveOp::ReduceScatter:
          case CollectiveOp::AllGather:
          case CollectiveOp::AllToAll:
            return pairwiseExchange(group, share, 1);
          case CollectiveOp::AllReduce:
            return pairwiseExchange(group, share, 2);
          case CollectiveOp::Broadcast:
          case CollectiveOp::Reduce:
            break;
        }
        panic("pairwise cannot schedule %s", collectiveOpName(op));
    }
};

// ---------------------------------------------------------------- Tree

class TreeAlgorithm final : public CollectiveAlgorithm
{
  public:
    CollectiveAlgo id() const override { return CollectiveAlgo::Tree; }

    bool
    supports(CollectiveOp op, const CommGroup &group,
             const TopologyView &) const override
    {
        const int n = group.size();
        if (n < 2)
            return false;
        switch (op) {
          case CollectiveOp::Broadcast:
          case CollectiveOp::Reduce:
          case CollectiveOp::AllReduce:
            return true;
          case CollectiveOp::ReduceScatter:
          case CollectiveOp::AllGather:
            // Recursive halving/doubling needs a power-of-two group.
            return isPowerOfTwo(n);
          case CollectiveOp::AllToAll:
            return false;
        }
        return false;
    }

    std::vector<CollectiveRound>
    rounds(CollectiveOp op, const CommGroup &group, Bytes share,
           int root, const TopologyView &) const override
    {
        switch (op) {
          case CollectiveOp::Broadcast:
            return binomialBroadcast(rotatedFromRoot(group, root, 0),
                                     share);
          case CollectiveOp::Reduce:
            return binomialReduce(rotatedFromRoot(group, root, 0),
                                  share);
          case CollectiveOp::AllReduce: {
            // Reduce to rank 0 of the group, then fan back out.
            auto rounds = binomialReduce(group.ranks, share);
            auto bcast = binomialBroadcast(group.ranks, share);
            rounds.insert(rounds.end(),
                          std::make_move_iterator(bcast.begin()),
                          std::make_move_iterator(bcast.end()));
            return rounds;
          }
          case CollectiveOp::AllGather:
            return recursiveDoubling(group, share);
          case CollectiveOp::ReduceScatter:
            return recursiveHalving(group, share);
          case CollectiveOp::AllToAll:
            break;
        }
        panic("tree cannot schedule %s", collectiveOpName(op));
    }
};

// -------------------------------------------------------- Hierarchical

class HierarchicalAlgorithm final : public CollectiveAlgorithm
{
  public:
    CollectiveAlgo id() const override
    {
        return CollectiveAlgo::Hierarchical;
    }

    bool
    supports(CollectiveOp op, const CommGroup &group,
             const TopologyView &view) const override
    {
        switch (op) {
          case CollectiveOp::AllReduce:
          case CollectiveOp::ReduceScatter:
          case CollectiveOp::AllGather:
            break;
          default:
            return false;
        }
        return group.size() >= 2 && view.spansNodes(group) &&
               view.uniformRanksPerNode(group);
    }

    std::vector<CollectiveRound>
    rounds(CollectiveOp op, const CommGroup &group, Bytes share, int,
           const TopologyView &view) const override
    {
        // Node-major layout: g.ranks[node * gpn + j] is node
        // `node`'s j-th member; rail j strings the j-th member of
        // every node into one inter-node ring.
        const CommGroup g = view.orderNodeMajor(group);
        const int n = g.size();
        const int m = static_cast<int>(view.nodesOf(g).size());
        DSTRAIN_ASSERT(m >= 2 && n % m == 0,
                       "hierarchical needs a uniform multi-node group");
        const int gpn = n / m;

        std::vector<CollectiveRound> rounds;

        // One neighbor-ring round inside every node concurrently.
        auto intra_rounds = [&](Bytes chunk, int count) {
            for (int r = 0; r < count; ++r) {
                CollectiveRound round;
                for (int node = 0; node < m; ++node) {
                    for (int j = 0; j < gpn; ++j) {
                        round.push_back(CollectiveHop{
                            railRank(g, node, j, gpn),
                            railRank(g, node, (j + 1) % gpn, gpn),
                            chunk});
                    }
                }
                rounds.push_back(std::move(round));
            }
        };
        // One ring round along every rail concurrently.
        auto inter_rounds = [&](Bytes chunk, int count) {
            for (int r = 0; r < count; ++r) {
                CollectiveRound round;
                for (int j = 0; j < gpn; ++j) {
                    for (int node = 0; node < m; ++node) {
                        round.push_back(CollectiveHop{
                            railRank(g, node, j, gpn),
                            railRank(g, (node + 1) % m, j, gpn),
                            chunk});
                    }
                }
                rounds.push_back(std::move(round));
            }
        };

        const Bytes node_chunk = share / gpn;
        const Bytes rail_chunk = node_chunk / m;
        switch (op) {
          case CollectiveOp::AllReduce:
            // Intra reduce-scatter, rail all-reduce, intra
            // all-gather: each payload byte crosses the inter-node
            // fabric 2(m-1)/n times instead of the flat ring's
            // 2(n-1) m / n.
            intra_rounds(node_chunk, gpn - 1);
            inter_rounds(rail_chunk, 2 * (m - 1));
            intra_rounds(node_chunk, gpn - 1);
            break;
          case CollectiveOp::ReduceScatter:
            intra_rounds(node_chunk, gpn - 1);
            inter_rounds(rail_chunk, m - 1);
            break;
          case CollectiveOp::AllGather:
            inter_rounds(rail_chunk, m - 1);
            intra_rounds(node_chunk, gpn - 1);
            break;
          default:
            panic("hierarchical cannot schedule %s",
                  collectiveOpName(op));
        }
        return rounds;
    }

  private:
    static int
    railRank(const CommGroup &g, int node, int j, int gpn)
    {
        return g.ranks[static_cast<std::size_t>(node * gpn + j)];
    }
};

const RingAlgorithm kRing;
const PairwiseAlgorithm kPairwise;
const TreeAlgorithm kTree;
const HierarchicalAlgorithm kHierarchical;

} // namespace

const CollectiveAlgorithm &
collectiveAlgorithm(CollectiveAlgo algo)
{
    switch (algo) {
      case CollectiveAlgo::Ring:
        return kRing;
      case CollectiveAlgo::Pairwise:
        return kPairwise;
      case CollectiveAlgo::Tree:
        return kTree;
      case CollectiveAlgo::Hierarchical:
        return kHierarchical;
      case CollectiveAlgo::Auto:
        break;
    }
    panic("no implementation for CollectiveAlgo %d",
          static_cast<int>(algo));
}

CollectiveAlgo
chooseCollectiveAlgorithm(CollectiveOp op, const CommGroup &group,
                          Bytes bytes, const TopologyView &view)
{
    const int n = group.size();
    if (op == CollectiveOp::AllToAll)
        return CollectiveAlgo::Pairwise;
    if (op == CollectiveOp::Broadcast || op == CollectiveOp::Reduce)
        return n > 2 ? CollectiveAlgo::Tree : CollectiveAlgo::Ring;
    // Bandwidth ops: prefer the two-level decomposition whenever the
    // group actually has an intra-node tier to exploit.
    if (kHierarchical.supports(op, group, view) &&
        n > static_cast<int>(view.nodesOf(group).size())) {
        return CollectiveAlgo::Hierarchical;
    }
    // Small payloads are latency-bound: log2 N rounds beat N-1.
    if (bytes < kTreeSmallPayload && kTree.supports(op, group, view))
        return CollectiveAlgo::Tree;
    return CollectiveAlgo::Ring;
}

CollectiveAlgo
resolveCollectiveAlgorithm(CollectiveOp op, const CommGroup &group,
                           Bytes bytes, CollectiveAlgo requested,
                           const TopologyView &view)
{
    if (requested == CollectiveAlgo::Auto)
        requested = chooseCollectiveAlgorithm(op, group, bytes, view);
    if (collectiveAlgorithm(requested).supports(op, group, view))
        return requested;
    return op == CollectiveOp::AllToAll ? CollectiveAlgo::Pairwise
                                        : CollectiveAlgo::Ring;
}

std::optional<CollectiveAlgo>
parseCollectiveAlgo(const std::string &name)
{
    if (name == "auto")
        return CollectiveAlgo::Auto;
    if (name == "ring")
        return CollectiveAlgo::Ring;
    if (name == "pairwise")
        return CollectiveAlgo::Pairwise;
    if (name == "tree")
        return CollectiveAlgo::Tree;
    if (name == "hierarchical")
        return CollectiveAlgo::Hierarchical;
    return std::nullopt;
}

namespace {

std::optional<CollectiveOp>
parseCollectiveOpName(const std::string &name)
{
    if (name == "allreduce" || name == "all-reduce")
        return CollectiveOp::AllReduce;
    if (name == "reducescatter" || name == "reduce-scatter")
        return CollectiveOp::ReduceScatter;
    if (name == "allgather" || name == "all-gather")
        return CollectiveOp::AllGather;
    if (name == "broadcast")
        return CollectiveOp::Broadcast;
    if (name == "reduce")
        return CollectiveOp::Reduce;
    if (name == "alltoall" || name == "all-to-all")
        return CollectiveOp::AllToAll;
    return std::nullopt;
}

std::string
trimmed(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

} // namespace

std::optional<CollectiveAlgoSpec>
parseCollectiveAlgoSpec(const std::string &spec, std::string *error)
{
    CollectiveAlgoSpec out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = trimmed(spec.substr(pos, comma - pos));
        pos = comma + 1;
        if (tok.empty()) {
            if (spec.empty())
                break;  // empty spec = defaults
            if (error)
                *error = "empty element in collective-algo spec";
            return std::nullopt;
        }
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            const auto algo = parseCollectiveAlgo(tok);
            if (!algo) {
                if (error)
                    *error = "unknown collective algorithm '" + tok +
                             "' (ring, pairwise, tree, hierarchical, "
                             "auto)";
                return std::nullopt;
            }
            out.default_algo = *algo;
            continue;
        }
        const std::string op_name = trimmed(tok.substr(0, eq));
        const std::string algo_name = trimmed(tok.substr(eq + 1));
        const auto op = parseCollectiveOpName(op_name);
        if (!op) {
            if (error)
                *error = "unknown collective op '" + op_name +
                         "' (allreduce, reducescatter, allgather, "
                         "broadcast, reduce, alltoall)";
            return std::nullopt;
        }
        const auto algo = parseCollectiveAlgo(algo_name);
        if (!algo) {
            if (error)
                *error = "unknown collective algorithm '" + algo_name +
                         "' (ring, pairwise, tree, hierarchical, auto)";
            return std::nullopt;
        }
        out.per_op[static_cast<std::size_t>(static_cast<int>(*op))] =
            *algo;
    }
    return out;
}

} // namespace dstrain
