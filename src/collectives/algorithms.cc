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

using Pattern = CollectiveSchedule::Pattern;

/** Slices of the pipelined ring (rooted ops). */
constexpr int kPipelineSlices = 8;

/** Levels of a binomial tree over @p n ranks: ceil(log2 n). */
int
binomialLevels(int n)
{
    int levels = 0;
    while ((1 << levels) < n)
        ++levels;
    return levels;
}

/**
 * The N-1 neighbor-ring rounds of reduce-scatter / all-gather;
 * all-reduce runs two phases of them. Chunk arithmetic matches the
 * pre-library engine exactly (share / n once, reused per hop).
 */
CollectiveSchedule
ringUnrooted(const CommGroup &group, Bytes share, int phases)
{
    const int n = group.size();
    CollectiveSchedule s(group.ranks);
    s.addPhase(Pattern::Ring, phases * (n - 1), share / n);
    return s;
}

/**
 * Pipelined ring for the rooted ops: the payload is cut into slices
 * that travel down the ring; with k slices the makespan approaches
 * (1 + (n-2)/k) * bytes / bw. Rounds model the pipeline steps: at
 * step t, link i (i -> i+1) carries slice (t - i).
 */
CollectiveSchedule
ringPipeline(std::vector<int> order, Bytes share)
{
    const int n = static_cast<int>(order.size());
    CollectiveSchedule s(std::move(order));
    s.addPhase(Pattern::Pipeline, kPipelineSlices + n - 2,
               share / kPipelineSlices);
    return s;
}

/**
 * Direct-exchange rounds: round r has every rank i ship one chunk
 * straight to rank (i + r + 1) mod n. One phase is reduce-scatter,
 * all-gather or all-to-all; all-reduce runs two.
 */
CollectiveSchedule
pairwiseExchange(const CommGroup &group, Bytes share, int phases)
{
    const int n = group.size();
    CollectiveSchedule s(group.ranks);
    for (int phase = 0; phase < phases; ++phase)
        s.addPhase(Pattern::Shift, n - 1, share / n);
    return s;
}

bool
isPowerOfTwo(int n)
{
    return n >= 1 && (n & (n - 1)) == 0;
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

    CollectiveSchedule
    schedule(CollectiveOp op, const CommGroup &group, Bytes share,
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

    CollectiveSchedule
    schedule(CollectiveOp op, const CommGroup &group, Bytes share, int,
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

    CollectiveSchedule
    schedule(CollectiveOp op, const CommGroup &group, Bytes share,
             int root, const TopologyView &) const override
    {
        const int levels = binomialLevels(group.size());
        switch (op) {
          case CollectiveOp::Broadcast: {
            // Binomial broadcast from order[0]: each round doubles
            // the frontier.
            CollectiveSchedule s(rotatedFromRoot(group, root, 0));
            s.addPhase(Pattern::BinomialBcast, levels, share);
            return s;
          }
          case CollectiveOp::Reduce: {
            // Binomial reduce toward order[0]: the broadcast mirrored.
            CollectiveSchedule s(rotatedFromRoot(group, root, 0));
            s.addPhase(Pattern::BinomialReduce, levels, share);
            return s;
          }
          case CollectiveOp::AllReduce: {
            // Reduce to rank 0 of the group, then fan back out.
            CollectiveSchedule s(group.ranks);
            s.addPhase(Pattern::BinomialReduce, levels, share);
            s.addPhase(Pattern::BinomialBcast, levels, share);
            return s;
          }
          case CollectiveOp::AllGather: {
            // Recursive doubling (power-of-two groups only).
            CollectiveSchedule s(group.ranks);
            s.addPhase(Pattern::XorDoubling, levels, share);
            return s;
          }
          case CollectiveOp::ReduceScatter: {
            // Recursive halving (power-of-two groups only).
            CollectiveSchedule s(group.ranks);
            s.addPhase(Pattern::XorHalving, levels, share);
            return s;
          }
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

    CollectiveSchedule
    schedule(CollectiveOp op, const CommGroup &group, Bytes share, int,
             const TopologyView &view) const override
    {
        // Node-major layout: g.ranks[node * gpn + j] is node
        // `node`'s j-th member; rail j strings the j-th member of
        // every node into one inter-node ring. IntraNode rounds run
        // one neighbor-ring round inside every node concurrently,
        // Rail rounds one ring round along every rail.
        CommGroup g = view.orderNodeMajor(group);
        const int n = g.size();
        const int m = static_cast<int>(view.nodesOf(g).size());
        DSTRAIN_ASSERT(m >= 2 && n % m == 0,
                       "hierarchical needs a uniform multi-node group");
        const int gpn = n / m;
        CollectiveSchedule s(std::move(g.ranks), gpn);

        const Bytes node_chunk = share / gpn;
        const Bytes rail_chunk = node_chunk / m;
        switch (op) {
          case CollectiveOp::AllReduce:
            // Intra reduce-scatter, rail all-reduce, intra
            // all-gather: each payload byte crosses the inter-node
            // fabric 2(m-1)/n times instead of the flat ring's
            // 2(n-1) m / n.
            s.addPhase(Pattern::IntraNode, gpn - 1, node_chunk);
            s.addPhase(Pattern::Rail, 2 * (m - 1), rail_chunk);
            s.addPhase(Pattern::IntraNode, gpn - 1, node_chunk);
            break;
          case CollectiveOp::ReduceScatter:
            s.addPhase(Pattern::IntraNode, gpn - 1, node_chunk);
            s.addPhase(Pattern::Rail, m - 1, rail_chunk);
            break;
          case CollectiveOp::AllGather:
            s.addPhase(Pattern::Rail, m - 1, rail_chunk);
            s.addPhase(Pattern::IntraNode, gpn - 1, node_chunk);
            break;
          default:
            panic("hierarchical cannot schedule %s",
                  collectiveOpName(op));
        }
        return s;
    }
};

const RingAlgorithm kRing;
const PairwiseAlgorithm kPairwise;
const TreeAlgorithm kTree;
const HierarchicalAlgorithm kHierarchical;

} // namespace

void
CollectiveSchedule::addPhase(Pattern pattern, int steps, Bytes bytes)
{
    if (steps <= 0)
        return;
    phases_.push_back(Phase{pattern, steps, bytes});
    rounds_ += static_cast<std::size_t>(steps);
}

void
CollectiveSchedule::round(std::size_t r, CollectiveRound &out) const
{
    DSTRAIN_ASSERT(r < rounds_, "round %zu of a %zu-round schedule", r,
                   rounds_);
    std::size_t ph = 0;
    while (r >= static_cast<std::size_t>(phases_[ph].steps))
        r -= static_cast<std::size_t>(phases_[ph++].steps);
    const Phase &phase = phases_[ph];
    const int s = static_cast<int>(r);
    const int n = static_cast<int>(order_.size());
    auto rank = [this](int i) {
        return order_[static_cast<std::size_t>(i)];
    };
    out.clear();
    switch (phase.pattern) {
      case Pattern::Ring:
        for (int i = 0; i < n; ++i)
            out.push_back({rank(i), rank((i + 1) % n), phase.bytes});
        break;
      case Pattern::Shift:
        for (int i = 0; i < n; ++i)
            out.push_back({rank(i), rank((i + s + 1) % n), phase.bytes});
        break;
      case Pattern::Pipeline:
        for (int i = 0; i < n - 1; ++i) {
            const int slice = s - i;
            if (slice >= 0 && slice < kPipelineSlices)
                out.push_back({rank(i), rank(i + 1), phase.bytes});
        }
        break;
      case Pattern::BinomialBcast:
        for (int p = 0; p < (1 << s) && p + (1 << s) < n; ++p)
            out.push_back({rank(p), rank(p + (1 << s)), phase.bytes});
        break;
      case Pattern::BinomialReduce: {
        const int k = phase.steps - 1 - s;
        for (int p = 0; p < (1 << k) && p + (1 << k) < n; ++p)
            out.push_back({rank(p + (1 << k)), rank(p), phase.bytes});
        break;
      }
      case Pattern::XorDoubling: {
        const int dist = 1 << s;
        const Bytes bytes = phase.bytes * dist / n;
        for (int i = 0; i < n; ++i)
            out.push_back({rank(i), rank(i ^ dist), bytes});
        break;
      }
      case Pattern::XorHalving: {
        Bytes bytes = phase.bytes / 2;
        for (int k = 0; k < s; ++k)
            bytes /= 2;
        const int dist = (n / 2) >> s;
        for (int i = 0; i < n; ++i)
            out.push_back({rank(i), rank(i ^ dist), bytes});
        break;
      }
      case Pattern::IntraNode: {
        const int m = n / gpn_;
        for (int node = 0; node < m; ++node)
            for (int j = 0; j < gpn_; ++j)
                out.push_back({rank(node * gpn_ + j),
                               rank(node * gpn_ + (j + 1) % gpn_),
                               phase.bytes});
        break;
      }
      case Pattern::Rail: {
        const int m = n / gpn_;
        for (int j = 0; j < gpn_; ++j)
            for (int node = 0; node < m; ++node)
                out.push_back({rank(node * gpn_ + j),
                               rank(((node + 1) % m) * gpn_ + j),
                               phase.bytes});
        break;
      }
    }
    DSTRAIN_ASSERT(!out.empty(), "empty collective round");
}

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
