/**
 * @file
 * Closed-form cross-check of collective timing on a generated fabric.
 *
 * For a collective that runs alone and whose concurrent hops never
 * share a resource, the DES time has an alpha-beta closed form: each
 * round costs one route latency (alpha) plus its hop bytes at the
 * route's uncontended rate (beta). Beta is
 * TopologyView::ringBottleneckBandwidth of the ring a phase runs on,
 * and the bandwidth term of every bandwidth-optimal schedule is the
 * per-rank share of collectiveTotalVolume. Hop latencies differ a
 * little across the fabric, so the check is a sandwich: the DES time
 * must lie between the form at the smallest and at the largest hop
 * latency, within a relative 1e-9 of float dust (where every hop has
 * the same latency the band closes to that tolerance). The grid: 49
 * (algorithm, op) cells on four group shapes of a fat-tree:k=4, each
 * cell's schedule first checked to be uncontended.
 *
 * This is the timing oracle for the transfer hop path (routes,
 * launch grouping, completions): a lost or doubled latency, a late
 * launch or a wrong rate moves the DES time out of the band.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <set>

#include "collectives/algorithms.hh"
#include "collectives/volume.hh"

namespace dstrain {
namespace {

constexpr Bytes kPayload = 64e6;
/** Slices of the pipelined ring broadcast/reduce (algorithms.cc). */
constexpr int kPipelineSlices = 8;
constexpr double kRelTol = 1e-9;

/** One phase of a schedule: rounds on one ring, bytes per round. */
struct Phase {
    int rounds;
    Bytes bytes;   ///< summed per-hop bytes over the phase's rounds
    Bps beta;      ///< the phase ring's bottleneck bandwidth
};

int
ceilLog2(int n)
{
    int k = 0;
    while ((1 << k) < n)
        ++k;
    return k;
}

/**
 * The alpha-beta phases of @p algo running @p op over @p group:
 * rounds and critical-path bytes in closed form (the bandwidth-
 * optimal families move collectiveTotalVolume / n per rank).
 */
std::vector<Phase>
alphaBetaPhases(CollectiveAlgo algo, CollectiveOp op,
                const CommGroup &group, const TopologyView &view,
                Bytes bytes)
{
    const int n = group.size();
    const Bps beta = view.ringBottleneckBandwidth(group);
    const Bytes per_rank = collectiveTotalVolume(op, n, bytes) / n;
    switch (algo) {
      case CollectiveAlgo::Ring:
        if (op == CollectiveOp::Broadcast || op == CollectiveOp::Reduce) {
            const int steps = kPipelineSlices + n - 2;
            return {{steps, steps * bytes / kPipelineSlices, beta}};
        }
        return {{op == CollectiveOp::AllReduce ? 2 * (n - 1) : n - 1,
                 per_rank, beta}};
      case CollectiveAlgo::Pairwise:
        return {{op == CollectiveOp::AllReduce ? 2 * (n - 1) : n - 1,
                 per_rank, beta}};
      case CollectiveAlgo::Tree: {
        const int depth = ceilLog2(n);
        switch (op) {
          case CollectiveOp::Broadcast:
          case CollectiveOp::Reduce:
            return {{depth, depth * bytes, beta}};
          case CollectiveOp::AllReduce:
            return {{2 * depth, 2 * depth * bytes, beta}};
          default:  // recursive doubling / halving
            return {{depth, per_rank, beta}};
        }
      }
      case CollectiveAlgo::Hierarchical: {
        const std::vector<int> nodes = view.nodesOf(group);
        const int m = static_cast<int>(nodes.size());
        const int g = n / m;
        const CommGroup local = view.ranksOnNode(group, nodes.front());
        CommGroup rail;
        for (int node : nodes)
            rail.ranks.push_back(view.ranksOnNode(group, node).ranks[0]);
        const Phase intra{g - 1, (g - 1) * bytes / g,
                          g > 1 ? view.ringBottleneckBandwidth(local)
                                : 1.0};
        const int inter_rounds =
            op == CollectiveOp::AllReduce ? 2 * (m - 1) : m - 1;
        const Phase inter{inter_rounds,
                          inter_rounds * bytes / (g * m),
                          view.ringBottleneckBandwidth(rail)};
        switch (op) {
          case CollectiveOp::AllReduce:
            return {intra, inter, intra};
          case CollectiveOp::ReduceScatter:
            return {intra, inter};
          default:
            return {inter, intra};
        }
      }
      case CollectiveAlgo::Auto:
        break;
    }
    ADD_FAILURE() << "no closed form for " << collectiveAlgoName(algo);
    return {};
}

SimTime
alphaBetaTime(const std::vector<Phase> &phases, SimTime alpha)
{
    SimTime t = 0.0;
    for (const Phase &p : phases)
        t += p.rounds * alpha + (p.rounds > 0 ? p.bytes / p.beta : 0.0);
    return t;
}

/** A group shape and the families whose schedules on it are
 * uncontended and have a bottleneck hop in every round. */
struct GridCase {
    const char *name;
    std::vector<int> ranks;
    std::vector<CollectiveAlgo> algos;
    /** Check the rooted ops too (their first and last pipeline or
     * tree rounds use a subset of the hops). */
    bool rooted;
    /** Supported (algorithm, op) cells the shape contributes. */
    int cells;
};

/**
 * gtest prints the parameter in test listings (and so in the ctest
 * names gtest_discover_tests derives) and in failure messages. Without
 * this, it dumps the raw object bytes, whose name and vector pointers
 * move with ASLR and the binary layout, so the test names changed
 * build to build. Prints the group's ranks, e.g. {0,4,8,12}.
 */
void
PrintTo(const GridCase &grid, std::ostream *os)
{
    *os << '{';
    for (std::size_t i = 0; i < grid.ranks.size(); ++i)
        *os << (i ? "," : "") << grid.ranks[i];
    *os << '}';
}

class ClosedFormTest : public testing::TestWithParam<GridCase>
{
  protected:
    static ClusterSpec
    fabricSpec()
    {
        ClusterSpec spec;
        spec.nodes = 4;
        spec.fabric.kind = FabricKind::FatTree;
        spec.fabric.fat_tree_k = 4;
        return spec;
    }
};

TEST_P(ClosedFormTest, DesTimeMatchesAlphaBetaForm)
{
    const GridCase &grid = GetParam();
    const CommGroup group{grid.ranks};
    const CollectiveOp ops[] = {
        CollectiveOp::AllReduce, CollectiveOp::ReduceScatter,
        CollectiveOp::AllGather, CollectiveOp::Broadcast,
        CollectiveOp::Reduce, CollectiveOp::AllToAll};
    int cells = 0;
    for (const CollectiveAlgo algo : grid.algos) {
        for (const CollectiveOp op : ops) {
            if (!grid.rooted && (op == CollectiveOp::Broadcast ||
                                 op == CollectiveOp::Reduce))
                continue;
            Simulation sim;
            Cluster cluster(fabricSpec());
            FlowScheduler flows(sim, cluster.topology());
            TransferManager tm(sim, cluster, flows);
            CollectiveEngine coll(tm);
            const TopologyView view(cluster);
            const CollectiveAlgorithm &impl = collectiveAlgorithm(algo);
            if (!impl.supports(op, group, view))
                continue;
            const std::string cell = std::string(collectiveAlgoName(algo)) +
                                     "/" + collectiveOpName(op);

            // Preconditions of the form, from the schedule the engine
            // runs (one channel, unpinned: the ECMP route of key 0):
            // no two hops of a round share a resource, no hop is
            // slower than its phase's beta, and every round has a hop
            // at beta (the one that sets the round's length).
            const std::vector<CollectiveRound> rounds =
                impl.rounds(op, group, kPayload, group.ranks[0], view);
            const std::vector<Phase> phases =
                alphaBetaPhases(algo, op, group, view, kPayload);
            SimTime alpha_min = std::numeric_limits<SimTime>::max();
            SimTime alpha_max = 0.0;
            std::size_t phase = 0;
            int left = phases.empty() ? 0 : phases[0].rounds;
            for (const CollectiveRound &round : rounds) {
                while (left == 0 && phase + 1 < phases.size())
                    left = phases[++phase].rounds;
                --left;
                const Bps beta = phases[phase].beta;
                std::set<ResourceId> used;
                bool at_beta = false;
                for (const CollectiveHop &hop : round) {
                    const Route &r = cluster.router().routeForFlow(
                        cluster.gpuByRank(hop.src_rank),
                        cluster.gpuByRank(hop.dst_rank), 0);
                    alpha_min = std::min(alpha_min, r.latency);
                    alpha_max = std::max(alpha_max, r.latency);
                    EXPECT_GE(r.rate_cap, beta) << cell;
                    at_beta = at_beta || r.rate_cap == beta;
                    for (ResourceId rid : r.resources)
                        EXPECT_TRUE(used.insert(rid).second)
                            << cell << ": contended round";
                }
                EXPECT_TRUE(at_beta) << cell << ": no bottleneck hop";
            }

            CollectiveOptions opts;
            opts.algorithm = algo;
            opts.channels = 1;
            opts.pin_channels_to_nics = false;
            switch (op) {
              case CollectiveOp::AllReduce:
                coll.allReduce(group, kPayload, nullptr, opts);
                break;
              case CollectiveOp::ReduceScatter:
                coll.reduceScatter(group, kPayload, nullptr, opts);
                break;
              case CollectiveOp::AllGather:
                coll.allGather(group, kPayload, nullptr, opts);
                break;
              case CollectiveOp::Broadcast:
                coll.broadcast(group, group.ranks[0], kPayload, nullptr,
                               opts);
                break;
              case CollectiveOp::Reduce:
                coll.reduce(group, group.ranks[0], kPayload, nullptr,
                            opts);
                break;
              case CollectiveOp::AllToAll:
                coll.allToAll(group, kPayload, nullptr, opts);
                break;
            }
            sim.run();
            ASSERT_EQ(coll.completedCount(), 1u) << cell;
            ASSERT_EQ(coll.usage().front().algo, algo) << cell;

            int modeled_rounds = 0;
            for (const Phase &p : phases)
                modeled_rounds += p.rounds;
            EXPECT_EQ(modeled_rounds, static_cast<int>(rounds.size()))
                << cell;
            const SimTime lo = alphaBetaTime(phases, alpha_min);
            const SimTime hi = alphaBetaTime(phases, alpha_max);
            EXPECT_GE(sim.now(), lo * (1.0 - kRelTol)) << cell;
            EXPECT_LE(sim.now(), hi * (1.0 + kRelTol)) << cell;
            ++cells;
        }
    }
    EXPECT_EQ(cells, grid.cells);
}

constexpr CollectiveAlgo kRing = CollectiveAlgo::Ring;
constexpr CollectiveAlgo kPairwise = CollectiveAlgo::Pairwise;
constexpr CollectiveAlgo kTree = CollectiveAlgo::Tree;
constexpr CollectiveAlgo kHier = CollectiveAlgo::Hierarchical;

INSTANTIATE_TEST_SUITE_P(
    FatTreeGroups, ClosedFormTest,
    testing::Values(
        // One node: the NVLink mesh, every pair a private link.
        GridCase{"OneNode", {0, 1, 2, 3}, {kRing, kPairwise, kTree}, true,
                 14},
        // Two nodes, one rank each: every hop crosses the fabric.
        GridCase{"TwoNodes", {0, 4}, {kRing, kPairwise, kTree, kHier},
                 true, 17},
        // Four nodes, one rank each, over two edge switches. Only the
        // neighbor rings stay off shared uplinks: pairwise and tree
        // rounds send two flows up one edge, where ECMP may pick the
        // same aggregation switch for both.
        GridCase{"FourNodes", {0, 4, 8, 12}, {kRing, kHier}, true, 8},
        // Two nodes, one rank per socket: each rank reaches the
        // fabric through its own NIC. Mixed NVLink/RoCE rounds, so
        // only schedules whose every round has a RoCE hop qualify.
        GridCase{"TwoNodesBySocket", {0, 2, 4, 6},
                 {kRing, kPairwise, kHier}, false, 10}),
    [](const testing::TestParamInfo<GridCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dstrain
