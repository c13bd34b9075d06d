/**
 * @file
 * Tests for the topology view and the pluggable collective-algorithm
 * library: node-major ordering, ring bottlenecks, channel
 * auto-selection, per-algorithm byte conservation against the
 * closed-form volumes, the support matrix, the `auto` selection
 * policy and its fallback chain, and the `--collective-algo` grammar.
 */

#include <gtest/gtest.h>

#include "collectives/algorithms.hh"
#include "collectives/volume.hh"

namespace dstrain {
namespace {

ClusterSpec
dualSpec()
{
    ClusterSpec spec;
    spec.nodes = 2;
    return spec;
}

Bytes
totalHopBytes(const CollectiveSchedule &schedule)
{
    Bytes total = 0.0;
    CollectiveRound round;
    for (std::size_t r = 0; r < schedule.size(); ++r) {
        schedule.round(r, round);
        for (const CollectiveHop &hop : round)
            total += hop.bytes;
    }
    return total;
}

Bytes
interNodeHopBytes(const CollectiveSchedule &schedule,
                  const TopologyView &view)
{
    Bytes total = 0.0;
    CollectiveRound round;
    for (std::size_t r = 0; r < schedule.size(); ++r) {
        schedule.round(r, round);
        for (const CollectiveHop &hop : round)
            if (view.nodeOfRank(hop.src_rank) !=
                view.nodeOfRank(hop.dst_rank))
                total += hop.bytes;
    }
    return total;
}

TEST(TopologyViewTest, NodeMajorOrderingStable)
{
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    CommGroup shuffled;
    shuffled.ranks = {5, 0, 7, 2, 4, 1, 6, 3};
    const CommGroup ordered = view.orderNodeMajor(shuffled);
    // Node-0 ranks first, preserving their relative order.
    EXPECT_EQ(ordered.ranks,
              (std::vector<int>{0, 2, 1, 3, 5, 7, 4, 6}));
}

TEST(TopologyViewTest, InterNodeHopCounts)
{
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    EXPECT_EQ(view.interNodeHops(CommGroup::worldOf(8)), 2);
    CommGroup intra;
    intra.ranks = {0, 1, 2, 3};
    EXPECT_EQ(view.interNodeHops(intra), 0);
    CommGroup alternating;
    alternating.ranks = {0, 4, 1, 5};  // worst case: every hop crosses
    EXPECT_EQ(view.interNodeHops(alternating), 4);
}

TEST(TopologyViewTest, BottleneckIsNvlinkIntraNode)
{
    Cluster cluster(ClusterSpec{});
    TopologyView view(cluster);
    // NVLink pair effective bandwidth.
    EXPECT_NEAR(view.ringBottleneckBandwidth(CommGroup::worldOf(4)),
                80e9, 1e6);
}

TEST(TopologyViewTest, BottleneckIsRoceAcrossNodes)
{
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    // The GPU-to-remote-GPU route: degraded PCIe SerDes hops,
    // 26.24 GBps * 0.248.
    EXPECT_NEAR(view.ringBottleneckBandwidth(CommGroup::worldOf(8)),
                32e9 * 0.82 * 0.248, 1e7);
}

TEST(TopologyViewTest, NodeDecomposition)
{
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    const CommGroup world = CommGroup::worldOf(8);
    EXPECT_EQ(view.nodesOf(world), (std::vector<int>{0, 1}));
    EXPECT_TRUE(view.spansNodes(world));
    EXPECT_EQ(view.ranksOnNode(world, 1).ranks,
              (std::vector<int>{4, 5, 6, 7}));
    EXPECT_TRUE(view.uniformRanksPerNode(world));

    CommGroup lopsided;
    lopsided.ranks = {0, 1, 2, 4};  // 3 ranks on node 0, 1 on node 1
    EXPECT_FALSE(view.uniformRanksPerNode(lopsided));

    CommGroup intra;
    intra.ranks = {0, 1, 2, 3};
    EXPECT_FALSE(view.spansNodes(intra));
    EXPECT_EQ(view.nodesOf(intra), (std::vector<int>{0}));
}

TEST(TopologyViewTest, ResolveChannelsAutoPolicy)
{
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    CommGroup intra;
    intra.ranks = {0, 1, 2, 3};
    // Auto: one ring intra-node, one per NIC across nodes.
    EXPECT_EQ(resolveChannels(intra, 0, view), 1);
    EXPECT_EQ(resolveChannels(CommGroup::worldOf(8), 0, view), 2);
    // An explicit request always wins.
    EXPECT_EQ(resolveChannels(CommGroup::worldOf(8), 3, view), 3);
}

TEST(CollectiveAlgorithmTest, RoundsConserveClosedFormVolume)
{
    // Every (algorithm, op, group) combination the library supports
    // must put exactly collectiveTotalVolume bytes on the wire —
    // ring, pairwise, tree and hierarchical schedules all move the
    // same logical payload, only along different routes.
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    const Bytes share = 1e9;

    const CollectiveAlgo algos[] = {
        CollectiveAlgo::Ring, CollectiveAlgo::Pairwise,
        CollectiveAlgo::Tree, CollectiveAlgo::Hierarchical};
    const CollectiveOp ops[] = {
        CollectiveOp::AllReduce, CollectiveOp::ReduceScatter,
        CollectiveOp::AllGather, CollectiveOp::Broadcast,
        CollectiveOp::Reduce,    CollectiveOp::AllToAll};
    CommGroup three;
    three.ranks = {0, 1, 2};
    const CommGroup groups[] = {CommGroup::worldOf(8),
                                CommGroup::worldOf(4), three};

    int combos = 0;
    for (const CollectiveAlgo algo : algos) {
        const CollectiveAlgorithm &impl = collectiveAlgorithm(algo);
        for (const CollectiveOp op : ops) {
            for (const CommGroup &g : groups) {
                if (!impl.supports(op, g, view))
                    continue;
                const CollectiveSchedule schedule =
                    impl.schedule(op, g, share, g.ranks[0], view);
                EXPECT_NEAR(totalHopBytes(schedule),
                            collectiveTotalVolume(op, g.size(), share),
                            share * 1e-9)
                    << impl.name() << " " << collectiveOpName(op)
                    << " n=" << g.size();
                ++combos;
            }
        }
    }
    // 4 algorithms x up to 6 ops x 3 groups, minus the unsupported
    // cells — make sure the sweep actually exercised the library.
    EXPECT_GE(combos, 30);
}

TEST(CollectiveAlgorithmTest, HierarchicalCutsInterNodeBytes)
{
    // The point of the two-level schedule: on 2 nodes x 4 GPUs the
    // flat ring ships 2(N-1)/N = 3.5 payloads across RoCE where the
    // hierarchical all-reduce ships 2(M-1) = 2. Both must match the
    // collectiveInterNodeBytes closed form exactly.
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    const CommGroup world = CommGroup::worldOf(8);
    const Bytes share = 1e9;

    for (const CollectiveOp op :
         {CollectiveOp::AllReduce, CollectiveOp::ReduceScatter,
          CollectiveOp::AllGather}) {
        for (const CollectiveAlgo algo :
             {CollectiveAlgo::Ring, CollectiveAlgo::Hierarchical}) {
            const CollectiveAlgorithm &impl = collectiveAlgorithm(algo);
            const CommGroup ordered = view.orderNodeMajor(world);
            const CollectiveSchedule schedule =
                impl.schedule(op, ordered, share, 0, view);
            EXPECT_NEAR(interNodeHopBytes(schedule, view),
                        collectiveInterNodeBytes(op, algo, 2, 4, share),
                        share * 1e-9)
                << impl.name() << " " << collectiveOpName(op);
        }
    }
    EXPECT_LT(collectiveInterNodeBytes(CollectiveOp::AllReduce,
                                       CollectiveAlgo::Hierarchical, 2,
                                       4, share),
              collectiveInterNodeBytes(CollectiveOp::AllReduce,
                                       CollectiveAlgo::Ring, 2, 4,
                                       share));
}

TEST(CollectiveAlgorithmTest, SupportMatrix)
{
    Cluster cluster(dualSpec());
    TopologyView view(cluster);
    const CommGroup world8 = CommGroup::worldOf(8);
    const CommGroup world4 = CommGroup::worldOf(4);
    CommGroup three;
    three.ranks = {0, 1, 2};
    CommGroup lopsided;
    lopsided.ranks = {0, 1, 2, 4};

    const CollectiveAlgorithm &ring =
        collectiveAlgorithm(CollectiveAlgo::Ring);
    const CollectiveAlgorithm &pairwise =
        collectiveAlgorithm(CollectiveAlgo::Pairwise);
    const CollectiveAlgorithm &tree =
        collectiveAlgorithm(CollectiveAlgo::Tree);
    const CollectiveAlgorithm &hier =
        collectiveAlgorithm(CollectiveAlgo::Hierarchical);

    // Ring covers everything except all-to-all.
    EXPECT_TRUE(ring.supports(CollectiveOp::Broadcast, three, view));
    EXPECT_FALSE(ring.supports(CollectiveOp::AllToAll, world4, view));

    // Pairwise is the canonical all-to-all but has no rooted ops.
    EXPECT_TRUE(pairwise.supports(CollectiveOp::AllToAll, world4, view));
    EXPECT_FALSE(
        pairwise.supports(CollectiveOp::Broadcast, world4, view));
    EXPECT_FALSE(pairwise.supports(CollectiveOp::Reduce, world4, view));

    // Tree: rooted ops and all-reduce at any size; recursive
    // halving/doubling needs a power-of-two group.
    EXPECT_TRUE(tree.supports(CollectiveOp::AllReduce, three, view));
    EXPECT_TRUE(
        tree.supports(CollectiveOp::ReduceScatter, world4, view));
    EXPECT_FALSE(
        tree.supports(CollectiveOp::ReduceScatter, three, view));
    EXPECT_FALSE(tree.supports(CollectiveOp::AllGather, three, view));

    // Hierarchical needs a uniform multi-node group and only runs
    // the bandwidth ops.
    EXPECT_TRUE(hier.supports(CollectiveOp::AllReduce, world8, view));
    EXPECT_FALSE(hier.supports(CollectiveOp::AllReduce, world4, view));
    EXPECT_FALSE(
        hier.supports(CollectiveOp::AllReduce, lopsided, view));
    EXPECT_FALSE(hier.supports(CollectiveOp::Broadcast, world8, view));
}

TEST(CollectiveAlgorithmTest, AutoPolicyIsTopologyAware)
{
    Cluster dual(dualSpec());
    TopologyView dual_view(dual);
    Cluster single(ClusterSpec{});
    TopologyView single_view(single);
    const Bytes big = 1e9;
    const Bytes tiny = 4096.0;

    // Multi-node bandwidth ops take the two-level decomposition.
    EXPECT_EQ(chooseCollectiveAlgorithm(CollectiveOp::AllReduce,
                                        CommGroup::worldOf(8), big,
                                        dual_view),
              CollectiveAlgo::Hierarchical);
    // Intra-node stays on the ring for big payloads...
    EXPECT_EQ(chooseCollectiveAlgorithm(CollectiveOp::AllReduce,
                                        CommGroup::worldOf(4), big,
                                        single_view),
              CollectiveAlgo::Ring);
    // ...but small payloads are latency-bound: log2 N tree rounds.
    EXPECT_EQ(chooseCollectiveAlgorithm(CollectiveOp::AllReduce,
                                        CommGroup::worldOf(4), tiny,
                                        single_view),
              CollectiveAlgo::Tree);
    // All-to-all is always pairwise; rooted ops tree beyond 2 ranks.
    EXPECT_EQ(chooseCollectiveAlgorithm(CollectiveOp::AllToAll,
                                        CommGroup::worldOf(4), big,
                                        single_view),
              CollectiveAlgo::Pairwise);
    EXPECT_EQ(chooseCollectiveAlgorithm(CollectiveOp::Broadcast,
                                        CommGroup::worldOf(4), big,
                                        single_view),
              CollectiveAlgo::Tree);
    CommGroup pair;
    pair.ranks = {0, 1};
    EXPECT_EQ(chooseCollectiveAlgorithm(CollectiveOp::Broadcast, pair,
                                        big, single_view),
              CollectiveAlgo::Ring);
}

TEST(CollectiveAlgorithmTest, ResolutionFallsBackDeterministically)
{
    Cluster single(ClusterSpec{});
    TopologyView view(single);
    const CommGroup world4 = CommGroup::worldOf(4);
    CommGroup three;
    three.ranks = {0, 1, 2};

    // Hierarchical cannot run intra-node: falls back to ring.
    EXPECT_EQ(resolveCollectiveAlgorithm(CollectiveOp::AllGather,
                                         world4, 1e9,
                                         CollectiveAlgo::Hierarchical,
                                         view),
              CollectiveAlgo::Ring);
    // Tree reduce-scatter needs a power of two: falls back to ring.
    EXPECT_EQ(resolveCollectiveAlgorithm(CollectiveOp::ReduceScatter,
                                         three, 1e9,
                                         CollectiveAlgo::Tree, view),
              CollectiveAlgo::Ring);
    // Ring cannot run all-to-all: falls back to pairwise.
    EXPECT_EQ(resolveCollectiveAlgorithm(CollectiveOp::AllToAll, world4,
                                         1e9, CollectiveAlgo::Ring,
                                         view),
              CollectiveAlgo::Pairwise);
    // A supported explicit request sticks.
    EXPECT_EQ(resolveCollectiveAlgorithm(CollectiveOp::AllReduce,
                                         world4, 1e9,
                                         CollectiveAlgo::Pairwise,
                                         view),
              CollectiveAlgo::Pairwise);
    // Auto resolves to a concrete supported algorithm.
    const CollectiveAlgo resolved = resolveCollectiveAlgorithm(
        CollectiveOp::AllReduce, world4, 1e9, CollectiveAlgo::Auto,
        view);
    EXPECT_NE(resolved, CollectiveAlgo::Auto);
    EXPECT_TRUE(collectiveAlgorithm(resolved).supports(
        CollectiveOp::AllReduce, world4, view));
}

TEST(CollectiveAlgorithmTest, ParseAlgoNames)
{
    EXPECT_EQ(parseCollectiveAlgo("ring"), CollectiveAlgo::Ring);
    EXPECT_EQ(parseCollectiveAlgo("pairwise"), CollectiveAlgo::Pairwise);
    EXPECT_EQ(parseCollectiveAlgo("tree"), CollectiveAlgo::Tree);
    EXPECT_EQ(parseCollectiveAlgo("hierarchical"),
              CollectiveAlgo::Hierarchical);
    EXPECT_EQ(parseCollectiveAlgo("auto"), CollectiveAlgo::Auto);
    EXPECT_FALSE(parseCollectiveAlgo("mesh").has_value());
    EXPECT_FALSE(parseCollectiveAlgo("Ring").has_value());
}

TEST(CollectiveAlgorithmTest, ParseSpecGrammar)
{
    std::string err;
    auto spec = parseCollectiveAlgoSpec(
        "ring,allreduce=hierarchical,all-to-all=pairwise", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->default_algo, CollectiveAlgo::Ring);
    EXPECT_EQ(spec->requestedFor(CollectiveOp::AllReduce),
              CollectiveAlgo::Hierarchical);
    EXPECT_EQ(spec->requestedFor(CollectiveOp::AllToAll),
              CollectiveAlgo::Pairwise);
    // Un-overridden ops fall through to the default.
    EXPECT_EQ(spec->requestedFor(CollectiveOp::AllGather),
              CollectiveAlgo::Ring);

    // A bare name sets the default; both op spellings parse.
    spec = parseCollectiveAlgoSpec("tree", &err);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->requestedFor(CollectiveOp::Reduce),
              CollectiveAlgo::Tree);
    spec = parseCollectiveAlgoSpec("reduce-scatter=tree", &err);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->requestedFor(CollectiveOp::ReduceScatter),
              CollectiveAlgo::Tree);

    // The empty spec keeps the shipped (all-ring) defaults.
    spec = parseCollectiveAlgoSpec("", &err);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->default_algo, CollectiveAlgo::Ring);
}

TEST(CollectiveAlgorithmTest, ParseSpecRejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseCollectiveAlgoSpec("mesh", &err).has_value());
    EXPECT_NE(err.find("mesh"), std::string::npos);
    EXPECT_FALSE(
        parseCollectiveAlgoSpec("gemm=ring", &err).has_value());
    EXPECT_NE(err.find("gemm"), std::string::npos);
    EXPECT_FALSE(
        parseCollectiveAlgoSpec("allreduce=", &err).has_value());
    EXPECT_FALSE(parseCollectiveAlgoSpec("ring,,tree", &err).has_value());
    EXPECT_NE(err.find("empty"), std::string::npos);
}

} // namespace
} // namespace dstrain
