/**
 * @file
 * Hop classes (FlowScheduler::startHops()) against their per-hop
 * twins: the same hops started as plain flows, one start() each, in
 * the same batches. A class must be unobservable: every hop lands at
 * the bitwise-same instant and in the same callback order, and every
 * resource's rate log carries the same rates, bytes and stream
 * buckets, whether the class ran whole, was filled at class level,
 * was materialized, or never formed.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"

namespace dstrain {
namespace {

/** Bucket width of the armed telemetry streams. */
constexpr SimTime kBucket = 1e-3;

/** One scheduler run; classes on or off. */
struct Twin {
    Twin(int nodes, bool classes, bool verify)
        : cluster(spec(nodes)),
          flows(sim, cluster.topology(), FlowSchedulerOptions{verify}),
          classes(classes)
    {
        for (Resource &r : cluster.topology().resources())
            r.log.armStream(0.0, kBucket);
    }

    static ClusterSpec
    spec(int nodes)
    {
        ClusterSpec s;
        s.nodes = nodes;
        return s;
    }

    /** Start one hop per (src, dst) rank pair, @p bytes each, as one
     * hop set (classes) or as plain flows. Landings record @p label. */
    void
    hops(const std::vector<std::pair<int, int>> &pairs, Bytes bytes,
         int label)
    {
        std::vector<const Route *> routes;
        for (const auto &[a, b] : pairs)
            routes.push_back(&cluster.router().route(
                cluster.gpuByRank(a), cluster.gpuByRank(b)));
        if (classes) {
            const std::vector<Bps> caps(routes.size(), 0.0);
            HopSetSpec spec;
            spec.routes = routes;
            spec.rate_caps = caps;
            spec.bytes = bytes;
            spec.on_complete = [this, label](std::uint32_t n) {
                for (std::uint32_t i = 0; i < n; ++i)
                    landings.emplace_back(sim.now(), label);
            };
            flows.startHops(std::move(spec));
            return;
        }
        for (const Route *route : routes) {
            FlowSpec spec;
            spec.route = route;
            spec.bytes = bytes;
            spec.on_complete = [this, label] {
                landings.emplace_back(sim.now(), label);
            };
            flows.start(std::move(spec));
        }
    }

    /** A plain flow from rank @p a to rank @p b; landing @p label. */
    FlowId
    plain(int a, int b, Bytes bytes, int label)
    {
        return plainOn(cluster.router().route(cluster.gpuByRank(a),
                                              cluster.gpuByRank(b)),
                       bytes, label);
    }

    /** A plain flow on @p route, capped at @p rate_cap (0 = none). */
    FlowId
    plainOn(const Route &route, Bytes bytes, int label, Bps rate_cap = 0.0)
    {
        FlowSpec spec;
        spec.route = &route;
        spec.bytes = bytes;
        spec.rate_cap = rate_cap;
        spec.on_complete = [this, label] {
            landings.emplace_back(sim.now(), label);
        };
        return flows.start(std::move(spec));
    }

    Simulation sim;
    Cluster cluster;
    FlowScheduler flows;
    bool classes;
    std::vector<std::pair<SimTime, int>> landings;
};

/** Every observable of @p a equals @p b's, bitwise. */
void
expectTwins(const Twin &a, const Twin &b, const std::string &when)
{
    ASSERT_EQ(a.landings, b.landings) << when;
    ASSERT_EQ(a.flows.activeCount(), b.flows.activeCount()) << when;
    // The counters a class keeps counting per hop: the same solves,
    // over the same regions, with the same log notifications.
    const FlowScheduler::Stats &sa = a.flows.stats();
    const FlowScheduler::Stats &sb = b.flows.stats();
    ASSERT_EQ(sa.recomputes, sb.recomputes) << when;
    ASSERT_EQ(sa.region_flows, sb.region_flows) << when;
    ASSERT_EQ(sa.region_peak, sb.region_peak) << when;
    ASSERT_EQ(sa.rate_updates, sb.rate_updates) << when;
    ASSERT_EQ(sa.fast_starts, sb.fast_starts) << when;
    ASSERT_EQ(sa.fast_finishes, sb.fast_finishes) << when;
    ASSERT_EQ(sa.batched_events, sb.batched_events) << when;
    const auto &ra = a.cluster.topology().resources();
    const auto &rb = b.cluster.topology().resources();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(ra[i].log.currentRate(), rb[i].log.currentRate())
            << when << ": rate of resource " << i;
        ASSERT_EQ(ra[i].log.totalBytes(), rb[i].log.totalBytes())
            << when << ": bytes of resource " << i;
        ASSERT_EQ(ra[i].log.streamValues(), rb[i].log.streamValues())
            << when << ": stream buckets of resource " << i;
    }
}

/** Drive a class twin and a per-hop twin through @p script, compare
 * them after every step and after the drain. @return the class
 * twin's scheduler counters. */
template <typename Script>
FlowScheduler::Stats
runTwins(int nodes, bool verify, Script script)
{
    Twin cls(nodes, true, verify);
    Twin hop(nodes, false, verify);
    script(cls, hop, [&](const std::string &when) {
        expectTwins(cls, hop, when);
    });
    cls.sim.run();
    hop.sim.run();
    cls.flows.finalizeLogs();
    hop.flows.finalizeLogs();
    expectTwins(cls, hop, "after the drain");
    EXPECT_EQ(cls.flows.activeCount(), 0u);
    EXPECT_EQ(hop.flows.stats().class_starts, 0u);
    return cls.flows.stats();
}

/** Run both twins up to @p t. */
void
runUntil(Twin &a, Twin &b, SimTime t)
{
    a.sim.runUntil(t);
    b.sim.runUntil(t);
}

/** A 2-node ring round split as the engine splits it: the NVLink hops
 * (one launch group) and the two RoCE hops (another). */
const std::vector<std::pair<int, int>> kNvlinkHops = {
    {0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}};
const std::vector<std::pair<int, int>> kRoceHops = {{3, 4}, {7, 0}};

/**
 * Two channels' rounds on the same links, as in a two-channel ring:
 * the first channel's NVLink class is fast-admitted, the second
 * channel's fails admission whole and shares the first one's links,
 * so the batch's solve fills the two classes once, at class level.
 */
void
twoChannelRounds(Twin &a, Twin &b, const auto &check, int rounds)
{
    for (int r = 0; r < rounds; ++r) {
        for (Twin *t : {&a, &b}) {
            for (int ch = 0; ch < 2; ++ch) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops(kNvlinkHops, 2e9, 10 * r + ch);
            }
            FlowScheduler::ScopedBatch batch(t->flows);
            t->hops(kRoceHops, 2e9, 10 * r + 5);
        }
        check("round " + std::to_string(r) + " started");
        runUntil(a, b, 0.5 * (r + 1));
        check("round " + std::to_string(r) + " ran");
    }
}

TEST(HopClassTest, ClassMatchesPerHopTwinBitwise)
{
    const FlowScheduler::Stats s = runTwins(
        2, false, [](Twin &a, Twin &b, const auto &check) {
            twoChannelRounds(a, b, check, 3);
        });
    // Three sets a round, all classes; the shared links were filled
    // at class level and no class had to split.
    EXPECT_EQ(s.class_starts, 9u);
    EXPECT_EQ(s.class_hops, 42u);
    EXPECT_GT(s.class_solves, 0u);
    EXPECT_EQ(s.materializations, 0u);
    EXPECT_GT(s.fast_starts, 0u);
}

TEST(HopClassTest, OracleAgreesWithClassLevelFills)
{
    // Verify mode defers every start, fills the classes at class level
    // and checks each member against the per-hop from-scratch oracle
    // (materializing the class first) after every event.
    const FlowScheduler::Stats s = runTwins(
        2, true, [](Twin &a, Twin &b, const auto &check) {
            twoChannelRounds(a, b, check, 2);
        });
    EXPECT_GT(s.class_solves, 0u);
    EXPECT_GT(s.materializations, 0u);
    EXPECT_GT(s.verified_solves, 0u);
}

TEST(HopClassTest, PlainFlowJoiningAMemberMaterializesTheClass)
{
    const FlowScheduler::Stats s = runTwins(
        2, false, [](Twin &a, Twin &b, const auto &check) {
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops(kNvlinkHops, 4e9, 1);
            }
            runUntil(a, b, 0.01);
            check("class running");
            // Mid-flight, a plain flow lands on member 2's NVLink: no
            // slack is left there, so it solves a component holding a
            // class and a plain flow.
            a.plain(2, 3, 1e9, 2);
            b.plain(2, 3, 1e9, 2);
            check("plain flow joined");
        });
    EXPECT_EQ(s.class_starts, 1u);
    EXPECT_EQ(s.materializations, 1u);
}

TEST(HopClassTest, MixedAdmissionStartsPerHop)
{
    const FlowScheduler::Stats s = runTwins(
        2, false, [](Twin &a, Twin &b, const auto &check) {
            // A class already runs at full rate on one of the set's
            // NVLinks (and on one the set does not use): that member
            // fails fast admission while the other five pass, so the
            // set starts hop by hop.
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops({{1, 2}, {3, 0}}, 4e9, 1);
            }
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops(kNvlinkHops, 2e9, 2);
            }
            check("set started");
        });
    EXPECT_EQ(s.class_starts, 1u);
    EXPECT_EQ(s.class_hops, 2u);
}

TEST(HopClassTest, PlainCrosserSplitsTheRun)
{
    const FlowScheduler::Stats s = runTwins(
        2, false, [](Twin &a, Twin &b, const auto &check) {
            // A plain flow on member 1's NVLink: members 0 and 1 start
            // plain (a run of one is a plain flow), members 2-5 run as
            // a class.
            a.plain(1, 2, 4e9, 1);
            b.plain(1, 2, 4e9, 1);
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops(kNvlinkHops, 2e9, 2);
            }
            check("set started");
        });
    EXPECT_EQ(s.class_starts, 1u);
    EXPECT_EQ(s.class_hops, 4u);
    EXPECT_EQ(s.materializations, 0u);
}

TEST(HopClassTest, CapacityChangeMaterializesCrossingClasses)
{
    const FlowScheduler::Stats s = runTwins(
        2, false, [](Twin &a, Twin &b, const auto &check) {
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops(kNvlinkHops, 4e9, 1);
            }
            runUntil(a, b, 0.01);
            // Halve the NVLink under member 0 mid-flight.
            const Route &r = a.cluster.router().route(
                a.cluster.gpuByRank(0), a.cluster.gpuByRank(1));
            const ResourceId rid = r.resources.front();
            for (Twin *t : {&a, &b}) {
                const Bps cap =
                    0.5 *
                    t->cluster.topology().resource(rid).nominal_capacity;
                t->flows.setCapacities({{rid, cap}});
            }
            check("capacity halved");
        });
    EXPECT_EQ(s.materializations, 1u);
}

TEST(HopClassTest, PartialSeedsReSolveOnlyTheirSlices)
{
    // A slow flow shares the first link of one RoCE member and is
    // cancelled: the per-hop solve re-solves that member's component
    // alone, so the class materializes instead of filling every
    // slice.
    const FlowScheduler::Stats s = runTwins(
        2, false, [](Twin &a, Twin &b, const auto &check) {
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops(kRoceHops, 2e9, 1);
            }
            FlowId ids[2];
            int i = 0;
            for (Twin *t : {&a, &b}) {
                const Topology &topo = t->cluster.topology();
                const ComponentId nic =
                    topo.componentsOfKind(ComponentKind::Nic, 0).front();
                ids[i++] = t->plainOn(
                    t->cluster.router().route(t->cluster.gpuByRank(3), nic),
                    1e9, 2, 1e6);
            }
            check("slow flow admitted");
            runUntil(a, b, 0.01);
            EXPECT_TRUE(a.flows.cancel(ids[0]));
            EXPECT_TRUE(b.flows.cancel(ids[1]));
            check("slow flow cancelled");
        });
    EXPECT_EQ(s.class_starts, 1u);
    EXPECT_EQ(s.class_solves, 0u);
    EXPECT_EQ(s.materializations, 1u);
}

TEST(HopClassTest, DegenerateHopsLandOneByOne)
{
    const FlowScheduler::Stats s = runTwins(
        1, false, [](Twin &a, Twin &b, const auto &check) {
            for (Twin *t : {&a, &b}) {
                FlowScheduler::ScopedBatch batch(t->flows);
                t->hops({{0, 1}, {1, 2}, {2, 3}}, 0.5, 7);
            }
            check("zero-byte set started");
        });
    EXPECT_EQ(s.class_starts, 0u);
}

} // namespace
} // namespace dstrain
