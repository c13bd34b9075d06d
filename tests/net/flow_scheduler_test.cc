/**
 * @file
 * Tests for the max-min fair flow scheduler: single-flow timing,
 * fair sharing, per-flow caps, extra resources, and conservation
 * properties under randomized workloads.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "util/rng.hh"

#if defined(__SANITIZE_ADDRESS__)
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace dstrain {
namespace {

/** Heap bytes in use: arena chunks plus mmap()ed large blocks (the
 * sanitizer allocator's count under ASan, which bypasses malloc). */
std::size_t
heapInUse()
{
#if defined(__SANITIZE_ADDRESS__)
    return __sanitizer_get_current_allocated_bytes();
#else
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
#endif
}

/** Fixture: a single-node cluster and a scheduler. */
class FlowSchedulerTest : public testing::Test
{
  protected:
    FlowSchedulerTest()
        : cluster_(ClusterSpec{}), flows_(sim_, cluster_.topology())
    {
    }

    const Route *
    gpuRoute(int a, int b)
    {
        return &cluster_.router().route(cluster_.gpuByRank(a),
                                        cluster_.gpuByRank(b));
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
};

TEST_F(FlowSchedulerTest, SingleFlowFinishesAtCapRate)
{
    // NVLink pair: 100 GBps * 0.8 efficiency = 80 GBps.
    bool done = false;
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    spec.on_complete = [&] { done = true; };
    flows_.start(std::move(spec));
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, TwoFlowsShareFairly)
{
    int done = 0;
    for (int i = 0; i < 2; ++i) {
        FlowSpec spec;
        spec.route = gpuRoute(0, 1);
        spec.bytes = 40e9;
        spec.on_complete = [&] { ++done; };
        flows_.start(std::move(spec));
    }
    sim_.run();
    EXPECT_EQ(done, 2);
    // 80 GB total over an 80 GBps link shared: 1 second.
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ShorterFlowFreesCapacity)
{
    // Flow A: 20 GB, flow B: 60 GB on the same 80 GBps link.
    // Shared at 40 each: A done at 0.5 s; B then runs at 80:
    // remaining 40 GB -> finishes at 1.0 s.
    SimTime a_done = 0.0;
    SimTime b_done = 0.0;
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 20e9;
    a.on_complete = [&] { a_done = sim_.now(); };
    flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(0, 1);
    b.bytes = 60e9;
    b.on_complete = [&] { b_done = sim_.now(); };
    flows_.start(std::move(b));
    sim_.run();
    EXPECT_NEAR(a_done, 0.5, 1e-6);
    EXPECT_NEAR(b_done, 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, RateCapHonored)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 10e9;
    spec.rate_cap = 10e9;  // cap below the 80 GBps link
    flows_.start(std::move(spec));
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ZeroByteFlowCompletesAsync)
{
    bool done = false;
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 0.0;
    spec.on_complete = [&] { done = true; };
    flows_.start(std::move(spec));
    EXPECT_FALSE(done);  // not synchronous
    sim_.run();
    EXPECT_TRUE(done);
}

TEST_F(FlowSchedulerTest, IndependentLinksDoNotContend)
{
    // 0->1 and 2->3 use different NVLink pairs.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 80e9;
    flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(2, 3);
    b.bytes = 80e9;
    flows_.start(std::move(b));
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ExtraResourceConstrains)
{
    // Two flows on disjoint links but sharing one extra resource.
    ResourceId shared = cluster_.topology().addResource(
        LinkClass::IodXbar, 40e9, "test-xbar", 0, -1);
    for (int pair = 0; pair < 2; ++pair) {
        const ResourceId extra[] = {shared};
        FlowSpec spec;
        spec.route = gpuRoute(pair * 2, pair * 2 + 1);
        spec.bytes = 20e9;
        spec.extra_resources = extra;
        flows_.start(std::move(spec));
    }
    sim_.run();
    // 40 GB total through a 40 GBps pool: 1 second.
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, RateLogsRecordTraffic)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 8e9;
    flows_.start(std::move(spec));
    sim_.run();
    flows_.finalizeLogs();

    Bytes total = 0.0;
    for (const Resource &r : cluster_.topology().resources())
        if (r.cls == LinkClass::NvLink)
            total += r.log.totalBytes();
    EXPECT_NEAR(total, 8e9, 1e3);
}

TEST_F(FlowSchedulerTest, IsActiveTracksFlowLifetime)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const FlowId id = flows_.start(std::move(spec));
    EXPECT_TRUE(flows_.isActive(id));
    EXPECT_GT(flows_.currentRate(id), 0.0);
    sim_.run();
    EXPECT_FALSE(flows_.isActive(id));
    EXPECT_DOUBLE_EQ(flows_.currentRate(id), 0.0);
    EXPECT_FALSE(flows_.isActive(id + 1000));  // never issued
}

TEST_F(FlowSchedulerTest, ZeroByteFlowIsNeverActive)
{
    // A degenerate transfer returns a valid id that behaves exactly
    // like a finished flow: inactive, rate 0.
    bool done = false;
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 0.0;
    spec.on_complete = [&] { done = true; };
    const FlowId id = flows_.start(std::move(spec));
    EXPECT_FALSE(flows_.isActive(id));
    EXPECT_DOUBLE_EQ(flows_.currentRate(id), 0.0);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(flows_.isActive(id));
}

TEST_F(FlowSchedulerTest, MemoryFollowsLiveFlowsNotFlowsStarted)
{
    // A million start/finish cycles of one flow: the scheduler's
    // memory must stay that of one live flow, not grow per id issued.
    const auto cycle = [&] {
        FlowSpec spec;
        spec.route = gpuRoute(0, 1);
        spec.bytes = 1e6;
        flows_.start(std::move(spec));
        sim_.run();
    };
    for (int i = 0; i < 1000; ++i)  // warm every reusable buffer
        cycle();
    const std::size_t before = heapInUse();
    for (int i = 0; i < 1000000; ++i)
        cycle();
    EXPECT_LE(heapInUse(), before + 64 * 1024);
    EXPECT_EQ(flows_.activeCount(), 0u);
}

TEST_F(FlowSchedulerTest, StaleIdReadsInactiveAfterSlotReuse)
{
    // The second flow reuses the first one's slot; the first id must
    // still read finished, and cancelling it must not touch the
    // second flow.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 8e9;
    const FlowId first = flows_.start(std::move(a));
    sim_.run();
    FlowSpec b;
    b.route = gpuRoute(0, 1);
    b.bytes = 80e9;
    const FlowId second = flows_.start(std::move(b));
    ASSERT_NE(first, second);
    EXPECT_FALSE(flows_.isActive(first));
    EXPECT_DOUBLE_EQ(flows_.currentRate(first), 0.0);
    EXPECT_FALSE(flows_.cancel(first));
    EXPECT_TRUE(flows_.isActive(second));
    EXPECT_GT(flows_.currentRate(second), 0.0);
    EXPECT_EQ(flows_.activeCount(), 1u);
    sim_.run();
    EXPECT_FALSE(flows_.isActive(second));
}

TEST_F(FlowSchedulerTest, UncontendedStartsTakeTheFastPath)
{
    // Flows on disjoint links never contend: after the first full
    // recompute no further ones are needed, and finishes are
    // incremental too.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 80e9;
    flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(2, 3);
    b.bytes = 40e9;
    flows_.start(std::move(b));
    EXPECT_EQ(flows_.stats().recomputes, 0u);
    EXPECT_EQ(flows_.stats().fast_starts, 2u);
    sim_.run();
    EXPECT_EQ(flows_.stats().recomputes, 0u);
    EXPECT_EQ(flows_.stats().fast_finishes, 2u);
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ContendedStartForcesRecompute)
{
    // A second flow on the same saturated link must trigger a full
    // water-filling pass and halve both rates.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 80e9;
    const FlowId ida = flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(0, 1);
    b.bytes = 80e9;
    const FlowId idb = flows_.start(std::move(b));
    EXPECT_EQ(flows_.stats().fast_starts, 1u);  // only the first
    EXPECT_GE(flows_.stats().recomputes, 1u);
    EXPECT_NEAR(flows_.currentRate(ida), 40e9, 1e3);
    EXPECT_NEAR(flows_.currentRate(idb), 40e9, 1e3);
    sim_.run();
}

TEST_F(FlowSchedulerTest, FastAndSlowPathsAgreeOnRates)
{
    // Start a capped flow below the link capacity (fast path), then
    // force a recompute with a contended flow elsewhere on the same
    // link: the capped flow's rate must be unchanged by the full
    // pass, i.e. the incremental admission matched water-filling.
    FlowSpec capped;
    capped.route = gpuRoute(0, 1);
    capped.bytes = 10e9;
    capped.rate_cap = 8e9;
    const FlowId id = flows_.start(std::move(capped));
    EXPECT_EQ(flows_.stats().fast_starts, 1u);
    const Bps fast_rate = flows_.currentRate(id);
    EXPECT_NEAR(fast_rate, 8e9, 1.0);

    FlowSpec big;
    big.route = gpuRoute(0, 1);
    big.bytes = 80e9;
    flows_.start(std::move(big));  // forces full recompute
    EXPECT_GE(flows_.stats().recomputes, 1u);
    // 80 GBps link, fair share 40/40 but capped flow frozen at 8;
    // the big flow takes the rest.
    EXPECT_NEAR(flows_.currentRate(id), 8e9, 1.0);
    sim_.run();
}

/** Property: total bytes logged == total bytes injected. */
class FlowConservationProperty : public testing::TestWithParam<int>
{
};

TEST_P(FlowConservationProperty, BytesConserved)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Simulation sim;
    Cluster cluster(ClusterSpec{});
    FlowScheduler flows(sim, cluster.topology());

    // Random single-hop NVLink flows; each contributes its bytes to
    // exactly one resource.
    Bytes injected = 0.0;
    const int n = 20;
    int completed = 0;
    for (int i = 0; i < n; ++i) {
        const int a = static_cast<int>(rng.below(4));
        int b = static_cast<int>(rng.below(4));
        if (b == a)
            b = (a + 1) % 4;
        FlowSpec spec;
        spec.route = &cluster.router().route(cluster.gpuByRank(a),
                                             cluster.gpuByRank(b));
        spec.bytes = rng.uniform(1e6, 5e9);
        injected += spec.bytes;
        spec.on_complete = [&completed] { ++completed; };
        flows.start(std::move(spec));
    }
    sim.run();
    flows.finalizeLogs();
    EXPECT_EQ(completed, n);

    Bytes logged = 0.0;
    for (const Resource &r : cluster.topology().resources())
        logged += r.log.totalBytes();
    EXPECT_NEAR(logged, injected, injected * 1e-6 + n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationProperty,
                         testing::Range(1, 13));

/** The distinct resources a route crosses. */
std::vector<ResourceId>
routeResources(const Topology &topo, const Route &route)
{
    std::vector<ResourceId> rids;
    for (HalfLinkId h : route.hops) {
        const ResourceId rid = topo.halfLink(h).resource;
        if (std::find(rids.begin(), rids.end(), rid) == rids.end())
            rids.push_back(rid);
    }
    return rids;
}

TEST_F(FlowSchedulerTest, SetCapacityDegradesActiveFlow)
{
    // 80 GB on the 80 GBps NVLink pair; halve every route resource at
    // t=0.5 s: 40 GB done, the rest at 40 GBps -> finish at 1.5 s.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), *spec.route);
    bool done = false;
    spec.on_complete = [&] { done = true; };
    flows_.start(std::move(spec));
    sim_.events().schedule(0.5, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacities({{rid, r.nominal_capacity * 0.5}});
        }
    });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim_.now(), 1.5, 1e-6);
    EXPECT_GE(flows_.stats().capacity_updates, rids.size());
}

TEST_F(FlowSchedulerTest, ZeroCapacityStallsThenResumes)
{
    // A downed link freezes the flow at rate 0 (no completion event);
    // restoring the capacity resumes it with no bytes lost.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), *spec.route);
    bool done = false;
    spec.on_complete = [&] { done = true; };
    const FlowId id = flows_.start(std::move(spec));
    sim_.events().schedule(0.5, [&] {
        for (ResourceId rid : rids)
            flows_.setCapacities({{rid, 0.0}});
    });
    sim_.events().schedule(0.75, [&] {
        EXPECT_TRUE(flows_.isActive(id));
        EXPECT_DOUBLE_EQ(flows_.currentRate(id), 0.0);
        EXPECT_FALSE(done);
    });
    sim_.events().schedule(1.0, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacities({{rid, r.nominal_capacity}});
        }
    });
    sim_.run();
    // 40 GB before the outage, 40 GB after it: 0.5 + 0.5 + 0.5 s.
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim_.now(), 1.5, 1e-6);
}

TEST_F(FlowSchedulerTest, SlackToSlackCapacityChangeIsFast)
{
    // A capped flow leaves the link unsaturated; trimming capacity
    // while it stays unsaturated must not trigger a re-waterfill.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 10e9;
    spec.rate_cap = 10e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), *spec.route);
    flows_.start(std::move(spec));
    sim_.events().schedule(0.1, [&] {
        const std::uint64_t before = flows_.stats().recomputes;
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacities({{rid, r.nominal_capacity * 0.9}});
        }
        EXPECT_EQ(flows_.stats().recomputes, before);
        EXPECT_EQ(flows_.stats().fast_capacity_updates, rids.size());
        // A link no flow crosses changes without a solve too.
        const ResourceId idle = gpuRoute(2, 3)->resources.front();
        const Resource &r = cluster_.topology().resource(idle);
        flows_.setCapacities({{idle, r.nominal_capacity * 0.5}});
        EXPECT_EQ(flows_.stats().recomputes, before);
        EXPECT_EQ(flows_.stats().fast_capacity_updates, rids.size() + 1);
    });
    sim_.run();
    // The cap still binds: unchanged finish time.
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, StalledFlowsParkOnTheStalledList)
{
    // A downed link parks its flows: they leave every fill / scan /
    // index structure (observable via stalledCount) until the
    // capacity restore unparks them.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), *spec.route);
    const FlowId id = flows_.start(std::move(spec));
    EXPECT_EQ(flows_.stalledCount(), 0u);
    sim_.events().schedule(0.5, [&] {
        for (ResourceId rid : rids)
            flows_.setCapacities({{rid, 0.0}});
        EXPECT_EQ(flows_.stalledCount(), 1u);
        EXPECT_GE(flows_.stats().stalled_parks, 1u);
        EXPECT_TRUE(flows_.isActive(id));
    });
    sim_.events().schedule(1.0, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacities({{rid, r.nominal_capacity}});
        }
        EXPECT_EQ(flows_.stalledCount(), 0u);
        EXPECT_GT(flows_.currentRate(id), 0.0);
    });
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.5, 1e-6);
}

TEST_F(FlowSchedulerTest, StallResumeKeepsCompletionOrder)
{
    // Three equal flows on one link finish at the same instant; their
    // callbacks must fire in ascending start order — and a stall /
    // resume cycle in the middle (which reinserts all three into the
    // completion index from the unpark path) must not perturb that
    // order.
    std::vector<int> order;
    std::vector<ResourceId> rids;
    for (int i = 0; i < 3; ++i) {
        FlowSpec spec;
        spec.route = gpuRoute(0, 1);
        spec.bytes = 30e9;
        if (i == 0)
            rids = routeResources(cluster_.topology(), *spec.route);
        spec.on_complete = [&order, i] { order.push_back(i); };
        flows_.start(std::move(spec));
    }
    sim_.events().schedule(0.3, [&] {
        for (ResourceId rid : rids)
            flows_.setCapacities({{rid, 0.0}});
        EXPECT_EQ(flows_.stalledCount(), 3u);
    });
    sim_.events().schedule(0.8, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacities({{rid, r.nominal_capacity}});
        }
    });
    sim_.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    // 90 GB over 80 GBps plus the 0.5 s outage.
    EXPECT_NEAR(sim_.now(), 90.0 / 80.0 + 0.5, 1e-6);
    EXPECT_GE(flows_.stats().stalled_parks, 3u);
}

/** A self-contained sim + cluster + scheduler. */
struct Twin {
    explicit Twin(FlowSchedulerOptions opts = {})
        : cluster(ClusterSpec{}), flows(sim, cluster.topology(), opts)
    {
    }

    const Route *
    gpuRoute(int a, int b)
    {
        return &cluster.router().route(cluster.gpuByRank(a),
                                       cluster.gpuByRank(b));
    }

    Simulation sim;
    Cluster cluster;
    FlowScheduler flows;
};

TEST(FlowSchedulerBatchTest, CapacityStormMatchesUnbatchedCalls)
{
    // A capacity-only batch is state-equivalent to the per-link call
    // sequence: rates after the storm and the final drain time must
    // match bitwise, with the batch solving once instead of per link.
    Twin plain;
    Twin batched;

    std::vector<FlowId> ids;
    std::vector<ResourceId> rids;
    for (Twin *tw : {&plain, &batched}) {
        for (int pair = 0; pair < 2; ++pair) {
            for (int dup = 0; dup < 2; ++dup) {
                FlowSpec spec;
                spec.route = tw->gpuRoute(pair * 2, pair * 2 + 1);
                if (tw == &plain && dup == 0)
                    for (ResourceId rid : routeResources(
                             tw->cluster.topology(), *spec.route))
                        rids.push_back(rid);
                spec.bytes = 40e9;
                const FlowId id = tw->flows.start(std::move(spec));
                if (tw == &plain)
                    ids.push_back(id);
            }
        }
    }

    auto storm = [&](Twin &tw, double factor) {
        for (ResourceId rid : rids) {
            const Resource &r = tw.cluster.topology().resource(rid);
            tw.flows.setCapacities({{rid, r.nominal_capacity * factor}});
        }
    };
    plain.sim.events().schedule(0.25, [&] { storm(plain, 0.5); });
    batched.sim.events().schedule(0.25, [&] {
        FlowScheduler::ScopedBatch batch(batched.flows);
        storm(batched, 0.5);
    });
    plain.sim.runUntil(0.5);
    batched.sim.runUntil(0.5);
    for (FlowId id : ids)
        ASSERT_EQ(plain.flows.currentRate(id),
                  batched.flows.currentRate(id))
            << "rate diverged for flow " << id;
    EXPECT_GT(batched.flows.stats().batched_events, 0u);
    EXPECT_LT(batched.flows.stats().recomputes +
                  batched.flows.stats().region_solves,
              plain.flows.stats().recomputes +
                  plain.flows.stats().region_solves);
    EXPECT_EQ(plain.sim.run(), batched.sim.run());
}

TEST_F(FlowSchedulerTest, BatchedStartOnAnIdleRouteRunsBeforeTheFlush)
{
    // A start inside a batch tries fast-start admission first: on an
    // idle route it runs at its cap at once, without waiting for the
    // flush, and counts as a fast start, not a deferred op.
    const Route *route = gpuRoute(0, 1);
    FlowId id = 0;
    {
        FlowScheduler::ScopedBatch batch(flows_);
        FlowSpec spec;
        spec.route = route;
        spec.bytes = 80e9;
        id = flows_.start(std::move(spec));
        EXPECT_EQ(flows_.currentRate(id), route->rate_cap);
        EXPECT_EQ(flows_.stats().fast_starts, 1u);
        EXPECT_EQ(flows_.stats().batched_events, 0u);
    }
    EXPECT_EQ(flows_.currentRate(id), route->rate_cap);
    EXPECT_EQ(flows_.stats().recomputes, 0u);
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST(FlowSchedulerBatchTest, OversubscribedBurstSolvesOnceLikeUnbatched)
{
    // Four 30 GBps-capped starts on one 80 GBps link: two fit and are
    // admitted at their caps, the other two defer. The flush re-solves
    // all four in one pass (they share the link), and the rates equal
    // those of the same starts made one by one, bitwise.
    constexpr int kStarts = 4;
    Twin plain;
    Twin batched;
    std::vector<FlowId> ids;
    auto burst = [&](Twin &tw) {
        for (int i = 0; i < kStarts; ++i) {
            FlowSpec spec;
            spec.route = tw.gpuRoute(0, 1);
            spec.bytes = 40e9;
            spec.rate_cap = 30e9;
            const FlowId id = tw.flows.start(std::move(spec));
            if (&tw == &plain)
                ids.push_back(id);
        }
    };
    burst(plain);
    {
        FlowScheduler::ScopedBatch batch(batched.flows);
        burst(batched);
    }
    EXPECT_EQ(batched.flows.stats().recomputes, 1u);
    EXPECT_EQ(batched.flows.stats().fast_starts, 2u);
    EXPECT_EQ(batched.flows.stats().batched_events, 2u);
    EXPECT_EQ(plain.flows.stats().recomputes, 2u);
    for (FlowId id : ids) {
        ASSERT_EQ(plain.flows.currentRate(id),
                  batched.flows.currentRate(id))
            << "rate diverged for flow " << id;
        EXPECT_NEAR(batched.flows.currentRate(id), 20e9, 1.0);
    }
    EXPECT_EQ(plain.sim.run(), batched.sim.run());
}

/**
 * Flow A moves 80 GB on GPU 0->1 (done at 1 s) and flow B 160 GB on
 * GPU 2->3 (done at 2 s); at 0.5 s A is cancelled, alone in a batch
 * when @p batched. A owns the next completion, and every link it
 * crosses goes idle. @return the events the run executed.
 */
std::uint64_t
runCancelOfNextFinisher(bool batched, FlowSchedulerOptions opts)
{
    Twin tw(opts);
    FlowSpec a;
    a.route = tw.gpuRoute(0, 1);
    a.bytes = 80e9;
    const FlowId id = tw.flows.start(std::move(a));
    FlowSpec b;
    b.route = tw.gpuRoute(2, 3);
    b.bytes = 160e9;
    bool b_done = false;
    b.on_complete = [&b_done] { b_done = true; };
    tw.flows.start(std::move(b));
    tw.sim.events().schedule(0.5, [&] {
        if (batched) {
            FlowScheduler::ScopedBatch batch(tw.flows);
            EXPECT_TRUE(tw.flows.cancel(id));
        } else {
            EXPECT_TRUE(tw.flows.cancel(id));
        }
    });
    tw.sim.run();
    EXPECT_TRUE(b_done);
    EXPECT_NEAR(tw.sim.now(), 2.0, 1e-9);
    return tw.sim.events().executedCount();
}

TEST(FlowSchedulerBatchTest, CancelOfTheNextFinisherReschedulesInABatch)
{
    // The batch's flush must move the completion event off the
    // cancelled flow's finish time, as the unbatched cancel does: a
    // stale event would fire at 1 s and find no finisher.
    const std::uint64_t unbatched = runCancelOfNextFinisher(false, {});
    EXPECT_EQ(unbatched, 2u);  // the cancel and B's completion
    EXPECT_EQ(runCancelOfNextFinisher(true, {}), unbatched);
}

TEST(FlowSchedulerBatchTest, CancelOfTheNextFinisherInABatchPassesTheOracle)
{
    // The oracle checks the completion event after the flush and
    // fatal()s on one scheduled at the cancelled flow's finish time.
    EXPECT_EQ(runCancelOfNextFinisher(true, FlowSchedulerOptions{true}),
              2u);
}

TEST_F(FlowSchedulerTest, CancelReturnsRemainingBytes)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    bool completed = false;
    spec.on_complete = [&] { completed = true; };
    const FlowId id = flows_.start(std::move(spec));
    sim_.events().schedule(0.5, [&] {
        Bytes remaining = 0.0;
        EXPECT_TRUE(flows_.cancel(id, &remaining));
        EXPECT_NEAR(remaining, 40e9, 1e3);
        EXPECT_EQ(flows_.activeCount(), 0u);
        EXPECT_FALSE(flows_.cancel(id));  // already gone
    });
    sim_.run();
    EXPECT_FALSE(completed);
    EXPECT_EQ(flows_.stats().cancels, 1u);
}

} // namespace
} // namespace dstrain
