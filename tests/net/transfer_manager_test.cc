/**
 * @file
 * Tests for the transfer manager: latency handling, via-pinning,
 * rate factors, accounting and one-solve launch groups.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/transfer_manager.hh"

namespace dstrain {
namespace {

class TransferManagerTest : public testing::Test
{
  protected:
    TransferManagerTest()
        : cluster_(makeSpec()), flows_(sim_, cluster_.topology()),
          tm_(sim_, cluster_, flows_)
    {
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 2;
        return spec;
    }

    /** One inter-node hop, pinned through node 0's NIC @p nic. */
    struct Hop {
        int src;
        int dst;
        int nic;
    };

    /** Start @p hops (10 GB each) in one LaunchScope, counting
     * completions in @p done; the hops share one launch event. */
    void
    launchGroup(std::initializer_list<Hop> hops, int *done)
    {
        {
            TransferManager::LaunchScope scope(tm_);
            for (const Hop &h : hops) {
                const ComponentId via[] = {cluster_.node(0).nics[h.nic]};
                TransferOptions opts;
                opts.waypoints = via;
                tm_.start(cluster_.gpuByRank(h.src),
                          cluster_.gpuByRank(h.dst), 10e9,
                          [done] { ++*done; }, std::move(opts));
            }
        }
        ASSERT_EQ(sim_.events().size(), 1u);
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
    TransferManager tm_;
};

TEST_F(TransferManagerTest, CompletesAndCounts)
{
    bool done = false;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 1e9,
              [&] { done = true; });
    EXPECT_EQ(tm_.startedCount(), 1u);
    EXPECT_EQ(tm_.inFlight(), 1u);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.completedCount(), 1u);
    EXPECT_EQ(tm_.inFlight(), 0u);
}

TEST_F(TransferManagerTest, LatencyDelaysFlowStart)
{
    // 1 byte over NVLink: duration ~ link latency + transfer time.
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 2.0,
              nullptr);
    sim_.run();
    EXPECT_GE(sim_.now(), 700e-9);  // the NVLink hop latency
}

TEST_F(TransferManagerTest, RateFactorSlowsTransfer)
{
    // NVLink effective 80 GBps; factor 0.5 -> 40 GBps.
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 40e9,
              nullptr, TransferOptions{});
    sim_.run();
    const SimTime full_speed = sim_.now();

    Simulation sim2;
    Cluster cluster2(makeSpec());
    FlowScheduler flows2(sim2, cluster2.topology());
    TransferManager tm2(sim2, cluster2, flows2);
    TransferOptions opts;
    opts.rate_factor = 0.5;
    tm2.start(cluster2.gpuByRank(0), cluster2.gpuByRank(1), 40e9,
              nullptr, std::move(opts));
    sim2.run();
    EXPECT_NEAR(sim2.now(), 2.0 * full_speed, 1e-3);
}

TEST_F(TransferManagerTest, ViaChangesThePath)
{
    // Pin node-0 GPU0's egress through NIC1 (the cross-socket NIC):
    // xGMI must carry traffic.
    const ComponentId via[] = {cluster_.node(0).nics[1]};
    TransferOptions opts;
    opts.waypoints = via;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 1e9,
              nullptr, std::move(opts));
    sim_.run();
    flows_.finalizeLogs();
    Bytes xgmi = 0.0;
    for (const Resource &r : cluster_.topology().resources())
        if (r.cls == LinkClass::Xgmi)
            xgmi += r.log.totalBytes();
    EXPECT_NEAR(xgmi, 1e9, 1e6);
}

TEST_F(TransferManagerTest, DefaultPathAvoidsXgmi)
{
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 1e9,
              nullptr);
    sim_.run();
    flows_.finalizeLogs();
    for (const Resource &r : cluster_.topology().resources()) {
        if (r.cls == LinkClass::Xgmi) {
            EXPECT_DOUBLE_EQ(r.log.totalBytes(), 0.0);
        }
    }
}

class TransferRetryTest : public TransferManagerTest
{
  protected:
    /** Scale every link direction touching one NIC (0 = down). */
    void
    setNicCapacityFactor(int node, int nic, double factor)
    {
        const ComponentId id = cluster_.node(node).nics[nic];
        Topology &topo = cluster_.topology();
        for (std::size_t h = 0; h < topo.halfLinkCount(); ++h) {
            const HalfLink &hl =
                topo.halfLink(static_cast<HalfLinkId>(h));
            if (hl.from != id && hl.to != id)
                continue;
            const Resource &r = topo.resource(hl.resource);
            flows_.setCapacities(
                {{hl.resource, r.nominal_capacity * factor}});
        }
    }
};

TEST_F(TransferRetryTest, ReroutesAroundDownedNic)
{
    RetryPolicy policy;
    policy.enabled = true;
    tm_.configureRetry(policy);

    // Pin the inter-node transfer through n0.nic0, then kill that NIC
    // mid-flight: the manager must cancel the stranded flow and
    // relaunch the remaining bytes through n0.nic1.
    const ComponentId via[] = {cluster_.node(0).nics[0]};
    TransferOptions opts;
    opts.waypoints = via;
    bool done = false;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 10e9,
              [&] { done = true; }, std::move(opts));
    sim_.events().schedule(0.05, [&] {
        setNicCapacityFactor(0, 0, 0.0);
        tm_.notifyCapacityChange();
    });
    sim_.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.rerouteCount(), 1u);
    EXPECT_EQ(tm_.inFlight(), 0u);
    EXPECT_EQ(flows_.activeCount(), 0u);

    // The relaunched flow really moved through the alternate NIC.
    flows_.finalizeLogs();
    const ComponentId nic1 = cluster_.node(0).nics[1];
    Bytes through_nic1 = 0.0;
    Topology &topo = cluster_.topology();
    for (std::size_t h = 0; h < topo.halfLinkCount(); ++h) {
        const HalfLink &hl = topo.halfLink(static_cast<HalfLinkId>(h));
        if (hl.from == nic1 || hl.to == nic1)
            through_nic1 += topo.resource(hl.resource).log.totalBytes();
    }
    EXPECT_GT(through_nic1, 0.0);
}

TEST_F(TransferRetryTest, ParkedTransferResumesOnRestore)
{
    // With zero retries allowed the stranded transfer is parked at
    // rate zero; restoring the link lets it finish on its own.
    RetryPolicy policy;
    policy.enabled = true;
    policy.max_retries = 0;
    tm_.configureRetry(policy);

    const ComponentId via[] = {cluster_.node(0).nics[0]};
    TransferOptions opts;
    opts.waypoints = via;
    bool done = false;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 10e9,
              [&] { done = true; }, std::move(opts));
    sim_.events().schedule(0.05, [&] {
        setNicCapacityFactor(0, 0, 0.0);
        tm_.notifyCapacityChange();
    });
    sim_.events().schedule(0.3, [&] {
        EXPECT_FALSE(done);  // still parked
        setNicCapacityFactor(0, 0, 1.0);
    });
    sim_.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
    EXPECT_EQ(tm_.inFlight(), 0u);
}

TEST_F(TransferRetryTest, GroupWithADownedHopArmsOneScanAndReroutesIt)
{
    RetryPolicy policy;
    policy.enabled = true;
    tm_.configureRetry(policy);

    // Four hops contend for nic0's uplink (three fit at their route
    // caps); the fifth launches through nic1, which is down. The
    // group's one solve shares nic0 and parks the fifth hop; only
    // then is the stranded launch seen, arming one scan.
    setNicCapacityFactor(0, 1, 0.0);
    int done = 0;
    launchGroup({{0, 4, 0}, {1, 5, 0}, {0, 5, 0}, {1, 4, 0}, {2, 6, 1}},
                &done);
    ASSERT_TRUE(sim_.events().step());  // the launch event
    EXPECT_EQ(flows_.stats().region_solves, 1u);
    EXPECT_EQ(flows_.stalledCount(), 1u);
    // Pending: the scheduler's completion event and one scan.
    EXPECT_EQ(sim_.events().size(), 2u);
    sim_.run();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(tm_.rerouteCount(), 1u);
    EXPECT_EQ(tm_.inFlight(), 0u);
}

TEST_F(TransferRetryTest, HealthyGroupArmsNoScan)
{
    // A start deferred to the group's solve reads rate zero until the
    // batch flushes; the stranded-launch check must not mistake it
    // for a flow launched into a fault.
    RetryPolicy policy;
    policy.enabled = true;
    tm_.configureRetry(policy);
    int done = 0;
    launchGroup({{0, 4, 0}, {1, 5, 0}, {0, 5, 0}, {1, 4, 0}, {0, 6, 0}},
                &done);
    ASSERT_TRUE(sim_.events().step());
    EXPECT_EQ(flows_.stats().region_solves, 1u);
    EXPECT_EQ(sim_.events().size(), 1u);  // the completion event only
    sim_.run();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
}

TEST_F(TransferRetryTest, RetryDisabledKeepsZeroPendingState)
{
    // The default (no faults) configuration must not grow
    // per-transfer bookkeeping: notifyCapacityChange is a no-op.
    bool done = false;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 1e9,
              [&] { done = true; });
    tm_.notifyCapacityChange();
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
}

TEST_F(TransferRetryTest, ReusedSlotLeavesTheOldIdUnknown)
{
    // A finished transfer's slot goes to the next one; its old id
    // must not reach the new occupant. The new transfer parks on a
    // downed NIC, so an id check that ignored the start sequence
    // would read it as stalled and cancel it.
    RetryPolicy policy;
    policy.enabled = true;
    policy.max_retries = 0;
    tm_.configureRetry(policy);

    const ComponentId via[] = {cluster_.node(0).nics[0]};
    TransferOptions first;
    first.waypoints = via;
    const std::uint64_t old_id =
        tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 1e9,
                  nullptr, std::move(first));
    sim_.run();
    ASSERT_EQ(tm_.inFlight(), 0u);

    setNicCapacityFactor(0, 0, 0.0);
    TransferOptions second;
    second.waypoints = via;
    bool done = false;
    const std::uint64_t new_id =
        tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 10e9,
                  [&] { done = true; }, std::move(second));
    EXPECT_NE(new_id, old_id);
    sim_.runUntil(sim_.now() + 0.01);
    ASSERT_TRUE(tm_.transferStalled(new_id));

    EXPECT_FALSE(tm_.transferStalled(old_id));
    EXPECT_EQ(tm_.cancelTransfer(old_id), 0.0);
    setNicCapacityFactor(0, 0, 1.0);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.stats().aborted, 0u);
    EXPECT_NEAR(tm_.stats().bytes_delivered, 11e9, 4.0);
    tm_.verifyConservation();
}

TEST_F(TransferRetryTest, ScanReroutesInStartOrderAcrossReusedSlots)
{
    RetryPolicy policy;
    policy.enabled = true;
    tm_.configureRetry(policy);
    const ComponentId g0 = cluster_.gpuByRank(0);
    const ComponentId g4 = cluster_.gpuByRank(4);

    // Two transfers finish in start order and free their slots, so
    // the slab hands the next two out in reverse: slot order is no
    // longer start order.
    tm_.start(g0, g4, 1e9, nullptr);
    tm_.start(g0, g4, 1e9, nullptr);
    sim_.run();

    // Twins on one route, stranded together by a NIC fault: equal
    // bytes remain, so their relaunches on the alternate NIC finish
    // in one completion event, whose callbacks run in relaunch order
    // - the order the scan rerouted them in.
    const ComponentId via[] = {cluster_.node(0).nics[0]};
    std::vector<std::string> log;
    for (const char *name : {"first", "second"}) {
        TransferOptions opts;
        opts.waypoints = via;
        tm_.start(g0, g4, 10e9, [&log, name] { log.push_back(name); },
                  std::move(opts));
    }
    sim_.events().schedule(sim_.now() + 0.05, [&] {
        setNicCapacityFactor(0, 0, 0.0);
        tm_.notifyCapacityChange();
    });
    sim_.run();

    EXPECT_EQ(tm_.rerouteCount(), 2u);
    EXPECT_EQ(log, (std::vector<std::string>{"first", "second"}));
}

TEST_F(TransferManagerTest, AbortAllAccountsEveryByte)
{
    // Byte conservation across the hard-failure abort path:
    // requested == delivered + aborted, and every started transfer
    // ends up completed or aborted — never lost.
    int completions = 0;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 10e9,
              [&] { ++completions; });
    tm_.start(cluster_.gpuByRank(1), cluster_.gpuByRank(0), 80e12,
              [&] { ++completions; });
    sim_.events().schedule(1.0, [&] {
        // The 10 GB transfer finished long ago; the 80 TB one is
        // still in flight and gets the axe. Mirror the production
        // abort pairing: the owner cancels the scheduler's flows
        // right after the manager gives up on them.
        EXPECT_EQ(tm_.abortAll(), 1u);
        flows_.cancelAll();
    });
    sim_.run();
    EXPECT_EQ(completions, 1);

    const TransferManager::Stats &stats = tm_.stats();
    EXPECT_EQ(stats.started, 2u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.aborted, 1u);
    EXPECT_EQ(stats.conservation_violations, 0u);
    EXPECT_NEAR(stats.bytes_requested, 80e12 + 10e9, 1.0);
    EXPECT_NEAR(stats.bytes_delivered + stats.bytes_aborted,
                stats.bytes_requested, 1e3);
    EXPECT_GT(stats.bytes_aborted, 0.0);
    tm_.verifyConservation();  // must not assert
}

TEST_F(TransferManagerTest, AbortAllInvalidatesDelayedLaunches)
{
    // A transfer still inside its latency delay has no flow yet; the
    // abort must still account it and the stale launch event must
    // become a no-op rather than resurrect it.
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 1e9,
              [] { FAIL() << "aborted transfer completed"; });
    EXPECT_EQ(tm_.abortAll(), 1u);  // before any event ran
    sim_.run();
    EXPECT_EQ(tm_.stats().aborted, 1u);
    EXPECT_NEAR(tm_.stats().bytes_aborted, 1e9, 1.0);
    tm_.verifyConservation();
}

/** A transfer across the leaves of a spine-leaf fabric whose router
 * avoids dead links, with a link of its route cut in its latency
 * delay. */
class TransferLaunchTest : public testing::Test
{
  protected:
    TransferLaunchTest()
        : cluster_(makeSpec()), flows_(sim_, cluster_.topology()),
          tm_(sim_, cluster_, flows_)
    {
        cluster_.router().setAvoidDeadLinks(true);
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 4;
        spec.fabric.kind = FabricKind::SpineLeaf;
        spec.fabric.leaves = 2;
        spec.fabric.spines = 4;
        return spec;
    }

    /**
     * Start a 1 GB transfer to the other leaf, then cut its route's
     * leaf-to-spine hop (the first switch-to-switch hop) and flush
     * the router before the launch fires: fresh lookups now avoid
     * the cut.
     */
    void
    startThenCutAndFlush()
    {
        const ComponentId src = cluster_.gpuByRank(0);
        const ComponentId dst = cluster_.gpuByRank(12);  // other leaf
        const Route &route = cluster_.router().routeForFlow(src, dst, 0);
        latency_ = route.latency;
        tm_.start(src, dst, 1e9, [this] { done_ = true; });
        const Topology &topo = cluster_.topology();
        for (HalfLinkId hid : route.hops) {
            const HalfLink &hl = topo.halfLink(hid);
            if (topo.component(hl.from).kind == ComponentKind::Switch &&
                topo.component(hl.to).kind == ComponentKind::Switch) {
                cut_ = hl.resource;
                break;
            }
        }
        ASSERT_GE(cut_, 0);
        flows_.setCapacities({{cut_, 0.0}});
        cluster_.router().invalidateRouteCaches();
        const Route &fresh = cluster_.router().routeForFlow(src, dst, 0);
        ASSERT_NE(fresh.hops, route.hops);
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
    TransferManager tm_;
    SimTime latency_ = 0.0;
    ResourceId cut_ = -1;
    bool done_ = false;
};

TEST_F(TransferLaunchTest, LaunchAfterRouteFlushUsesItsOriginalRoute)
{
    // A fault-free transfer resolves its route at start() and holds
    // it by reference until its latency-delayed launch, so the launch
    // still uses the original route (and parks on the dead link),
    // which has to have survived the flush (ASan checks the reads).
    ASSERT_NO_FATAL_FAILURE(startThenCutAndFlush());
    sim_.runUntil(2.0 * latency_);
    EXPECT_EQ(flows_.activeCount(), 1u);
    EXPECT_EQ(flows_.stalledCount(), 1u);  // parked on the cut link
    EXPECT_FALSE(done_);
    flows_.setCapacities(
        {{cut_, cluster_.topology().resource(cut_).nominal_capacity}});
    sim_.run();
    EXPECT_TRUE(done_);
    tm_.verifyConservation();
}

TEST_F(TransferLaunchTest, RetryLaunchAfterRouteFlushTakesTheFreshRoute)
{
    // A retryable transfer reuses start()'s route only while no flush
    // has happened since: this one launches on the fresh route around
    // the cut, so nothing parks and nothing is rerouted.
    RetryPolicy policy;
    policy.enabled = true;
    tm_.configureRetry(policy);
    ASSERT_NO_FATAL_FAILURE(startThenCutAndFlush());
    sim_.runUntil(2.0 * latency_);
    EXPECT_EQ(flows_.activeCount(), 1u);
    EXPECT_EQ(flows_.stalledCount(), 0u);
    sim_.run();
    EXPECT_TRUE(done_);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
    tm_.verifyConservation();
}

TEST_F(TransferManagerTest, ScopeGroupsSameTimeLaunchesInCallOrder)
{
    // Inside a LaunchScope, launches with bitwise-equal times share
    // one event and start in call order, all before an event queued
    // later for that same time. Zero-byte transfers complete through
    // zero-delay events queued in launch order, so the completion log
    // shows the launch order.
    const ComponentId g0 = cluster_.gpuByRank(0);
    const ComponentId g1 = cluster_.gpuByRank(1);
    const ComponentId g4 = cluster_.gpuByRank(4);
    const SimTime nvlink = cluster_.router().route(g0, g1).latency;
    const SimTime roce = cluster_.router().route(g0, g4).latency;
    ASSERT_NE(nvlink, roce);
    std::vector<std::string> log;
    {
        TransferManager::LaunchScope scope(tm_);
        tm_.start(g0, g1, 0.0, [&] { log.push_back("a"); });
        tm_.start(g0, g4, 0.0, [&] { log.push_back("b"); });
        tm_.start(g1, g0, 0.0, [&] { log.push_back("c"); });
        tm_.start(g0, g4, 0.0, [&] { log.push_back("d"); });
    }
    // One event per distinct launch time, not one per transfer.
    EXPECT_EQ(sim_.events().size(), 2u);
    sim_.events().schedule(nvlink, [&] { log.push_back("x"); });
    sim_.run();
    EXPECT_EQ(log, (std::vector<std::string>{"x", "a", "c", "b", "d"}));

    // With bytes, the grouped launches are already flowing when the
    // later same-time event runs.
    std::size_t active_at_x = 0;
    const SimTime t0 = sim_.now();
    {
        TransferManager::LaunchScope scope(tm_);
        tm_.start(g0, g1, 1e9, nullptr);
        tm_.start(g1, g0, 1e9, nullptr);
    }
    sim_.events().schedule(t0 + nvlink,
                           [&] { active_at_x = flows_.activeCount(); });
    sim_.run();
    EXPECT_EQ(active_at_x, 2u);
    EXPECT_EQ(tm_.completedCount(), 6u);
}

TEST_F(TransferManagerTest, LaunchGroupOnASharedUplinkSolvesOnce)
{
    // Six hops through node 0's nic0 contend for its uplink, which
    // fits three at their route caps. Those three are admitted at
    // once; the other three defer to the group's one solve instead
    // of solving 4, 5, then 6 flows.
    int done = 0;
    launchGroup({{0, 4, 0}, {1, 5, 0}, {0, 5, 0}, {1, 4, 0}, {0, 6, 0},
                 {1, 7, 0}},
                &done);
    ASSERT_TRUE(sim_.events().step());
    EXPECT_EQ(flows_.activeCount(), 6u);
    EXPECT_EQ(flows_.stats().fast_starts, 3u);
    EXPECT_EQ(flows_.stats().region_solves, 1u);
    sim_.run();
    EXPECT_EQ(done, 6);
}

TEST_F(TransferManagerTest, DeathOnEventQueuedInsideALaunchScope)
{
    // Grouping is FIFO-exact only while nothing else is queued inside
    // the scope; the manager checks the event queue's sequence
    // counter instead of assuming it.
    const ComponentId g0 = cluster_.gpuByRank(0);
    const ComponentId g1 = cluster_.gpuByRank(1);
    EXPECT_DEATH(
        {
            TransferManager::LaunchScope scope(tm_);
            tm_.start(g0, g1, 1e9, nullptr);
            sim_.events().scheduleAfter(1.0, [] {});
            tm_.start(g1, g0, 1e9, nullptr);
        },
        "queued inside a launch scope");
}

TEST_F(TransferManagerTest, DeathOnSelfTransfer)
{
    EXPECT_DEATH(tm_.start(cluster_.gpuByRank(0),
                           cluster_.gpuByRank(0), 1.0, nullptr),
                 "itself");
}

TEST_F(TransferManagerTest, DeathOnBadRateFactor)
{
    TransferOptions opts;
    opts.rate_factor = 1.5;
    EXPECT_DEATH(tm_.start(cluster_.gpuByRank(0),
                           cluster_.gpuByRank(1), 1.0, nullptr,
                           std::move(opts)),
                 "rate factor");
}

} // namespace
} // namespace dstrain
