/**
 * @file
 * Tests for the transfer manager: latency handling, via-pinning,
 * rate factors, accounting, retries and one-solve launch groups.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
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

    /**
     * The edge from rank @p src to rank @p dst, pinned through node
     * 0's NIC @p nic (-1 = unpinned), with its route resolved.
     */
    HopEdge
    edge(int src, int dst, int nic = -1)
    {
        HopEdge e;
        e.src = cluster_.gpuByRank(src);
        e.dst = cluster_.gpuByRank(dst);
        if (nic >= 0) {
            e.via[0] = cluster_.node(0).nics[static_cast<std::size_t>(nic)];
            e.vias = 1;
        }
        e.route =
            &cluster_.router().routeThrough(e.src, e.waypoints(), e.dst);
        return e;
    }

    /** One inter-node hop, pinned through node 0's NIC @p nic. */
    struct Hop {
        int src;
        int dst;
        int nic;
    };

    /**
     * Start @p edges (10 GB each) with one startHops() call, adding
     * landed hops to @p landed.
     * @return their transfer ids (retry path).
     */
    std::vector<std::uint64_t>
    startEdges(const std::vector<HopEdge> &edges, int *landed)
    {
        std::vector<std::uint64_t> ids(edges.size(), 0);
        tm_.startHops(edges, 10e9,
                      [landed](std::uint32_t n) {
                          *landed += static_cast<int>(n);
                      },
                      {}, ids);
        return ids;
    }

    /** Start @p hops through startEdges(); they share one launch
     * event. */
    std::vector<std::uint64_t>
    launchGroup(std::initializer_list<Hop> hops, int *done)
    {
        std::vector<HopEdge> edges;
        for (const Hop &h : hops)
            edges.push_back(edge(h.src, h.dst, h.nic));
        const std::vector<std::uint64_t> ids = startEdges(edges, done);
        EXPECT_EQ(sim_.events().size(), 1u);
        return ids;
    }

    /**
     * Two NVLink hops interleaved with two RoCE hops through node 0's
     * nic0: two launch times, the NVLink one first.
     */
    std::vector<HopEdge>
    interleavedEdges()
    {
        std::vector<HopEdge> edges = {edge(0, 1), edge(0, 4, 0),
                                      edge(1, 0), edge(1, 5, 0)};
        EXPECT_EQ(edges[0].route->latency, edges[2].route->latency);
        EXPECT_EQ(edges[1].route->latency, edges[3].route->latency);
        EXPECT_LT(edges[0].route->latency, edges[1].route->latency);
        return edges;
    }

    /**
     * Start interleavedEdges() through startEdges(): each launch time
     * gets one event, which starts its hops before an event queued
     * later for the same time.
     */
    std::vector<std::uint64_t>
    startInterleaved(int *landed)
    {
        const std::vector<HopEdge> edges = interleavedEdges();
        const std::vector<std::uint64_t> ids = startEdges(edges, landed);
        EXPECT_EQ(sim_.events().size(), 2u);
        sim_.events().schedule(edges[0].route->latency, [this] {
            EXPECT_EQ(flows_.activeCount(), 2u);  // the NVLink hops
        });
        return ids;
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
    tm_.enableRetries();

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
    // With both of node 0's NICs down no reroute finds a path: once
    // its three reroutes have run out the stranded transfer is parked
    // at rate zero, and restoring the links lets it finish on its own.
    tm_.enableRetries();

    const ComponentId via[] = {cluster_.node(0).nics[0]};
    TransferOptions opts;
    opts.waypoints = via;
    bool done = false;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(4), 10e9,
              [&] { done = true; }, std::move(opts));
    sim_.events().schedule(0.05, [&] {
        setNicCapacityFactor(0, 0, 0.0);
        setNicCapacityFactor(0, 1, 0.0);
        tm_.notifyCapacityChange();
    });
    sim_.events().schedule(0.3, [&] {
        EXPECT_FALSE(done);  // still parked
        EXPECT_EQ(flows_.stalledCount(), 1u);
        setNicCapacityFactor(0, 0, 1.0);
        setNicCapacityFactor(0, 1, 1.0);
    });
    sim_.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.rerouteCount(), 3u);
    EXPECT_EQ(tm_.inFlight(), 0u);
}

TEST_F(TransferRetryTest, GroupWithADownedHopArmsOneScanAndReroutesIt)
{
    tm_.enableRetries();

    // Four hops contend for nic0's uplink (three fit at their route
    // caps); the fifth launches through nic1, which is down. The
    // group's one solve shares nic0 and parks the fifth hop; only
    // then is the stranded launch seen, arming one scan.
    setNicCapacityFactor(0, 1, 0.0);
    int done = 0;
    const std::vector<std::uint64_t> ids = launchGroup(
        {{0, 4, 0}, {1, 5, 0}, {0, 5, 0}, {1, 4, 0}, {2, 6, 1}}, &done);
    ASSERT_TRUE(sim_.events().step());  // the launch event
    EXPECT_EQ(flows_.stats().region_solves, 1u);
    EXPECT_EQ(flows_.stalledCount(), 1u);
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(tm_.transferStalled(ids[i]), i == 4) << i;
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
    tm_.enableRetries();
    int done = 0;
    const std::vector<std::uint64_t> ids = launchGroup(
        {{0, 4, 0}, {1, 5, 0}, {0, 5, 0}, {1, 4, 0}, {0, 6, 0}}, &done);
    ASSERT_TRUE(sim_.events().step());
    EXPECT_EQ(flows_.stats().region_solves, 1u);
    EXPECT_EQ(sim_.events().size(), 1u);  // the completion event only
    for (const std::uint64_t id : ids)
        EXPECT_FALSE(tm_.transferStalled(id));
    sim_.run();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
}

TEST_F(TransferRetryTest, RetryDisabledArmsNoScan)
{
    // The default (no faults) configuration keeps a transfer record
    // for every start() but never scans for stranded flows:
    // notifyCapacityChange() queues nothing.
    bool done = false;
    tm_.start(cluster_.gpuByRank(0), cluster_.gpuByRank(1), 1e9,
              [&] { done = true; });
    const std::size_t queued = sim_.events().size();
    tm_.notifyCapacityChange();
    EXPECT_EQ(sim_.events().size(), queued);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
}

TEST_F(TransferRetryTest, ReusedSlotLeavesTheOldIdUnknown)
{
    // A finished transfer's slot goes to the next one; its old id
    // must not reach the new occupant. The new transfer parks with
    // both of node 0's NICs down, so an id check that ignored the
    // start sequence would read it as stalled and cancel it.
    tm_.enableRetries();

    const HopEdge hop = edge(0, 4, 0);
    std::uint64_t old_id = 0;
    tm_.startHops({&hop, 1}, 1e9, [](std::uint32_t) {}, {}, {&old_id, 1});
    sim_.run();
    ASSERT_EQ(tm_.inFlight(), 0u);

    setNicCapacityFactor(0, 0, 0.0);
    setNicCapacityFactor(0, 1, 0.0);
    bool done = false;
    std::uint64_t new_id = 0;
    tm_.startHops({&hop, 1}, 10e9, [&](std::uint32_t) { done = true; }, {},
                  {&new_id, 1});
    EXPECT_NE(new_id, old_id);
    // Detection and backoff of the three reroutes take 1 + 2 + 1 +
    // 4 + 1 + 8 ms, and the last relaunch parks.
    sim_.runUntil(sim_.now() + 0.05);
    ASSERT_TRUE(tm_.transferStalled(new_id));

    EXPECT_FALSE(tm_.transferStalled(old_id));
    EXPECT_EQ(tm_.cancelTransfer(old_id), 0.0);
    setNicCapacityFactor(0, 0, 1.0);
    setNicCapacityFactor(0, 1, 1.0);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(tm_.stats().aborted, 0u);
    EXPECT_NEAR(tm_.stats().bytes_delivered, 11e9, 4.0);
    tm_.verifyConservation();
}

TEST_F(TransferRetryTest, ScanReroutesInStartOrderAcrossReusedSlots)
{
    tm_.enableRetries();
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
        // still in flight and gets the axe, its flow with it.
        EXPECT_EQ(tm_.abortAll(), 1u);
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

TEST_F(TransferManagerTest, AbortAllCountsPartialProgressAsDelivered)
{
    // Retries off, a start() transfer still tracks its progress: the
    // bytes its flow moved before the abort count as delivered, and
    // only the rest as aborted.
    const ComponentId src = cluster_.gpuByRank(1);
    const ComponentId dst = cluster_.gpuByRank(0);
    tm_.start(src, dst, 80e12,
              [] { FAIL() << "aborted transfer completed"; });
    sim_.events().schedule(1.0, [&] { EXPECT_EQ(tm_.abortAll(), 1u); });
    sim_.run();
    flows_.finalizeLogs();
    const ResourceId rid =
        cluster_.router().routeForFlow(src, dst, 0).resources.front();
    const Bytes moved = cluster_.topology().resource(rid).log.totalBytes();
    EXPECT_GT(moved, 1e10);

    const TransferManager::Stats &stats = tm_.stats();
    EXPECT_EQ(stats.aborted, 1u);
    EXPECT_NEAR(stats.bytes_delivered, moved, 1.0);
    EXPECT_NEAR(stats.bytes_aborted, 80e12 - moved, 1.0);
    tm_.verifyConservation();
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
     * Start a 1 GB transfer to the other leaf, through start() or, with
     * @p hop, as a one-hop startHops() call on the route resolved now.
     * Then cut the route's leaf-to-spine hop (the first
     * switch-to-switch hop) and flush the router before the launch
     * fires: fresh lookups now avoid the cut.
     */
    void
    startThenCutAndFlush(bool hop)
    {
        const ComponentId src = cluster_.gpuByRank(0);
        const ComponentId dst = cluster_.gpuByRank(12);  // other leaf
        const Route &route = cluster_.router().routeForFlow(src, dst, 0);
        latency_ = route.latency;
        if (hop) {
            HopEdge e;
            e.src = src;
            e.dst = dst;
            e.route = &route;
            std::uint64_t id = 0;
            tm_.startHops({&e, 1}, 1e9,
                          [this](std::uint32_t) { done_ = true; }, {},
                          {&id, 1});
        } else {
            tm_.start(src, dst, 1e9, [this] { done_ = true; });
        }
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
    // A fault-free hop set holds the route its caller resolved by
    // reference until its latency-delayed launch, so the launch still
    // uses the original route (and parks on the dead link), which has
    // to have survived the flush (ASan checks the reads).
    ASSERT_NO_FATAL_FAILURE(startThenCutAndFlush(true));
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
    // A transfer reuses start()'s route only while no flush has
    // happened since: this one launches on the fresh route around the
    // cut, so nothing parks and nothing is rerouted.
    tm_.enableRetries();
    ASSERT_NO_FATAL_FAILURE(startThenCutAndFlush(false));
    sim_.runUntil(2.0 * latency_);
    EXPECT_EQ(flows_.activeCount(), 1u);
    EXPECT_EQ(flows_.stalledCount(), 0u);
    sim_.run();
    EXPECT_TRUE(done_);
    EXPECT_EQ(tm_.rerouteCount(), 0u);
    tm_.verifyConservation();
}

TEST_F(TransferManagerTest, StartHopsGivesEachLaunchTimeOneEvent)
{
    // A hop set per launch time, each launched by its own event ahead
    // of an event queued later for that time.
    int landed = 0;
    startInterleaved(&landed);
    sim_.run();
    EXPECT_EQ(landed, 4);
    EXPECT_EQ(tm_.completedCount(), 4u);
    tm_.verifyConservation();
}

TEST_F(TransferRetryTest, StartHopsIdsAndScanFollowHopOrder)
{
    // On the retry path every hop is a transfer, started in hop order
    // across the launch groups: the ids increase with the hop index,
    // and a stranded-flow scan reroutes in that order too.
    tm_.enableRetries();
    int landed = 0;
    const std::vector<std::uint64_t> ids = startInterleaved(&landed);
    for (std::size_t i = 1; i < ids.size(); ++i)
        EXPECT_LT(ids[i - 1], ids[i]) << i;

    // Strand every hop for good: the NVLink hops' links die, and so
    // do both of node 0's NICs, so no reroute finds a live path.
    std::vector<std::pair<ResourceId, Bps>> cut;
    for (const HopEdge &e : interleavedEdges())
        if (e.vias == 0)
            for (const ResourceId rid : e.route->resources)
                cut.emplace_back(rid, 0.0);
    const SimTime fault = 0.01;
    sim_.events().schedule(fault, [&] {
        flows_.setCapacities(cut);
        setNicCapacityFactor(0, 0, 0.0);
        setNicCapacityFactor(0, 1, 0.0);
        tm_.notifyCapacityChange();
    });
    // The scan runs 1 ms after the fault and relaunches each hop 2 ms
    // later, through an event of its own, in the order it rerouted
    // them; a relaunch into the dead links reads stalled at once.
    sim_.runUntil(fault + 2e-3);
    EXPECT_EQ(tm_.rerouteCount(), 4u);
    std::vector<std::size_t> relaunched;
    while (relaunched.size() < ids.size() && sim_.events().step()) {
        for (std::size_t i = 0; i < ids.size(); ++i)
            if (tm_.transferStalled(ids[i]) &&
                std::find(relaunched.begin(), relaunched.end(), i) ==
                    relaunched.end())
                relaunched.push_back(i);
    }
    EXPECT_EQ(relaunched, (std::vector<std::size_t>{0, 1, 2, 3}));

    for (auto &[rid, capacity] : cut)
        capacity = cluster_.topology().resource(rid).nominal_capacity;
    flows_.setCapacities(cut);
    setNicCapacityFactor(0, 0, 1.0);
    setNicCapacityFactor(0, 1, 1.0);
    sim_.run();
    EXPECT_EQ(landed, 4);
    tm_.verifyConservation();
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

TEST_F(TransferManagerTest, DeathOnAbortWithALiveHopSet)
{
    // A hard fault needs a fault plan, which enables retries before
    // the first round starts, so abortAll() never meets a fault-free
    // hop set: finding one live is a bookkeeping bug.
    int landed = 0;
    launchGroup({{0, 4, 0}, {1, 5, 0}}, &landed);
    ASSERT_TRUE(sim_.events().step());
    ASSERT_GT(flows_.activeCount(), 0u);
    EXPECT_DEATH(tm_.abortAll(), "hop sets live");
}

} // namespace
} // namespace dstrain
