/**
 * @file
 * Solver fuzz: on randomized interleavings of start / finish /
 * one- and multi-link setCapacities / cancel, hop sets and bursts
 * of same-instant starts in one batch over generated fabrics, the
 * region-scoped incremental solver must match the from-scratch
 * fair-share oracle bitwise, hop classes must match their per-hop
 * twin, and the scheduler's event-storm batching must match the
 * unbatched call sequence.
 *
 * RegionSolverFuzz's *BitIdenticalToOracle cases run their schedulers
 * with verify_fair_share: after every event it re-runs the
 * from-scratch per-component oracle and fatal()s on any divergence of
 * rates, the completion index or the stalled list, which also covers
 * the events that fire inside runUntil() between the test's own ops.
 * (Verify mode disables the start/finish fast paths — an
 * incrementally assigned rate equals a fresh fill mathematically but
 * not always in the last bit — so the oracle checks region-closure
 * correctness, not float dust; see DESIGN.md §6.1.) The
 * *MaxMinWithFastPaths cases replay the same op sequences with the
 * fast paths on and check the max-min conditions after every op (on
 * the per-hop twin, whose every flow has an id).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/cluster.hh"
#include "hw/link.hh"
#include "net/flow_scheduler.hh"
#include "util/rng.hh"

namespace dstrain {
namespace {

/** One simulation + cluster + scheduler built from explicit options. */
struct Rig {
    Rig(const ClusterSpec &spec, const FlowSchedulerOptions &opts)
        : cluster(spec), flows(sim, cluster.topology(), opts)
    {
    }

    Simulation sim;
    Cluster cluster;
    FlowScheduler flows;
    int done = 0;
};

/** The fabric's RoCE links (uplinks + trunks) and their nominal
 * capacities — the resources multi-link faults scale in real plans. */
void
roceLinks(const Rig &rig, std::vector<ResourceId> &roce,
          std::vector<Bps> &nominal)
{
    for (const Resource &r : rig.cluster.topology().resources()) {
        if (r.cls == LinkClass::Roce) {
            roce.push_back(r.id);
            nominal.push_back(r.nominal_capacity);
        }
    }
}

/** A flow the fuzz started, with the route that fixes its cap. */
struct Started {
    FlowId id;
    const Route *route;
};

/**
 * The max-min conditions on @p rig's current rates, read through the
 * public API only: no resource carries more than its effective
 * capacity (1e-9 relative), every active flow at rate zero crosses a
 * link faulted to zero, and every other active flow runs at its cap
 * or crosses a saturated resource. The only oracle for flows that a
 * batch fast-admits, a path verify mode never takes.
 */
void
expectMaxMin(const Rig &rig, const std::vector<Started> &flows)
{
    constexpr double kTol = 1e-9;
    const Topology &topo = rig.cluster.topology();
    std::vector<double> total(topo.resourceCount(), 0.0);
    for (const Started &f : flows)
        if (rig.flows.isActive(f.id))
            for (ResourceId rid : f.route->resources)
                total[rid] += rig.flows.currentRate(f.id);
    auto effCap = [&](ResourceId rid) {
        const Resource &r = topo.resource(rid);
        return r.capacity * linkClassEfficiency(r.cls);
    };
    for (std::size_t rid = 0; rid < total.size(); ++rid) {
        const double cap = effCap(static_cast<ResourceId>(rid));
        ASSERT_LE(total[rid], cap * (1.0 + kTol))
            << "resource " << rid << " oversubscribed";
    }
    for (const Started &f : flows) {
        if (!rig.flows.isActive(f.id))
            continue;
        const double rate = rig.flows.currentRate(f.id);
        bool faulted = false;
        bool bottlenecked = rate >= f.route->rate_cap * (1.0 - kTol);
        for (ResourceId rid : f.route->resources) {
            const double cap = effCap(rid);
            faulted = faulted || cap <= 0.0;
            bottlenecked =
                bottlenecked || total[rid] >= cap * (1.0 - kTol);
        }
        if (rate <= 0.0) {
            ASSERT_TRUE(faulted) << "flow " << f.id << " idles unfaulted";
        } else {
            ASSERT_TRUE(bottlenecked)
                << "flow " << f.id << " at " << rate
                << " is below its cap with no saturated resource";
        }
    }
}

/** The rate-log state of every resource of @p a equals @p b's. */
void
expectSameLogs(const Rig &a, const Rig &b)
{
    const auto &ra = a.cluster.topology().resources();
    const auto &rb = b.cluster.topology().resources();
    for (std::size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(ra[i].log.currentRate(), rb[i].log.currentRate())
            << "rate of resource " << i << " diverged";
        ASSERT_EQ(ra[i].log.totalBytes(), rb[i].log.totalBytes())
            << "bytes of resource " << i << " diverged";
    }
}

/**
 * Fuzz a scheduler through one seeded op sequence. With @p verify the
 * oracle checks every event bitwise; without it, the fast paths run
 * (inside bursts too) and expectMaxMin() checks every op.
 *
 * Hop-set ops run on two rigs: the primary starts them through
 * startHops(), so runs of equal disjoint hops become hop classes, and
 * a per-hop twin starts the same hops as plain flows in the same
 * batches. The twin replays every other op too; after each op both
 * must hold bitwise-equal rates, bytes and landings. A forced
 * materialization changes the capacity of a link a hop-set hop
 * crosses.
 */
void
fuzzFabric(const ClusterSpec &spec, std::uint64_t seed, int ops,
           bool verify)
{
    Rig rig(spec, FlowSchedulerOptions{verify});
    Rig twin(spec, FlowSchedulerOptions{verify});
    Rig *const rigs[] = {&rig, &twin};
    Rng rng(seed);

    std::vector<ResourceId> roce;
    std::vector<Bps> nominal;
    roceLinks(rig, roce, nominal);
    ASSERT_FALSE(roce.empty());

    const int gpus = rig.cluster.spec().totalGpus();
    std::size_t cancelled = 0;
    std::size_t hop_total = 0;
    // Plain flows, per rig (ids differ: a class takes one slot), and
    // every flow of the twin for its max-min check.
    std::vector<Started> flows;
    std::vector<FlowId> twin_ids;
    std::vector<Started> twin_flows;
    std::vector<const Route *> hop_routes;

    auto routeOf = [&](Rig &r, int a, int b, std::uint64_t key) {
        return &r.cluster.router().routeForFlow(r.cluster.gpuByRank(a),
                                                r.cluster.gpuByRank(b),
                                                key);
    };
    auto start = [&] {
        // A cross-GPU transfer on an ECMP route.
        const int a = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(gpus)));
        int b = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(gpus)));
        if (b == a)
            b = (a + 1) % gpus;
        const std::uint64_t key = rng.below(1u << 20);
        const Bytes bytes = static_cast<double>(1 + rng.below(64)) * 1e8;
        for (Rig *r : rigs) {
            FlowSpec fs;
            fs.route = routeOf(*r, a, b, key);
            fs.bytes = bytes;
            fs.on_complete = [r] { ++r->done; };
            const Route *route = fs.route;
            const FlowId id = r->flows.start(std::move(fs));
            if (r == &rig) {
                flows.push_back({id, route});
            } else {
                twin_ids.push_back(id);
                twin_flows.push_back({id, route});
            }
        }
    };
    auto startHops = [&] {
        // A ring segment of equal hops: consecutive ranks from a
        // random start, on one ECMP key, as a collective round's
        // launch group.
        const std::size_t k = 2 + rng.below(7);
        const int first = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(gpus)));
        const std::uint64_t key = rng.below(1u << 20);
        const Bytes bytes = static_cast<double>(1 + rng.below(64)) * 1e8;
        std::vector<const Route *> routes;
        for (std::size_t i = 0; i < k; ++i) {
            const int a = (first + static_cast<int>(i)) % gpus;
            routes.push_back(routeOf(rig, a, (a + 1) % gpus, key));
        }
        hop_routes.insert(hop_routes.end(), routes.begin(), routes.end());
        hop_total += k;
        const std::vector<Bps> caps(k, 0.0);
        HopSetSpec hs;
        hs.routes = routes;
        hs.rate_caps = caps;
        hs.bytes = bytes;
        hs.on_complete = [&rig](std::uint32_t n) {
            rig.done += static_cast<int>(n);
        };
        rig.flows.startHops(std::move(hs));
        for (std::size_t i = 0; i < k; ++i) {
            const int a = (first + static_cast<int>(i)) % gpus;
            FlowSpec fs;
            fs.route = routeOf(twin, a, (a + 1) % gpus, key);
            fs.bytes = bytes;
            fs.on_complete = [&twin] { ++twin.done; };
            const Route *route = fs.route;
            twin_flows.push_back({twin.flows.start(std::move(fs)), route});
        }
    };
    const double fractions[] = {0.0, 0.25, 0.5, 1.0};
    auto setOneCapacity = [&] {
        const std::size_t i = rng.below(roce.size());
        const double f = fractions[rng.below(4)];
        for (Rig *r : rigs)
            r->flows.setCapacities({{roce[i], nominal[i] * f}});
    };
    auto materialize = [&] {
        // Halve or restore a link some hop-set hop crosses; a live
        // class over it splits into its hops.
        if (hop_routes.empty())
            return;
        const Route *route = hop_routes[rng.below(hop_routes.size())];
        const ResourceId rid =
            route->resources[rng.below(route->resources.size())];
        const double f = rng.below(2) == 0 ? 0.5 : 1.0;
        for (Rig *r : rigs) {
            const Bps cap =
                r->cluster.topology().resource(rid).nominal_capacity * f;
            r->flows.setCapacities({{rid, cap}});
        }
    };
    auto cancel = [&] {
        // A no-op once the flow has finished.
        if (flows.empty())
            return;
        const std::size_t i = rng.below(flows.size());
        const bool ok = rig.flows.cancel(flows[i].id);
        ASSERT_EQ(twin.flows.cancel(twin_ids[i]), ok);
        if (ok)
            ++cancelled;
    };
    auto check = [&] {
        if (!verify) {
            ASSERT_NO_FATAL_FAILURE(expectMaxMin(twin, twin_flows));
        }
        ASSERT_NO_FATAL_FAILURE(expectSameLogs(rig, twin));
        ASSERT_EQ(rig.done, twin.done);
        ASSERT_EQ(rig.flows.activeCount(), twin.flows.activeCount());
        for (std::size_t i = 0; i < flows.size(); ++i)
            ASSERT_EQ(rig.flows.currentRate(flows[i].id),
                      twin.flows.currentRate(twin_ids[i]));
    };

    SimTime t = 0.0;
    for (int op = 0; op < ops; ++op) {
        t += rng.uniform(1e-4, 5e-3);
        for (Rig *r : rigs)
            r->sim.runUntil(t);
        ASSERT_NO_FATAL_FAILURE(check());

        const std::uint64_t kind = rng.below(14);
        if (kind < 5) {
            start();
        } else if (kind < 7) {
            setOneCapacity();
        } else if (kind == 7) {
            // Batched multi-link change (the fault-domain path).
            std::vector<std::pair<ResourceId, Bps>> batch;
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = rng.below(roce.size());
                batch.emplace_back(roce[i],
                                   nominal[i] * fractions[rng.below(4)]);
            }
            for (Rig *r : rigs)
                r->flows.setCapacities(batch);
        } else if (kind < 10) {
            ASSERT_NO_FATAL_FAILURE(cancel());
        } else if (kind < 12) {
            // Burst: a collective round's same-instant starts in one
            // batch, now and then preceded by a capacity change or a
            // cancel inside the same batch, and mixed with hop sets.
            FlowScheduler::ScopedBatch b0(rig.flows);
            FlowScheduler::ScopedBatch b1(twin.flows);
            const std::uint64_t n = 2 + rng.below(7);
            for (std::uint64_t k = 0; k < n; ++k) {
                const std::uint64_t extra = rng.below(8);
                if (extra == 0)
                    setOneCapacity();
                else if (extra == 1)
                    ASSERT_NO_FATAL_FAILURE(cancel());
                else if (extra == 2)
                    startHops();
                start();
            }
        } else if (kind == 12) {
            FlowScheduler::ScopedBatch b0(rig.flows);
            FlowScheduler::ScopedBatch b1(twin.flows);
            startHops();
        } else {
            materialize();
        }
        ASSERT_NO_FATAL_FAILURE(check());
    }

    // Restore every link and drain: every surviving flow finishes.
    for (Rig *r : rigs)
        for (const Resource &res : r->cluster.topology().resources())
            r->flows.setCapacities({{res.id, res.nominal_capacity}});
    for (Rig *r : rigs)
        r->sim.run();
    ASSERT_NO_FATAL_FAILURE(check());
    for (Rig *r : rigs) {
        ASSERT_EQ(r->flows.activeCount(), 0u);
        ASSERT_EQ(r->flows.stalledCount(), 0u);
        ASSERT_EQ(static_cast<std::size_t>(r->done) + cancelled,
                  flows.size() + hop_total);
    }

    // The solver really ran scoped solves, bursts really deferred
    // starts, hop sets really formed classes, and the oracle (or,
    // without it, the fast paths) ran.
    EXPECT_GT(rig.flows.stats().region_solves, 0u);
    EXPECT_GT(rig.flows.stats().batched_events, 0u);
    EXPECT_GT(rig.flows.stats().class_starts, 0u);
    EXPECT_EQ(twin.flows.stats().class_starts, 0u);
    if (verify)
        EXPECT_GT(rig.flows.stats().verified_solves, 0u);
    else
        EXPECT_GT(rig.flows.stats().fast_starts, 0u);
}

ClusterSpec
fatTreeSpec()
{
    ClusterSpec spec;
    spec.nodes = 16;
    spec.fabric.kind = FabricKind::FatTree;
    spec.fabric.fat_tree_k = 4;
    return spec;
}

ClusterSpec
spineLeafSpec()
{
    ClusterSpec spec;
    spec.nodes = 8;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 4;
    spec.fabric.spines = 2;
    return spec;
}

class RegionSolverFuzz : public testing::TestWithParam<int>
{
};

TEST_P(RegionSolverFuzz, FatTreeBitIdenticalToOracle)
{
    fuzzFabric(fatTreeSpec(),
               static_cast<std::uint64_t>(GetParam()), 160, true);
}

TEST_P(RegionSolverFuzz, SpineLeafBitIdenticalToOracle)
{
    fuzzFabric(spineLeafSpec(),
               static_cast<std::uint64_t>(GetParam()) + 1000, 160, true);
}

TEST_P(RegionSolverFuzz, FatTreeMaxMinWithFastPaths)
{
    fuzzFabric(fatTreeSpec(),
               static_cast<std::uint64_t>(GetParam()), 160, false);
}

TEST_P(RegionSolverFuzz, SpineLeafMaxMinWithFastPaths)
{
    fuzzFabric(spineLeafSpec(),
               static_cast<std::uint64_t>(GetParam()) + 1000, 160, false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionSolverFuzz, testing::Range(1, 7));

/**
 * Batching-equivalence fuzz: a capacity storm applied link by link and
 * the same storm inside one ScopedBatch must give bit-identical flow
 * rates and completion instants for any op history. Drive both twins
 * through one seeded sequence of start / capacity-storm (including
 * full outages, so flows park and unpark) / cancel / mass-cancel ops and
 * compare them after every op and at the drain.
 */
void
fuzzImplementationTwins(const ClusterSpec &spec, std::uint64_t seed,
                        int ops)
{
    Rig base(spec, FlowSchedulerOptions{});
    Rig batched(spec, FlowSchedulerOptions{});  // storms arrive batched
    Rig *const twins[] = {&base, &batched};
    Rng rng(seed);

    std::vector<ResourceId> roce;
    std::vector<Bps> nominal;
    roceLinks(base, roce, nominal);
    ASSERT_FALSE(roce.empty());

    const int gpus = base.cluster.spec().totalGpus();
    std::vector<FlowId> ids;

    auto compare = [&] {
        for (FlowId id : ids) {
            ASSERT_EQ(base.flows.isActive(id), batched.flows.isActive(id))
                << "activity diverged for flow " << id;
            ASSERT_EQ(base.flows.currentRate(id),
                      batched.flows.currentRate(id))
                << "rate diverged for flow " << id;
        }
        ASSERT_EQ(base.flows.activeCount(), batched.flows.activeCount());
        ASSERT_EQ(base.flows.stalledCount(),
                  batched.flows.stalledCount());
        ASSERT_EQ(base.done, batched.done);
    };

    const double fractions[] = {0.0, 0.25, 0.5, 1.0};
    SimTime t = 0.0;
    for (int op = 0; op < ops; ++op) {
        t += rng.uniform(1e-4, 5e-3);
        for (Rig *tw : twins)
            tw->sim.runUntil(t);

        const std::uint64_t kind = rng.below(12);
        if (kind < 6) {
            const int a = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(gpus)));
            int b = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(gpus)));
            if (b == a)
                b = (a + 1) % gpus;
            const std::uint64_t key = rng.below(1u << 20);
            const Bytes bytes =
                static_cast<double>(1 + rng.below(64)) * 1e8;
            FlowId first = 0;
            for (Rig *tw : twins) {
                FlowSpec fs;
                fs.route = &tw->cluster.router().routeForFlow(
                    tw->cluster.gpuByRank(a), tw->cluster.gpuByRank(b),
                    key);
                fs.bytes = bytes;
                fs.on_complete = [tw] { ++tw->done; };
                const FlowId id = tw->flows.start(std::move(fs));
                if (tw == &base)
                    first = id;
                else
                    ASSERT_EQ(id, first);
            }
            ids.push_back(first);
        } else if (kind < 9) {
            // Capacity storm over a few links; the batched twin gets
            // it as one ScopedBatch (capacity-only batches are
            // state-equivalent), the base twin link by link.
            std::vector<std::pair<ResourceId, Bps>> storm;
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = rng.below(roce.size());
                storm.emplace_back(roce[i],
                                   nominal[i] * fractions[rng.below(4)]);
            }
            for (const auto &[rid, cap] : storm)
                base.flows.setCapacities({{rid, cap}});
            {
                FlowScheduler::ScopedBatch b(batched.flows);
                for (const auto &[rid, cap] : storm)
                    batched.flows.setCapacities({{rid, cap}});
            }
        } else if (kind == 9 && !ids.empty()) {
            const FlowId id = ids[rng.below(ids.size())];
            Bytes first = 0.0;
            bool first_ok = false;
            for (Rig *tw : twins) {
                Bytes rem = 0.0;
                const bool ok = tw->flows.cancel(id, &rem);
                if (tw == &base) {
                    first = rem;
                    first_ok = ok;
                } else {
                    ASSERT_EQ(ok, first_ok);
                    ASSERT_EQ(rem, first) << "remainder diverged";
                }
            }
        } else if (kind == 10 && op > 0 && op % 37 == 0) {
            // Rare mass abort: cancels every tracked flow of both
            // twins in start order, emptying their indexes.
            std::size_t first = 0;
            for (Rig *tw : twins) {
                std::size_t n = 0;
                for (const FlowId id : ids)
                    n += tw->flows.cancel(id) ? 1 : 0;
                ASSERT_EQ(tw->flows.activeCount(), 0u);
                if (tw == &base)
                    first = n;
                else
                    ASSERT_EQ(n, first);
            }
            ids.clear();
        }
        compare();
    }

    for (std::size_t i = 0; i < roce.size(); ++i)
        for (Rig *tw : twins)
            tw->flows.setCapacities({{roce[i], nominal[i]}});
    compare();
    ASSERT_EQ(batched.sim.run(), base.sim.run()) << "drain times diverged";
    compare();
    ASSERT_EQ(base.flows.activeCount(), 0u);

    // The batched twin really exercised its distinct machinery.
    EXPECT_EQ(base.flows.stats().batched_events, 0u);
    EXPECT_GT(batched.flows.stats().batched_events, 0u);
}

class ImplementationTwinFuzz : public testing::TestWithParam<int>
{
};

TEST_P(ImplementationTwinFuzz, FatTreeAllImplementationsBitIdentical)
{
    fuzzImplementationTwins(
        fatTreeSpec(), static_cast<std::uint64_t>(GetParam()) + 5000,
        140);
}

TEST_P(ImplementationTwinFuzz, SpineLeafAllImplementationsBitIdentical)
{
    fuzzImplementationTwins(
        spineLeafSpec(),
        static_cast<std::uint64_t>(GetParam()) + 6000, 140);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplementationTwinFuzz,
                         testing::Range(1, 6));

} // namespace
} // namespace dstrain
