/**
 * @file
 * Solver fuzz: on randomized interleavings of start / finish /
 * setCapacity / setCapacities / cancel over generated fabrics, the
 * region-scoped incremental solver must match the from-scratch
 * fair-share oracle bitwise, and the scheduler's event-storm batching
 * must match the unbatched call sequence.
 *
 * RegionSolverFuzz runs one scheduler with verify_fair_share: after
 * every event it re-runs the from-scratch per-component oracle and
 * fatal()s on any divergence of rates, the completion index or the
 * stalled list, which also covers the events that fire inside
 * runUntil() between the test's own ops. (Verify mode disables the
 * start/finish fast paths — an incrementally assigned rate equals a
 * fresh fill mathematically but not always in the last bit — so the
 * oracle checks region-closure correctness, not float dust; see
 * DESIGN.md §6.1.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/cluster.hh"
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

/** Fuzz a verify-on scheduler through one seeded op sequence. */
void
fuzzFabric(const ClusterSpec &spec, std::uint64_t seed, int ops)
{
    Rig rig(spec, FlowSchedulerOptions{true});
    Rng rng(seed);

    std::vector<ResourceId> roce;
    std::vector<Bps> nominal;
    roceLinks(rig, roce, nominal);
    ASSERT_FALSE(roce.empty());

    const int gpus = rig.cluster.spec().totalGpus();
    std::size_t cancelled = 0;
    std::vector<FlowId> ids;

    const double fractions[] = {0.0, 0.25, 0.5, 1.0};
    SimTime t = 0.0;
    for (int op = 0; op < ops; ++op) {
        t += rng.uniform(1e-4, 5e-3);
        rig.sim.runUntil(t);

        const std::uint64_t kind = rng.below(10);
        if (kind < 5) {
            // Start: a cross-GPU transfer on an ECMP route.
            const int a = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(gpus)));
            int b = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(gpus)));
            if (b == a)
                b = (a + 1) % gpus;
            const std::uint64_t key = rng.below(1u << 20);
            FlowSpec fs;
            fs.route = &rig.cluster.router().routeForFlow(
                rig.cluster.gpuByRank(a), rig.cluster.gpuByRank(b), key);
            fs.bytes = static_cast<double>(1 + rng.below(64)) * 1e8;
            fs.on_complete = [&rig] { ++rig.done; };
            ids.push_back(rig.flows.start(std::move(fs)));
        } else if (kind < 7) {
            // Single-link capacity change.
            const std::size_t i = rng.below(roce.size());
            rig.flows.setCapacity(roce[i],
                                  nominal[i] * fractions[rng.below(4)]);
        } else if (kind == 7) {
            // Batched multi-link change (the fault-domain path).
            std::vector<std::pair<ResourceId, Bps>> batch;
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = rng.below(roce.size());
                batch.emplace_back(roce[i],
                                   nominal[i] * fractions[rng.below(4)]);
            }
            rig.flows.setCapacities(batch);
        } else if (!ids.empty()) {
            // Cancel a random flow (a no-op once it has finished).
            if (rig.flows.cancel(ids[rng.below(ids.size())]))
                ++cancelled;
        }
    }

    // Restore every link and drain: every surviving flow finishes.
    for (std::size_t i = 0; i < roce.size(); ++i)
        rig.flows.setCapacity(roce[i], nominal[i]);
    rig.sim.run();
    ASSERT_EQ(rig.flows.activeCount(), 0u);
    ASSERT_EQ(rig.flows.stalledCount(), 0u);
    ASSERT_EQ(static_cast<std::size_t>(rig.done) + cancelled, ids.size());

    // The oracle really ran, and the solver really ran scoped solves.
    EXPECT_GT(rig.flows.stats().verified_solves, 0u);
    EXPECT_GT(rig.flows.stats().region_solves, 0u);
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
               static_cast<std::uint64_t>(GetParam()), 160);
}

TEST_P(RegionSolverFuzz, SpineLeafBitIdenticalToOracle)
{
    fuzzFabric(spineLeafSpec(),
               static_cast<std::uint64_t>(GetParam()) + 1000, 160);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionSolverFuzz, testing::Range(1, 7));

/**
 * Batching-equivalence fuzz: a capacity storm applied link by link and
 * the same storm inside one ScopedBatch must give bit-identical flow
 * rates and completion instants for any op history. Drive both twins
 * through one seeded sequence of start / capacity-storm (including
 * full outages, so flows park and unpark) / cancel / cancelAll ops and
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
                base.flows.setCapacity(rid, cap);
            {
                FlowScheduler::ScopedBatch b(batched.flows);
                for (const auto &[rid, cap] : storm)
                    batched.flows.setCapacity(rid, cap);
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
            // Rare mass abort: empties the index of both twins at
            // once.
            std::size_t first = 0;
            for (Rig *tw : twins) {
                const std::size_t n = tw->flows.cancelAll();
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
            tw->flows.setCapacity(roce[i], nominal[i]);
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
