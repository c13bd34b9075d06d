/**
 * @file
 * Property tests for the max-min fairness of the flow scheduler:
 * the formal definition (no flow's rate can be raised without
 * lowering a flow of equal or smaller rate) checked on constructed
 * and randomized scenarios by sampling live rates mid-run.
 */

#include <gtest/gtest.h>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "util/rng.hh"

namespace dstrain {
namespace {

/** One shared 80 GBps NVLink pair, flows with assorted caps. */
TEST(FairnessTest, CappedFlowsFreeCapacityForOthers)
{
    Simulation sim;
    Cluster cluster{ClusterSpec{}};
    FlowScheduler flows(sim, cluster.topology());

    const Route &route = cluster.router().route(cluster.gpuByRank(0),
                                                cluster.gpuByRank(1));
    std::vector<FlowId> ids;
    const double caps[] = {5e9, 0.0, 0.0};  // 0 = uncapped
    for (double cap : caps) {
        FlowSpec spec;
        spec.route = &route;
        spec.bytes = 1e12;  // long-lived
        spec.rate_cap = cap;
        ids.push_back(flows.start(std::move(spec)));
    }

    // Sample rates shortly after start: the capped flow pins at
    // 5 GBps; the other two split the remaining 75 GBps.
    sim.events().scheduleAfter(1e-3, [&] {
        EXPECT_NEAR(flows.currentRate(ids[0]), 5e9, 1e3);
        EXPECT_NEAR(flows.currentRate(ids[1]), 37.5e9, 1e3);
        EXPECT_NEAR(flows.currentRate(ids[2]), 37.5e9, 1e3);
    });
    sim.runUntil(2e-3);
}

TEST(FairnessTest, MultiHopFlowLimitedByItsBottleneck)
{
    // A GPU->remote-GPU flow (capped ~6.5 GBps by the SerDes model)
    // shares its NVLink-free path; an NVLink-only flow coexists at
    // full speed.
    Simulation sim;
    ClusterSpec spec;
    spec.nodes = 2;
    Cluster cluster(spec);
    FlowScheduler flows(sim, cluster.topology());

    FlowSpec remote;
    remote.route = &cluster.router().route(cluster.gpuByRank(0),
                                           cluster.gpuByRank(4));
    remote.bytes = 1e12;
    const FlowId rid = flows.start(std::move(remote));

    FlowSpec local;
    local.route = &cluster.router().route(cluster.gpuByRank(1),
                                          cluster.gpuByRank(2));
    local.bytes = 1e12;
    const FlowId lid = flows.start(std::move(local));

    sim.events().scheduleAfter(1e-3, [&] {
        EXPECT_NEAR(flows.currentRate(rid), 32e9 * 0.82 * 0.248, 1e6);
        EXPECT_NEAR(flows.currentRate(lid), 80e9, 1e3);
    });
    sim.runUntil(2e-3);
}

/**
 * Randomized max-min property: on a single shared resource, the
 * water-filling outcome is: caps sorted ascending are granted until
 * the fair share drops below the next cap; everyone else gets the
 * equal residual share. The seed's starts arrive one by one or, when
 * @p batched, all inside one batch (where the starts that fit are
 * fast-admitted and the rest share the flush's solve).
 */
void
expectWaterFilling(std::uint64_t seed, bool batched)
{
    Rng rng(seed);
    Simulation sim;
    Cluster cluster{ClusterSpec{}};
    FlowScheduler flows(sim, cluster.topology());
    const Route &route = cluster.router().route(cluster.gpuByRank(2),
                                                cluster.gpuByRank(3));
    const double capacity = 80e9;

    const int n = 2 + static_cast<int>(rng.below(6));
    std::vector<double> caps;
    std::vector<FlowId> ids;
    if (batched)
        flows.beginBatch();
    for (int i = 0; i < n; ++i) {
        const double cap = rng.uniform(2e9, 60e9);
        caps.push_back(cap);
        FlowSpec spec;
        spec.route = &route;
        spec.bytes = 1e13;
        spec.rate_cap = cap;
        ids.push_back(flows.start(std::move(spec)));
    }
    if (batched)
        flows.endBatch();

    // Reference water-filling.
    std::vector<double> expect(caps.size(), 0.0);
    {
        std::vector<std::size_t> order(caps.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return caps[a] < caps[b];
                  });
        double residual = capacity;
        std::size_t remaining = caps.size();
        for (std::size_t idx : order) {
            const double share = residual / static_cast<double>(remaining);
            expect[idx] = std::min(caps[idx], share);
            residual -= expect[idx];
            --remaining;
        }
    }

    sim.events().scheduleAfter(1e-3, [&] {
        double total = 0.0;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            EXPECT_NEAR(flows.currentRate(ids[i]), expect[i], 1e4)
                << "flow " << i << " cap " << caps[i];
            total += flows.currentRate(ids[i]);
        }
        EXPECT_LE(total, capacity * (1.0 + 1e-9));
    });
    sim.runUntil(2e-3);
}

class MaxMinProperty : public testing::TestWithParam<int>
{
};

TEST_P(MaxMinProperty, SingleResourceWaterFilling)
{
    for (const bool batched : {false, true}) {
        SCOPED_TRACE(batched ? "starts in one batch" : "starts one by one");
        expectWaterFilling(static_cast<std::uint64_t>(GetParam()),
                           batched);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty, testing::Range(1, 16));

} // namespace
} // namespace dstrain
