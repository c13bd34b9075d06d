/**
 * @file
 * google-benchmark micro-benchmarks of the simulator itself — not a
 * paper artifact, but the performance guardrail that keeps the
 * reproduction runs (hundreds of simulated iterations) fast.
 */

#include <benchmark/benchmark.h>

#include "collectives/communicator.hh"
#include "core/presets.hh"
#include "net/flow_scheduler.hh"
#include "sim/event_queue.hh"

using namespace dstrain;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        int fired = 0;
        for (int i = 0; i < n; ++i)
            q.schedule(static_cast<SimTime>(i) * 1e-6,
                       [&fired] { ++fired; });
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_FlowSchedulerFairShare(benchmark::State &state)
{
    const int flows = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulation sim;
        Cluster cluster(xe8545Cluster(2));
        FlowScheduler sched(sim, cluster.topology());
        const TagId tag = sched.tags().intern("bench");
        for (int i = 0; i < flows; ++i) {
            FlowSpec spec;
            const int src = i % 4;
            const int dst = 4 + i % 4;
            spec.route = &cluster.router().route(
                cluster.gpuByRank(src), cluster.gpuByRank(dst));
            spec.bytes = 1e9;
            spec.tag = tag;
            sched.start(std::move(spec));
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowSchedulerFairShare)->Arg(16)->Arg(128);

void
BM_RingAllReduce(benchmark::State &state)
{
    const int ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulation sim;
        Cluster cluster(xe8545Cluster(ranks > 4 ? 2 : 1));
        FlowScheduler sched(sim, cluster.topology());
        TransferManager tm(sim, cluster, sched);
        CollectiveEngine coll(tm);
        bool done = false;
        coll.allReduce(CommGroup::worldOf(ranks), 1e9,
                       [&done] { done = true; });
        sim.run();
        benchmark::DoNotOptimize(done);
    }
}
BENCHMARK(BM_RingAllReduce)->Arg(4)->Arg(8);

void
BM_FullExperimentIteration(benchmark::State &state)
{
    for (auto _ : state) {
        ExperimentConfig cfg =
            paperExperiment(1, StrategyConfig::zero(2), 1.4);
        cfg.iterations = 2;
        cfg.warmup = 1;
        Experiment exp(std::move(cfg));
        ExperimentReport r = exp.run();
        benchmark::DoNotOptimize(r.tflops);
    }
}
BENCHMARK(BM_FullExperimentIteration);

} // namespace

BENCHMARK_MAIN();
