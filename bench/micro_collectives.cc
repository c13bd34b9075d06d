/**
 * @file
 * JSON-emitting micro-benchmark of the collective-algorithm library:
 * back-to-back collectives per (algorithm, op, cluster shape) cell,
 * tracking collectives/sec, simulator events/sec and the fabric bytes
 * each schedule puts on the wire. The grid pins the scheduling cost
 * of every family — ring, pairwise, tree and the two-level
 * hierarchical decomposition — so an algorithm change that bloats
 * round counts or flow churn shows up as a collectives/sec regression
 * in CI (tools/perf_guard.py, baseline
 * bench/baselines/micro_collectives.jsonl). Collectives/sec, not
 * events/sec, is the guarded rate: a round's hops share launch
 * events, so a cheaper hop path runs fewer events per collective.
 *
 * Output is one JSON object per line:
 *
 *   ./micro_collectives [--reps N] [--payload-gb G]
 *
 * The event_queue_churn record is the machine-speed canary
 * perf_guard.py divides out before scoring (see micro_flow_scheduler).
 */

#include <functional>
#include <iostream>

#include "bench_common.hh"
#include "collectives/volume.hh"
#include "net/flow_scheduler.hh"
#include "util/args.hh"

using namespace dstrain;

namespace {

/**
 * One grid cell: @p reps collectives of @p op under @p algo, chained
 * back to back (each launches from the previous one's completion
 * callback) over the world group of a @p nodes-node cluster.
 */
bench::JsonObject
collectiveScenario(const std::string &name, int nodes, CollectiveOp op,
                   CollectiveAlgo algo, int reps, Bytes payload)
{
    bench::Stopwatch watch;
    Simulation sim;
    ClusterSpec spec;
    spec.nodes = nodes;
    const int ranks = spec.totalGpus();
    Cluster cluster(std::move(spec));
    FlowScheduler flows(sim, cluster.topology());
    TransferManager tm(sim, cluster, flows);
    CollectiveEngine coll(tm);
    const CommGroup group = CommGroup::worldOf(ranks);

    CollectiveOptions opts;
    opts.algorithm = algo;
    int remaining = reps;
    std::function<void()> issue = [&] {
        if (remaining == 0)
            return;
        --remaining;
        switch (op) {
          case CollectiveOp::AllReduce:
            coll.allReduce(group, payload, issue, opts);
            break;
          case CollectiveOp::ReduceScatter:
            coll.reduceScatter(group, payload, issue, opts);
            break;
          case CollectiveOp::AllGather:
            coll.allGather(group, payload, issue, opts);
            break;
          case CollectiveOp::AllToAll:
            coll.allToAll(group, payload, issue, opts);
            break;
          case CollectiveOp::Broadcast:
            coll.broadcast(group, 0, payload, issue, opts);
            break;
          case CollectiveOp::Reduce:
            coll.reduce(group, 0, payload, issue, opts);
            break;
        }
    };
    issue();
    sim.run();
    const double secs = watch.seconds();

    // The concrete algorithm and closed-form traffic that ran, from
    // the engine's own accounting (one usage row per scenario).
    Bytes fabric = 0.0;
    std::string ran = "none";
    for (const CollectiveUsage &u : coll.usage()) {
        fabric += u.fabric_bytes;
        ran = collectiveAlgoName(u.algo);
    }

    bench::JsonObject json;
    json.add("scenario", name)
        .add("op", std::string(collectiveOpName(op)))
        .add("algorithm", ran)
        .add("ranks", ranks)
        .add("nodes", nodes)
        .add("collectives", coll.completedCount())
        .add("fabric_bytes", fabric)
        .add("sim_seconds", sim.now())
        .add("events", sim.events().executedCount())
        .add("wall_seconds", secs)
        .add("events_per_sec", sim.events().executedCount() / secs)
        .add("collectives_per_sec", coll.completedCount() / secs);
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("micro_collectives",
                   "collective-algorithm micro-benchmarks "
                   "(JSON per line)");
    args.addOption("reps", "40",
                   "back-to-back collectives per grid cell");
    args.addOption("payload-gb", "0.5",
                   "per-collective logical payload (GB)");
    if (!args.parse(argc, argv))
        return 1;

    setLogLevel(LogLevel::Silent);  // keep stdout pure JSON
    const int reps = args.getInt("reps");
    const Bytes payload = args.getDouble("payload-gb") * 1e9;

    // Intra-node grid: every family that can schedule the op on one
    // 4-GPU node.
    std::cout << collectiveScenario("allreduce_ring_n1", 1,
                                    CollectiveOp::AllReduce,
                                    CollectiveAlgo::Ring, reps, payload)
                     .str()
              << "\n";
    std::cout << collectiveScenario("allreduce_pairwise_n1", 1,
                                    CollectiveOp::AllReduce,
                                    CollectiveAlgo::Pairwise, reps,
                                    payload)
                     .str()
              << "\n";
    std::cout << collectiveScenario("allreduce_tree_n1", 1,
                                    CollectiveOp::AllReduce,
                                    CollectiveAlgo::Tree, reps, payload)
                     .str()
              << "\n";
    std::cout << collectiveScenario("alltoall_pairwise_n1", 1,
                                    CollectiveOp::AllToAll,
                                    CollectiveAlgo::Pairwise, reps,
                                    payload)
                     .str()
              << "\n";

    // Dual-node grid: the flat ring vs the two-level decomposition —
    // the pair whose RoCE footprints the paper's regimes distinguish.
    std::cout << collectiveScenario("allreduce_ring_n2", 2,
                                    CollectiveOp::AllReduce,
                                    CollectiveAlgo::Ring, reps, payload)
                     .str()
              << "\n";
    std::cout << collectiveScenario("allreduce_hierarchical_n2", 2,
                                    CollectiveOp::AllReduce,
                                    CollectiveAlgo::Hierarchical, reps,
                                    payload)
                     .str()
              << "\n";
    std::cout << collectiveScenario("allgather_hierarchical_n2", 2,
                                    CollectiveOp::AllGather,
                                    CollectiveAlgo::Hierarchical, reps,
                                    payload)
                     .str()
              << "\n";

    std::cout << bench::eventQueueChurn().str() << "\n";
    return 0;
}
