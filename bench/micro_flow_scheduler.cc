/**
 * @file
 * JSON-emitting micro-benchmark of the simulator hot paths: the
 * flow scheduler's region-scoped fair-share solving (dense contended
 * scenarios), the event queue's schedule/cancel/pop churn, and the
 * SweepRunner's jobs=1 vs jobs=N wall-clock on a small experiment
 * sweep (with a byte-identity check of the two result sets).
 *
 * Output is one JSON object per line so the bench trajectory can be
 * recorded and diffed across revisions:
 *
 *   ./micro_flow_scheduler [--jobs N] [--waves W] [--per-wave F]
 *                          [--big-waves W] [--big-per-wave F]
 *                          [--skip-sweep]
 */

#include <iostream>
#include <sstream>

#include "bench_common.hh"
#include "core/sweep_runner.hh"
#include "net/flow_scheduler.hh"
#include "util/args.hh"

using namespace dstrain;

namespace {

/** Region-solver telemetry shared by every scheduler scenario. */
void
addSolverStats(bench::JsonObject &json, const FlowScheduler &sched)
{
    const FlowScheduler::Stats &stats = sched.stats();
    json.add("recomputes", stats.recomputes)
        .add("fast_starts", stats.fast_starts)
        .add("fast_finishes", stats.fast_finishes)
        .add("rate_updates", stats.rate_updates)
        .add("region_solves", stats.region_solves)
        .add("region_peak", stats.region_peak)
        .add("region_avg_flows",
             stats.region_solves
                 ? static_cast<double>(stats.region_flows) /
                       static_cast<double>(stats.region_solves)
                 : 0.0)
        .add("completion_index_updates", stats.completion_index_updates)
        .add("completion_scans_avoided", stats.completion_scans_avoided)
        .add("batched_events", stats.batched_events)
        .add("stalled_parks", stats.stalled_parks);
    // Histogram bucket k counts region solves with [2^k, 2^(k+1))
    // flows; rendered as a JSON array aligned with bucket index.
    std::ostringstream hist;
    hist << "[";
    for (std::size_t k = 0; k < FlowScheduler::kRegionHistBuckets; ++k)
        hist << (k ? "," : "") << stats.region_hist[k];
    hist << "]";
    json.addRaw("region_hist", hist.str());
}

/**
 * Dense-flow scenario: waves of contending flows across the
 * dual-node cluster, so completions and admissions constantly
 * overlap and the scheduler mixes full recomputes with the
 * incremental paths.
 */
bench::JsonObject
denseFlowScenario(int waves, int per_wave)
{
    bench::Stopwatch watch;
    Simulation sim;
    Cluster cluster(xe8545Cluster(2));
    FlowScheduler sched(sim, cluster.topology());

    int done = 0;
    for (int w = 0; w < waves; ++w) {
        sim.events().schedule(w * 0.01, [&, w] {
            // The wave is one DES event posting per_wave
            // same-timestamp starts: batch them so the storm closes
            // one region and solves once instead of per_wave times.
            FlowScheduler::ScopedBatch batch(sched);
            for (int i = 0; i < per_wave; ++i) {
                FlowSpec spec;
                const int src = (i + w) % 8;
                int dst = (i * 3 + w) % 8;
                if (dst == src)
                    dst = (dst + 1) % 8;
                spec.route = &cluster.router().route(
                    cluster.gpuByRank(src), cluster.gpuByRank(dst));
                spec.bytes = 1e8 + 1e6 * i;
                spec.on_complete = [&done] { ++done; };
                sched.start(std::move(spec));
            }
        });
    }
    sim.run();
    const double secs = watch.seconds();

    bench::JsonObject json;
    json.add("scenario", std::string("dense_flows"))
        .add("flows", done)
        .add("events", sim.events().executedCount())
        .add("wall_seconds", secs)
        .add("events_per_sec", sim.events().executedCount() / secs);
    addSolverStats(json, sched);
    return json;
}

/** How wave w spreads its flows: flow i starts at rank
 * (i * src_i + w * src_w) mod world and routes with ECMP key
 * i * key_i + w * key_w. */
struct Spread {
    int src_i;
    int src_w;
    int key_i;
    int key_w;
};

/**
 * Multi-switch fabric scenario: waves of flows over the fabric of
 * @p spec, each jumping half the world so src and dst land on
 * different leaves (or pods) and the flow crosses the upper tiers,
 * spread over the trunks by per-flow ECMP. A full re-fill per event
 * would cover every flow in flight; the region solver's per-event
 * cost tracks the region (a few flows around two edge switches), not
 * the cluster.
 */
bench::JsonObject
fabricScenario(const std::string &name, ClusterSpec spec, Spread spread,
               int waves, int per_wave)
{
    bench::Stopwatch watch;
    Simulation sim;
    const int world = spec.totalGpus();
    Cluster cluster(std::move(spec));
    FlowScheduler sched(sim, cluster.topology());
    int done = 0;
    for (int w = 0; w < waves; ++w) {
        sim.events().schedule(w * 0.01, [&, w] {
            // The wave is one DES event posting per_wave
            // same-timestamp starts: batch them so the storm closes
            // one region and solves once instead of per_wave times.
            FlowScheduler::ScopedBatch batch(sched);
            for (int i = 0; i < per_wave; ++i) {
                FlowSpec fs;
                const int src = (i * spread.src_i + w * spread.src_w) %
                                world;
                int dst = (src + world / 2 + i) % world;
                if (dst == src)
                    dst = (dst + 1) % world;
                fs.route = &cluster.router().routeForFlow(
                    cluster.gpuByRank(src), cluster.gpuByRank(dst),
                    static_cast<std::uint64_t>(i * spread.key_i +
                                               w * spread.key_w));
                fs.bytes = 1e8 + 1e6 * i;
                fs.on_complete = [&done] { ++done; };
                sched.start(std::move(fs));
            }
        });
    }
    sim.run();
    const double secs = watch.seconds();

    bench::JsonObject json;
    json.add("scenario", name)
        .add("links", cluster.topology().halfLinkCount())
        .add("switches",
             static_cast<std::uint64_t>(cluster.switches().size()))
        .add("flows", done)
        .add("events", sim.events().executedCount())
        .add("wall_seconds", secs)
        .add("events_per_sec", sim.events().executedCount() / secs);
    addSolverStats(json, sched);
    return json;
}

/** @p nodes XE8545 nodes on a k-ary fat tree. */
ClusterSpec
fatTreeSpec(int nodes, int k)
{
    ClusterSpec spec = xe8545Cluster(nodes);
    spec.fabric.kind = FabricKind::FatTree;
    spec.fabric.fat_tree_k = k;
    return spec;
}

/** The sweep used for the jobs=1 vs jobs=N comparison. */
std::vector<ExperimentConfig>
sweepPoints()
{
    std::vector<ExperimentConfig> configs;
    for (const StrategyConfig &s : comparisonLineup(1)) {
        ExperimentConfig cfg = paperExperiment(1, s);
        bench::applyRunSettings(cfg, 3);
        configs.push_back(std::move(cfg));
    }
    return configs;
}

bench::JsonObject
sweepComparison(int jobs)
{
    bench::Stopwatch watch;
    const std::vector<ExperimentReport> serial =
        SweepRunner(1).run(sweepPoints());
    const double serial_secs = watch.seconds();

    watch.reset();
    const std::vector<ExperimentReport> parallel =
        SweepRunner(jobs).run(sweepPoints());
    const double parallel_secs = watch.seconds();

    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
        identical = reportFingerprint(serial[i]) ==
                    reportFingerprint(parallel[i]);
    }

    bench::JsonObject json;
    json.add("scenario", std::string("sweep_jobs"))
        .add("points", static_cast<std::uint64_t>(serial.size()))
        .add("jobs", jobs)
        .add("jobs1_wall_seconds", serial_secs)
        .add("jobsN_wall_seconds", parallel_secs)
        .add("speedup", serial_secs / parallel_secs)
        .add("reports_identical", identical);
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("micro_flow_scheduler",
                   "hot-path micro-benchmarks (JSON per line)");
    args.addOption("jobs", "0",
                   "sweep worker threads (0 = one per hardware "
                   "thread)");
    args.addOption("waves", "60", "dense-flow scenario waves");
    args.addOption("per-wave", "64", "flows per wave");
    args.addOption("big-waves", "12", "fat_tree_10k scenario waves");
    args.addOption("big-per-wave", "24",
                   "fat_tree_10k flows per wave");
    args.addOption("huge-waves", "6", "fat_tree_100k scenario waves");
    args.addOption("huge-per-wave", "16",
                   "fat_tree_100k flows per wave");
    args.addFlag("skip-100k",
                 "skip the fat_tree_100k scenario (largest topology)");
    args.addFlag("skip-sweep",
                 "skip the SweepRunner jobs comparison (slowest "
                 "scenario; sanitizer smoke runs)");
    if (!args.parse(argc, argv))
        return 1;

    setLogLevel(LogLevel::Silent);  // keep stdout pure JSON
    const int waves = args.getInt("waves");
    const int per_wave = args.getInt("per-wave");
    std::cout << denseFlowScenario(waves, per_wave).str() << "\n";
    // A 96-node leaf-spine fabric whose topology holds O(10^3)
    // directed links (24x16 trunks plus two host uplinks per node,
    // each duplex): two orders of magnitude denser than the dual-node
    // scenario.
    ClusterSpec spine_leaf = xe8545Cluster(96);
    spine_leaf.fabric.kind = FabricKind::SpineLeaf;
    spine_leaf.fabric.leaves = 24;
    spine_leaf.fabric.spines = 16;
    std::cout << fabricScenario("spine_leaf_dense", std::move(spine_leaf),
                                {7, 1, 1, 0}, waves, per_wave)
                     .str()
              << "\n";
    // 256 nodes on a k=16 fat tree: 4 pods, 32 edge + 32 agg + 64
    // core switches, >10^4 directed links.
    std::cout << fabricScenario("fat_tree_10k", fatTreeSpec(256, 16),
                                {13, 7, 31, 1}, args.getInt("big-waves"),
                                args.getInt("big-per-wave"))
                     .str()
              << "\n";
    if (!args.getFlag("skip-100k")) {
        // 2048 nodes on a k=32 fat tree: 8 pods, 128 edge + 128 agg +
        // 256 core switches, ~10^5 directed links. Few, small waves:
        // the scenario proves the per-event machinery stays sublinear
        // at this link count (and completes under sanitizers in CI).
        std::cout << fabricScenario("fat_tree_100k", fatTreeSpec(2048, 32),
                                    {17, 11, 37, 1},
                                    args.getInt("huge-waves"),
                                    args.getInt("huge-per-wave"))
                         .str()
                  << "\n";
    }
    std::cout << bench::eventQueueChurn().str() << "\n";
    if (!args.getFlag("skip-sweep")) {
        std::cout << sweepComparison(
                         SweepRunner(args.getInt("jobs")).jobs())
                         .str()
                  << "\n";
    }
    return 0;
}
