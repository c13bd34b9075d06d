/**
 * @file
 * JSON-emitting micro-benchmark of the fault-injection subsystem:
 * the FlowScheduler::setCapacity() fast path under dense capacity
 * churn, a faulted experiment end to end (with a same-seed
 * reproducibility check), and serial vs parallel sweep determinism
 * under an active FaultPlan.
 *
 * Output is one JSON object per line so the bench trajectory can be
 * recorded and diffed across revisions:
 *
 *   ./micro_faults [--waves W] [--per-wave F] [--toggles T] [--jobs N]
 */

#include <iostream>

#include "bench_common.hh"
#include "core/sweep_runner.hh"
#include "net/flow_scheduler.hh"
#include "util/args.hh"

using namespace dstrain;

namespace {

/**
 * Dense flows with periodic capacity churn: every RoCE direction is
 * repeatedly degraded to 25% and restored while waves of contending
 * flows come and go, exercising the slow (re-waterfill) and fast
 * (slack-to-slack) setCapacity paths together.
 */
bench::JsonObject
capacityChurnScenario(int waves, int per_wave, int toggles)
{
    bench::Stopwatch watch;
    Simulation sim;
    Cluster cluster(xe8545Cluster(2));
    FlowScheduler sched(sim, cluster.topology());

    std::vector<ResourceId> roce;
    for (const Resource &r : cluster.topology().resources())
        if (r.cls == LinkClass::Roce)
            roce.push_back(r.id);

    int done = 0;
    for (int w = 0; w < waves; ++w) {
        sim.events().schedule(w * 0.01, [&, w] {
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
    for (int t = 0; t < toggles; ++t) {
        sim.events().schedule(0.005 + t * 0.02, [&] {
            for (ResourceId rid : roce) {
                const Resource &r = cluster.topology().resource(rid);
                const bool degraded =
                    r.capacity < r.nominal_capacity;
                sched.setCapacity(rid, degraded
                                           ? r.nominal_capacity
                                           : r.nominal_capacity * 0.25);
            }
        });
    }
    sim.run();
    const double secs = watch.seconds();
    const FlowScheduler::Stats &stats = sched.stats();

    bench::JsonObject json;
    json.add("scenario", std::string("capacity_churn"))
        .add("flows", done)
        .add("toggles", toggles)
        .add("events", sim.events().executedCount())
        .add("wall_seconds", secs)
        .add("events_per_sec", sim.events().executedCount() / secs)
        .add("capacity_updates", stats.capacity_updates)
        .add("fast_capacity_updates", stats.fast_capacity_updates)
        .add("recomputes", stats.recomputes)
        .add("fast_starts", stats.fast_starts)
        .add("fast_finishes", stats.fast_finishes);
    return json;
}

/** The faulted dual-node ZeRO-3 configuration all scenarios share. */
ExperimentConfig
faultedConfig()
{
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::zero(3), 6.6);
    bench::applyRunSettings(cfg, 4);
    std::vector<ConfigError> errors;
    cfg.faults = parseFaultSpec(
        "degrade@6+3:roce:0.25,straggler@9+2:rank3:0.7", &errors);
    DSTRAIN_ASSERT(errors.empty(), "bench fault spec invalid");
    return cfg;
}

/**
 * End-to-end faulted experiment: wall time, the measured slowdown,
 * and a same-seed reproducibility check (two runs, one fingerprint).
 */
bench::JsonObject
faultedExperiment()
{
    bench::Stopwatch watch;
    const ExperimentReport first = runExperiment(faultedConfig());
    const double secs = watch.seconds();
    const ExperimentReport second = runExperiment(faultedConfig());

    double max_slowdown = 1.0;
    for (const FaultImpact &im : first.faults)
        max_slowdown = std::max(max_slowdown, im.iteration_slowdown);

    bench::JsonObject json;
    json.add("scenario", std::string("faulted_experiment"))
        .add("faults", static_cast<std::uint64_t>(first.faults.size()))
        .add("wall_seconds", secs)
        .add("iteration_time", first.iteration_time)
        .add("max_iteration_slowdown", max_slowdown)
        .add("reproducible", reportFingerprint(first) ==
                                 reportFingerprint(second));
    return json;
}

/**
 * Serial vs parallel sweep over faulted configs: the FaultPlan rides
 * inside each ExperimentConfig, so jobs=N must reproduce jobs=1
 * bit-for-bit.
 */
bench::JsonObject
faultedSweep(int jobs)
{
    std::vector<ExperimentConfig> points;
    for (int i = 0; i < 4; ++i)
        points.push_back(faultedConfig());

    bench::Stopwatch watch;
    const std::vector<ExperimentReport> serial =
        SweepRunner(1).run(points);
    const double serial_secs = watch.seconds();

    watch.reset();
    const std::vector<ExperimentReport> parallel =
        SweepRunner(jobs).run(points);
    const double parallel_secs = watch.seconds();

    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
        identical = reportFingerprint(serial[i]) ==
                    reportFingerprint(parallel[i]);
    }

    bench::JsonObject json;
    json.add("scenario", std::string("faulted_sweep"))
        .add("points", static_cast<std::uint64_t>(serial.size()))
        .add("jobs", jobs)
        .add("jobs1_wall_seconds", serial_secs)
        .add("jobsN_wall_seconds", parallel_secs)
        .add("reports_identical", identical);
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("micro_faults",
                   "fault-injection micro-benchmarks (JSON per line)");
    args.addOption("waves", "60", "capacity-churn scenario waves");
    args.addOption("per-wave", "64", "flows per wave");
    args.addOption("toggles", "30", "capacity toggle rounds");
    args.addOption("jobs", "0",
                   "sweep worker threads (0 = one per hardware "
                   "thread)");
    if (!args.parse(argc, argv))
        return 1;

    setLogLevel(LogLevel::Silent);  // keep stdout pure JSON
    std::cout << capacityChurnScenario(args.getInt("waves"),
                                       args.getInt("per-wave"),
                                       args.getInt("toggles"))
                     .str()
              << "\n";
    std::cout << faultedExperiment().str() << "\n";
    std::cout << faultedSweep(SweepRunner(args.getInt("jobs")).jobs())
                     .str()
              << "\n";
    return 0;
}
