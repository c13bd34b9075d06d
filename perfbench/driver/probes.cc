/**
 * @file
 * Implementation of the standalone per-layer probes.
 */

#include "probes.hh"

#include <algorithm>

#include "collectives/communicator.hh"
#include "memplan/capacity_solver.hh"
#include "strategies/strategy.hh"
#include "util/logging.hh"

using namespace dstrain;

namespace perfbench {

namespace {

/** Repetitions of the cheap probes; each reports its median. */
constexpr int kProbeReps = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Route the workload's hop pairs on fresh routers over one cluster:
 * mean cold (first lookup) and warm (cached) cost per pair.
 */
void
routeProbe(const Workload &w, Tracer &tracer,
           std::map<std::string, double> &out)
{
    Tracer::Span span(tracer, "hw.route_probe");
    Cluster cluster(w.probe_cluster);
    const double pairs = static_cast<double>(w.hop_pairs.size());
    std::vector<double> cold;
    std::vector<double> warm;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        Router router(cluster.topology(),
                      w.probe_cluster.node.model_serdes_contention,
                      cluster.router().ecmp());
        for (int pass = 0; pass < 2; ++pass) {
            const Clock::time_point t0 = Clock::now();
            std::uint64_t key = 0;
            for (const auto &[a, b] : w.hop_pairs) {
                const Route &r = router.routeForFlow(
                    cluster.gpuByRank(a), cluster.gpuByRank(b), key++);
                if (!r.valid())
                    fatal("no route between ranks %d and %d", a, b);
            }
            (pass == 0 ? cold : warm).push_back(secondsSince(t0) / pairs);
        }
    }
    out["hw.route_cold_us"] = median(cold) * 1e6;
    out["hw.route_warm_ns"] = median(warm) * 1e9;
    out["hw.route_pairs"] = pairs;
}

/** One world-group collective on a standalone engine. */
void
collectiveProbe(const Workload &w, CollectiveOp op, const char *name,
                Tracer &tracer, std::map<std::string, double> &out)
{
    Tracer::Span span(tracer, name);
    const Clock::time_point t0 = Clock::now();
    Simulation sim;
    Cluster cluster(w.probe_cluster);
    FlowScheduler flows(sim, cluster.topology(), FlowSchedulerOptions{});
    TransferManager tm(sim, cluster, flows);
    CollectiveEngine coll(tm);
    const CommGroup group = CommGroup::worldOf(
        static_cast<int>(cluster.allGpus().size()));
    const Bytes payload = 256e6;
    if (op == CollectiveOp::AllGather)
        coll.allGather(group, payload, [] {});
    else
        coll.allToAll(group, payload, [] {});
    sim.run();
    if (coll.completedCount() != 1)
        fatal("%s probe did not complete", name);
    const std::string prefix = std::string(name);
    out[prefix + "_s"] = secondsSince(t0);
    out[prefix + "_events"] =
        static_cast<double>(sim.events().executedCount());
}

/** Plan build and capacity solve of every point, outside any run. */
void
planProbe(const Workload &w, Tracer &tracer,
          std::map<std::string, double> &out)
{
    double plan_s = 0.0;
    double tasks = 0.0;
    double solve_s = 0.0;
    for (const Point &p : w.points) {
        if (!p.base.empty())
            continue;  // a fault variant: same plan as its base
        Experiment exp(p.config);
        PlanContext ctx{exp.cluster(),
                        TransformerConfig::gpt2Like(exp.model().layers),
                        p.config.batch_per_gpu, p.config.placement,
                        p.config.tuning};
        {
            Tracer::Span span(tracer, "strategies.plan_build");
            const Clock::time_point t0 = Clock::now();
            const IterationPlan plan =
                Strategy::create(p.config.strategy)->buildIteration(ctx);
            plan_s += secondsSince(t0);
            tasks += static_cast<double>(plan.size());
        }
        {
            Tracer::Span span(tracer, "memplan.solve");
            const Clock::time_point t0 = Clock::now();
            solveMaxModel(p.config.strategy, exp.config().cluster,
                          p.config.batch_per_gpu, p.config.memory_cal);
            solve_s += secondsSince(t0);
        }
    }
    out["strategies.plan_build_s"] = plan_s;
    out["strategies.plan_tasks"] = tasks;
    out["memplan.solve_s"] = solve_s;
}

} // namespace

std::map<std::string, double>
runProbes(const Workload &w, Tracer &tracer)
{
    Tracer::Span span(tracer, "probes");
    std::map<std::string, double> out;
    {
        std::vector<double> builds;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            Tracer::Span s(tracer, "hw.cluster_build");
            const Clock::time_point t0 = Clock::now();
            Cluster cluster(w.probe_cluster);
            builds.push_back(secondsSince(t0));
        }
        out["hw.cluster_build_s"] = median(builds);
    }
    routeProbe(w, tracer, out);
    collectiveProbe(w, CollectiveOp::AllGather, "coll.allgather", tracer,
                    out);
    collectiveProbe(w, CollectiveOp::AllToAll, "coll.alltoall", tracer,
                    out);
    planProbe(w, tracer, out);
    return out;
}

} // namespace perfbench
