/**
 * @file
 * Standalone per-layer probes of the traced run: each drives one
 * dstrain layer through its public API, apart from the timed batches.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <map>
#include <string>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

/**
 * Run every probe for @p w and return its metrics by name:
 *
 *   hw.cluster_build_s       median Cluster construction
 *   hw.route_cold_us         mean routeForFlow on a fresh Router
 *   hw.route_warm_ns         ... on the same Router, second pass
 *   hw.route_pairs           hop pairs routed per pass
 *   coll.allgather_s/events  one world all-gather, standalone engine
 *   coll.alltoall_s/events   one world all-to-all, standalone engine
 *   strategies.plan_build_s  Strategy::buildIteration, summed over points
 *   strategies.plan_tasks    tasks in those plans
 *   memplan.solve_s          solveMaxModel, summed over points
 */
std::map<std::string, double> runProbes(const Workload &w, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
