/**
 * @file
 * The benchmark's workloads: seeded generators of ExperimentConfigs.
 *
 * A workload is a closed, serial batch of experiments. The seed picks
 * the point order and the fault plans; dstrain only ever sees the
 * generated configs. Every point a seed can draw comes from a finite
 * menu (menuOf), so the expected outputs of every point can be
 * recorded once, keyed by Point::key.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

/**
 * A fault aimed at a measured window: begin and duration are fractions
 * of the window's length, counted from its start. Duration 0 is a
 * permanent fault (linkdown, nodedown).
 */
struct WindowFault {
    dstrain::FaultKind kind = dstrain::FaultKind::LinkDegrade;
    std::string target;
    double begin = 0.0;
    double duration = 0.0;
    double fraction = 0.5;

    /** Key form, e.g. "degrade:roce/n1:0.25@0.2+0.4". */
    std::string str() const;
};

/** One experiment of a workload. */
struct Point {
    /** Canonical name; the key of the point's expected outputs. */
    std::string key;

    /** The config, without faults (placeFaults adds them). */
    dstrain::ExperimentConfig config;

    /** Faults, aimed at the window below. */
    std::vector<WindowFault> faults;

    /**
     * Where the faults aim: the measured window of the earlier point
     * keyed @p base, or, when base is empty, the fixed window.
     */
    std::string base;
    std::pair<double, double> window{0.0, 0.0};
};

/** A generated workload. */
struct Workload {
    std::string name;
    std::vector<Point> points;  ///< in execution order

    /** The cluster the standalone router/collective probes use. */
    dstrain::ClusterSpec probe_cluster;

    /** Global rank pairs of the workload's collective hops. */
    std::vector<std::pair<int, int>> hop_pairs;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The batch seed @p seed generates; fatal() on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** Every point any seed can draw, each once, bases first. */
Workload menuOf(const std::string &name);

/** Absolute fault plan for @p faults aimed at [begin, end). */
dstrain::FaultPlan placeFaults(const std::vector<WindowFault> &faults,
                               double begin, double end);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
