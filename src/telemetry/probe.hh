/**
 * @file
 * Bandwidth probes: select the topology resources belonging to one
 * interconnect class (optionally one node) and produce the
 * aggregate-bidirectional bandwidth series the paper reports
 * (Table IV: "aggregate bidirectional per-node bandwidth").
 */

#ifndef DSTRAIN_TELEMETRY_PROBE_HH
#define DSTRAIN_TELEMETRY_PROBE_HH

#include "hw/topology.hh"
#include "telemetry/series.hh"

namespace dstrain {

/** Default sampling bucket (the paper samples at ~0.1-1 s). */
inline constexpr SimTime kDefaultTelemetryBucket = 0.1;

/**
 * Finest accepted sampling bucket: 100x finer than the paper's
 * finest sampling. Log memory grows with the bucket count, so a
 * finer grid only costs memory without resolving anything the flow
 * model resolves.
 */
inline constexpr SimTime kMinTelemetryBucket = 1e-3;

/**
 * The bandwidth-telemetry grid of an engine run: every rate log is
 * armed on `measured_begin + k * bucket` when the measurement window
 * opens (warm-up history is truncated there), and the report's
 * probes read exactly that grid. A probe over any other window or
 * bucket width needs its own run with the grid armed accordingly.
 */
struct TelemetryConfig {
    SimTime bucket = kDefaultTelemetryBucket;  ///< sampling bucket width
};

/**
 * Bandwidth series for one interconnect class, read from the armed
 * streaming grid (see sumStreamedBuckets for the grid contract).
 *
 * Sums both directions of every matching resource — the paper's
 * "aggregate bidirectional" convention — and divides by the number
 * of nodes carrying matching resources to report *per-node* figures.
 *
 * @param node restrict to one node (-1 = all nodes, per-node
 *             averaged).
 */
BandwidthSeries
probeClassBandwidth(const Topology &topo, LinkClass cls, SimTime begin,
                    SimTime end, SimTime bucket = kDefaultTelemetryBucket,
                    int node = -1);

/**
 * The series of every Table IV class, in tableIvClasses() order, from
 * the same single resource walk probeClassBandwidth() makes for one.
 */
std::vector<BandwidthSeries>
probeAllClasses(const Topology &topo, SimTime begin, SimTime end,
                SimTime bucket = kDefaultTelemetryBucket, int node = -1);

/**
 * Per-node aggregate bidirectional summary for one class — one cell
 * group of paper Table IV.
 */
BandwidthSummary
summarizeClassBandwidth(const Topology &topo, LinkClass cls,
                        SimTime begin, SimTime end,
                        SimTime bucket = kDefaultTelemetryBucket);

/** The seven interconnect classes in paper Table IV column order. */
const std::vector<LinkClass> &tableIvClasses();

} // namespace dstrain

#endif // DSTRAIN_TELEMETRY_PROBE_HH
