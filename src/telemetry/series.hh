/**
 * @file
 * Converts resource rate logs into time-bucketed bandwidth series —
 * the simulated counterpart of the paper's uProf / nvidia-smi /
 * hardware-counter sampling.
 */

#ifndef DSTRAIN_TELEMETRY_SERIES_HH
#define DSTRAIN_TELEMETRY_SERIES_HH

#include <vector>

#include "hw/link.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace dstrain {

/** A bucketed bandwidth series. */
struct BandwidthSeries {
    SimTime begin = 0.0;
    SimTime bucket = 0.0;             ///< bucket width
    std::vector<double> values;       ///< average Bps per bucket

    /** Statistics over the buckets. */
    SampleSeries samples() const;

    /** Paper-style (avg, 90th, peak). */
    BandwidthSummary summary() const;
};

/**
 * Bucket the sum of the given rate logs over [begin, end) from their
 * streamed bucket arrays — O(logs x buckets), independent of how many
 * rate changes occurred.
 *
 * Each bucket holds the time-average of the summed rates within it,
 * i.e. bytes transferred in the bucket divided by the bucket width.
 * Every log must have been armed on exactly this grid before its
 * history was recorded, and none may have folded history past
 * @p end (RateLog::streamCovers); anything else panics.
 */
BandwidthSeries
sumStreamedBuckets(const std::vector<const RateLog *> &logs, SimTime begin,
                   SimTime end, SimTime bucket);

} // namespace dstrain

#endif // DSTRAIN_TELEMETRY_SERIES_HH
