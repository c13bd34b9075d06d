/**
 * @file
 * Implementation of the bandwidth-series bucketing.
 */

#include "telemetry/series.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dstrain {

SampleSeries
BandwidthSeries::samples() const
{
    SampleSeries s;
    for (double v : values)
        s.add(v);
    return s;
}

BandwidthSummary
BandwidthSeries::summary() const
{
    return samples().summary();
}

BandwidthSeries
sumStreamedBuckets(const std::vector<const RateLog *> &logs, SimTime begin,
                   SimTime end, SimTime bucket)
{
    DSTRAIN_ASSERT(end > begin, "empty telemetry window");
    DSTRAIN_ASSERT(bucket > 0.0, "non-positive bucket width");
    const std::size_t n_buckets = static_cast<std::size_t>(
        std::ceil(gridBuckets(end - begin, bucket) - 1e-9));
    BandwidthSeries series;
    series.begin = begin;
    series.bucket = bucket;
    series.values.assign(std::max<std::size_t>(n_buckets, 1), 0.0);

    for (const RateLog *log : logs) {
        DSTRAIN_ASSERT(log->streamCovers(begin, end, bucket),
                       "rate log stream does not cover [%g, %g) at "
                       "bucket %g; arm the grid before the run",
                       begin, end, bucket);
        // The streamed array may be shorter (no trailing activity) or
        // one bucket longer (history ending exactly on the window
        // end deposits an empty boundary bucket).
        const std::vector<double> &sv = log->streamValues();
        const std::size_t n = std::min(sv.size(), series.values.size());
        for (std::size_t b = 0; b < n; ++b)
            series.values[b] += sv[b];
    }
    return series;
}

} // namespace dstrain
