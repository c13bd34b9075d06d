/**
 * @file
 * Tests for the rate-log bucketing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "telemetry/series.hh"

namespace dstrain {
namespace {

/** One rate change: the log runs at @p rate from time @p t on. */
struct Change {
    SimTime t;
    Bps rate;
};

/** A log armed on `begin + k * bucket` that recorded @p changes and
 * was closed at @p finalize_at. */
RateLog
streamedLog(SimTime begin, SimTime bucket,
            const std::vector<Change> &changes, SimTime finalize_at)
{
    RateLog log;
    log.armStream(begin, bucket);
    for (const Change &c : changes)
        log.setRate(c.t, c.rate);
    log.finalize(finalize_at);
    return log;
}

TEST(SeriesTest, ConstantRateFillsBuckets)
{
    const RateLog log = streamedLog(0.0, 0.25, {{0.0, 10.0}}, 1.0);
    const BandwidthSeries s = sumStreamedBuckets({&log}, 0.0, 1.0, 0.25);
    ASSERT_EQ(s.values.size(), 4u);
    for (double v : s.values)
        EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(SeriesTest, PartialOverlapWeighted)
{
    // Active only in the second half.
    const RateLog log =
        streamedLog(0.0, 1.0, {{0.0, 0.0}, {0.5, 20.0}}, 1.0);
    const BandwidthSeries s = sumStreamedBuckets({&log}, 0.0, 1.0, 1.0);
    ASSERT_EQ(s.values.size(), 1u);
    EXPECT_DOUBLE_EQ(s.values[0], 10.0);  // time-weighted average
}

TEST(SeriesTest, MultipleLogsSum)
{
    const RateLog a = streamedLog(0.0, 0.5, {{0.0, 3.0}}, 1.0);
    const RateLog b = streamedLog(0.0, 0.5, {{0.0, 4.0}}, 1.0);
    const BandwidthSeries s = sumStreamedBuckets({&a, &b}, 0.0, 1.0, 0.5);
    for (double v : s.values)
        EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(SeriesTest, WindowClipsHistory)
{
    // Armed at t = 4: the history before the grid origin is clipped.
    const RateLog log = streamedLog(4.0, 1.0, {{0.0, 8.0}}, 10.0);
    const BandwidthSeries s = sumStreamedBuckets({&log}, 4.0, 10.0, 1.0);
    ASSERT_EQ(s.values.size(), 6u);
    for (double v : s.values)
        EXPECT_DOUBLE_EQ(v, 8.0);
    // History past a window's end is already folded in, so a shorter
    // window is refused rather than read.
    EXPECT_FALSE(log.streamCovers(4.0, 6.0, 1.0));
}

TEST(SeriesTest, SummaryMatchesSamples)
{
    const RateLog log =
        streamedLog(0.0, 1.0, {{0.0, 10.0}, {1.0, 30.0}}, 2.0);
    const BandwidthSummary sum =
        sumStreamedBuckets({&log}, 0.0, 2.0, 1.0).summary();
    EXPECT_DOUBLE_EQ(sum.avg, 20.0);
    EXPECT_DOUBLE_EQ(sum.peak, 30.0);
}

TEST(SeriesTest, BytesConservedAcrossBucketSizes)
{
    const std::vector<Change> changes = {
        {0.0, 5.0}, {0.7, 15.0}, {1.3, 2.0}};
    for (SimTime bucket : {0.1, 0.25, 0.5, 1.0}) {
        const RateLog log = streamedLog(0.0, bucket, changes, 3.0);
        const BandwidthSeries s =
            sumStreamedBuckets({&log}, 0.0, 3.0, bucket);
        double integrated = 0.0;
        for (double v : s.values)
            integrated += v * bucket;
        EXPECT_NEAR(integrated, log.totalBytes(), 1e-9) << bucket;
    }
}

/**
 * Record @p changes into a log armed on the probe grid and compare
 * each streamed bucket with the exact integral of the rate function
 * over that bucket, computed here segment by segment. This is the
 * oracle for the accumulator's partial-bucket carry.
 */
void
expectStreamMatchesIntegral(const std::vector<Change> &changes,
                            SimTime finalize_at, SimTime begin,
                            SimTime end, SimTime bucket)
{
    const RateLog log = streamedLog(begin, bucket, changes, finalize_at);
    ASSERT_TRUE(log.streamCovers(begin, end, bucket));
    const BandwidthSeries stream =
        sumStreamedBuckets({&log}, begin, end, bucket);
    ASSERT_EQ(stream.values.size(),
              static_cast<std::size_t>(
                  std::ceil((end - begin) / bucket - 1e-9)));

    for (std::size_t b = 0; b < stream.values.size(); ++b) {
        const SimTime b0 = begin + static_cast<double>(b) * bucket;
        const SimTime b1 = std::min(b0 + bucket, end);
        double bytes = 0.0;
        for (std::size_t i = 0; i < changes.size(); ++i) {
            const SimTime s1 = i + 1 < changes.size()
                                   ? changes[i + 1].t
                                   : finalize_at;
            const SimTime overlap = std::min(s1, b1) -
                                    std::max(changes[i].t, b0);
            if (overlap > 0.0)
                bytes += changes[i].rate * overlap;
        }
        EXPECT_NEAR(stream.values[b], bytes / bucket,
                    1e-12 * std::max(1.0, bytes / bucket))
            << "bucket " << b;
    }
}

TEST(StreamSeriesTest, SegmentStraddlingWindowStart)
{
    // The rate opened at 0.0, before the grid armed at 0.35: fold()
    // clips the straddling segment to the window.
    expectStreamMatchesIntegral({{0.0, 5.0}, {0.8, 2.0}}, 1.15, 0.35,
                                1.15, 0.2);
}

TEST(StreamSeriesTest, SegmentEndingExactlyAtWindowEnd)
{
    expectStreamMatchesIntegral({{0.0, 4.0}, {0.5, 9.0}}, 1.0, 0.0, 1.0,
                                0.25);
}

TEST(StreamSeriesTest, RateZeroGapsSkipped)
{
    expectStreamMatchesIntegral(
        {{0.0, 10.0}, {0.3, 0.0}, {0.55, 6.0}, {0.8, 0.0}}, 1.2, 0.0,
        1.2, 0.1);
}

TEST(StreamSeriesTest, BucketNotDividingWindow)
{
    // 1.0 / 0.3 is not integral: the last bucket is partial on the
    // grid, and ceil() decides the bucket count.
    expectStreamMatchesIntegral({{0.0, 7.0}, {0.45, 12.0}}, 1.0, 0.0,
                                1.0, 0.3);
}

TEST(StreamSeriesTest, MidBucketPartialCarry)
{
    // Several changes inside one bucket exercise the exact
    // partial-bucket carry (each change deposits its fraction).
    expectStreamMatchesIntegral(
        {{0.0, 3.0}, {0.12, 8.0}, {0.31, 1.0}, {0.33, 20.0}}, 0.5, 0.0,
        0.5, 0.5);
}

TEST(StreamSeriesTest, MultiLogSumsBitIdentical)
{
    // Logs add in log order, so the sum of two logs is bitwise the sum
    // of their single-log series.
    const RateLog a =
        streamedLog(0.0, 0.25, {{0.0, 3.125}, {0.4, 11.5}}, 1.0);
    const RateLog b =
        streamedLog(0.0, 0.25, {{0.1, 0.7}, {0.6, 0.0}}, 1.0);
    const BandwidthSeries sum =
        sumStreamedBuckets({&a, &b}, 0.0, 1.0, 0.25);
    const BandwidthSeries sa = sumStreamedBuckets({&a}, 0.0, 1.0, 0.25);
    const BandwidthSeries sb = sumStreamedBuckets({&b}, 0.0, 1.0, 0.25);
    ASSERT_EQ(sum.values.size(), sa.values.size());
    for (std::size_t i = 0; i < sum.values.size(); ++i)
        EXPECT_EQ(sum.values[i], sa.values[i] + sb.values[i]) << i;
}

TEST(StreamSeriesTest, StreamCoverageGuard)
{
    const RateLog log = streamedLog(0.0, 0.1, {{0.0, 5.0}}, 2.0);
    EXPECT_TRUE(log.streamCovers(0.0, 2.0, 0.1));
    // History extends past the requested end: the accumulator folded
    // [1,2) into the grid, so a [0,1) probe cannot reuse it.
    EXPECT_FALSE(log.streamCovers(0.0, 1.0, 0.1));
    // Mismatched grid (different bucket or origin).
    EXPECT_FALSE(log.streamCovers(0.0, 2.0, 0.2));
    EXPECT_FALSE(log.streamCovers(0.1, 2.0, 0.1));
}

TEST(SeriesDeathTest, BadWindowRejected)
{
    RateLog unarmed;
    EXPECT_DEATH(sumStreamedBuckets({&unarmed}, 1.0, 1.0, 0.1),
                 "empty telemetry window");
    EXPECT_DEATH(sumStreamedBuckets({&unarmed}, 0.0, 1.0, 0.0), "bucket");
    // Only the armed grid can answer: not a log that was never armed,
    // not another bucket width, not a window ending before the folded
    // history does.
    EXPECT_DEATH(sumStreamedBuckets({&unarmed}, 0.0, 1.0, 0.1),
                 "arm the grid");
    const RateLog log = streamedLog(0.0, 0.1, {{0.0, 5.0}}, 2.0);
    EXPECT_DEATH(sumStreamedBuckets({&log}, 0.0, 2.0, 0.2),
                 "arm the grid");
    EXPECT_DEATH(sumStreamedBuckets({&log}, 0.0, 1.0, 0.1),
                 "arm the grid");
}

} // namespace
} // namespace dstrain
