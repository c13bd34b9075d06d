/**
 * @file
 * Tests for link primitives: class names/efficiencies and the
 * RateLog byte counter and streaming bucket accumulator.
 */

#include <gtest/gtest.h>

#include "hw/link.hh"

namespace dstrain {
namespace {

TEST(LinkClassTest, NamesMatchPaperColumns)
{
    EXPECT_STREQ(linkClassName(LinkClass::Dram), "DRAM");
    EXPECT_STREQ(linkClassName(LinkClass::Xgmi), "xGMI");
    EXPECT_STREQ(linkClassName(LinkClass::PcieGpu), "PCIe-GPU");
    EXPECT_STREQ(linkClassName(LinkClass::PcieNvme), "PCIe-NVME");
    EXPECT_STREQ(linkClassName(LinkClass::PcieNic), "PCIe-NIC");
    EXPECT_STREQ(linkClassName(LinkClass::NvLink), "NVLink");
    EXPECT_STREQ(linkClassName(LinkClass::Roce), "RoCE");
}

TEST(LinkClassTest, EfficienciesInUnitInterval)
{
    for (int i = 0; i < kNumLinkClasses; ++i) {
        const auto cls = static_cast<LinkClass>(i);
        const double eff = linkClassEfficiency(cls);
        EXPECT_GT(eff, 0.0) << linkClassName(cls);
        EXPECT_LE(eff, 1.0) << linkClassName(cls);
    }
    // RoCE calibrated to the paper's 93% stress result.
    EXPECT_DOUBLE_EQ(linkClassEfficiency(LinkClass::Roce), 0.93);
}

TEST(RateLogTest, RecordsSegments)
{
    // Each rate change closes one constant-rate segment: its bytes
    // reach the counter and its per-bucket average the stream.
    RateLog log;
    log.armStream(0.0, 1.0);
    log.setRate(0.0, 10.0);
    log.setRate(2.0, 20.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 10.0 * 2.0);
    EXPECT_DOUBLE_EQ(log.bytesThrough(3.0), 10.0 * 2.0 + 20.0 * 1.0);
    log.finalize(5.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 10.0 * 2.0 + 20.0 * 3.0);
    ASSERT_GE(log.streamValues().size(), 5u);
    EXPECT_DOUBLE_EQ(log.streamValues()[1], 10.0);
    EXPECT_DOUBLE_EQ(log.streamValues()[2], 20.0);
    EXPECT_DOUBLE_EQ(log.streamValues()[4], 20.0);
}

TEST(RateLogTest, NoopOnUnchangedRate)
{
    RateLog log;
    log.armStream(0.0, 1.0);
    log.setRate(0.0, 5.0);
    log.setRate(1.0, 5.0);  // no-op: the segment stays open
    EXPECT_DOUBLE_EQ(log.totalBytes(), 0.0);
    EXPECT_EQ(log.bucketsTouched(), 0u);
    log.finalize(2.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 10.0);
}

TEST(RateLogTest, ZeroRateSegmentsAreDroppedFromInitial)
{
    RateLog log;
    log.armStream(0.0, 1.0);
    // Rate stays 0 until t=3, then 7.
    log.setRate(3.0, 7.0);
    // The initial zero-rate stretch closes without depositing.
    EXPECT_EQ(log.bucketsTouched(), 0u);
    EXPECT_DOUBLE_EQ(log.streamEnd(), 0.0);
    log.finalize(4.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 7.0);
    ASSERT_GE(log.streamValues().size(), 4u);
    for (std::size_t b = 0; b < 3; ++b)
        EXPECT_DOUBLE_EQ(log.streamValues()[b], 0.0);
    EXPECT_DOUBLE_EQ(log.streamValues()[3], 7.0);
}

TEST(RateLogTest, FinalizeIdempotentAtSameTime)
{
    RateLog log;
    log.armStream(0.0, 0.5);
    log.setRate(0.0, 1.0);
    log.finalize(2.0);
    const std::uint64_t touched = log.bucketsTouched();
    log.finalize(2.0);
    EXPECT_EQ(log.bucketsTouched(), touched);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 2.0);
}

TEST(RateLogTest, DropBeforeTruncates)
{
    // Truncation at the measurement boundary: only bytes carried
    // after it count, including the segment open across it.
    RateLog log;
    log.setRate(0.0, 10.0);
    log.setRate(2.0, 20.0);
    log.dropBefore(3.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 0.0);
    EXPECT_DOUBLE_EQ(log.bytesThrough(4.0), 20.0);
    log.finalize(4.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 20.0);
}

TEST(RateLogTest, DropBeforeClipsStraddlingSegment)
{
    RateLog log;
    log.setRate(0.0, 10.0);
    log.dropBefore(1.0);  // the open segment straddles t = 1
    log.finalize(4.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 30.0);
}

TEST(RateLogDeathTest, DropBeforeIntoClosedHistoryPanics)
{
    // Closed segments are not stored, so bytes already counted
    // cannot be split at an earlier time.
    RateLog log;
    log.setRate(0.0, 10.0);
    log.finalize(4.0);
    EXPECT_DEATH(log.dropBefore(1.0), "closed history");
}

TEST(RateLogTest, StreamedBucketsAccumulateOnline)
{
    RateLog log;
    log.armStream(0.0, 0.5);
    log.setRate(0.0, 10.0);
    log.setRate(1.0, 0.0);
    log.finalize(2.0);

    EXPECT_TRUE(log.streamArmed());
    // The trailing idle interval [1,2) deposits nothing, so the
    // folded-history mark stays at the last nonzero-rate close: a
    // window ending anywhere at or after 1.0 is fully covered.
    EXPECT_DOUBLE_EQ(log.streamEnd(), 1.0);
    EXPECT_TRUE(log.streamCovers(0.0, 1.0, 0.5));
    EXPECT_TRUE(log.streamCovers(0.0, 2.0, 0.5));
    ASSERT_GE(log.streamValues().size(), 2u);
    // Rate 10 fills buckets [0,0.5) and [0.5,1.0) completely.
    EXPECT_DOUBLE_EQ(log.streamValues()[0], 10.0);
    EXPECT_DOUBLE_EQ(log.streamValues()[1], 10.0);
    for (std::size_t b = 2; b < log.streamValues().size(); ++b)
        EXPECT_DOUBLE_EQ(log.streamValues()[b], 0.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 10.0);
    EXPECT_GT(log.bucketsTouched(), 0u);
}

TEST(RateLogTest, UnretainedDropBeforeResetsBytes)
{
    RateLog log;
    log.setRate(0.0, 10.0);
    log.setRate(2.0, 4.0);  // closes [0,2) @ 10
    log.dropBefore(2.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 0.0);
    log.finalize(3.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 4.0);
}

/** Arm a log on [0, 1) at @p bucket and change its rate @p changes
 * times, evenly spaced: every third segment idle, the others at
 * distinct rates, the last one busy. */
RateLog
busyLog(SimTime bucket, int changes)
{
    RateLog log;
    log.armStream(0.0, bucket);
    for (int i = 0; i < changes; ++i) {
        const SimTime t = static_cast<double>(i) / changes;
        log.setRate(t, (i % 3 == 1) ? 0.0 : 1e9 + i);
    }
    log.finalize(1.0);
    return log;
}

TEST(RateLogTest, MemoryBytesTrackBucketsNotRateChanges)
{
    // A thousandfold denser rate history costs no extra log memory:
    // only the bucket count sets it.
    const RateLog sparse = busyLog(0.01, 40);
    const RateLog dense = busyLog(0.01, 40000);
    EXPECT_EQ(dense.streamValues().size(), sparse.streamValues().size());
    EXPECT_GT(dense.bucketsTouched(), 100 * sparse.bucketsTouched());
    for (const RateLog *log : {&sparse, &dense}) {
        EXPECT_LE(log->streamValues().size(), 101u);
        EXPECT_LE(log->memoryBytes(),
                  2 * log->streamValues().size() * sizeof(double));
    }
    // A 100x coarser grid over the same dense history shrinks it.
    const RateLog coarse = busyLog(1.0, 40000);
    EXPECT_LE(coarse.streamValues().size(), 2u);
    EXPECT_LT(coarse.memoryBytes(), dense.memoryBytes());
}

TEST(RateLogTest, RearmResetsStreamState)
{
    RateLog log;
    log.armStream(0.0, 0.5);
    log.setRate(0.0, 8.0);
    log.setRate(1.0, 0.0);
    // Truncate the warm-up and re-arm on the measurement boundary.
    log.dropBefore(1.0);
    log.armStream(1.0, 0.5);
    log.setRate(1.5, 6.0);
    log.finalize(2.0);

    EXPECT_DOUBLE_EQ(log.streamBegin(), 1.0);
    EXPECT_DOUBLE_EQ(log.streamEnd(), 2.0);
    ASSERT_GE(log.streamValues().size(), 2u);
    EXPECT_DOUBLE_EQ(log.streamValues()[0], 0.0);
    EXPECT_DOUBLE_EQ(log.streamValues()[1], 6.0);
    for (std::size_t b = 2; b < log.streamValues().size(); ++b)
        EXPECT_DOUBLE_EQ(log.streamValues()[b], 0.0);
    EXPECT_DOUBLE_EQ(log.totalBytes(), 3.0);
}

} // namespace
} // namespace dstrain
