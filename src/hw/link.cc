/**
 * @file
 * Implementation of link primitives.
 */

#include "hw/link.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dstrain {

const char *
linkClassName(LinkClass cls)
{
    switch (cls) {
      case LinkClass::Dram:
        return "DRAM";
      case LinkClass::Xgmi:
        return "xGMI";
      case LinkClass::PcieGpu:
        return "PCIe-GPU";
      case LinkClass::PcieNvme:
        return "PCIe-NVME";
      case LinkClass::PcieNic:
        return "PCIe-NIC";
      case LinkClass::NvLink:
        return "NVLink";
      case LinkClass::Roce:
        return "RoCE";
      case LinkClass::NvmeMedia:
        return "NVMe-media";
      case LinkClass::IodXbar:
        return "IOD-xbar";
    }
    panic("unknown LinkClass %d", static_cast<int>(cls));
}


double
gridBuckets(SimTime span, SimTime bucket)
{
    const double buckets = span / bucket;
    if (!(buckets < kMaxGridBuckets)) {
        fatal("telemetry: %g s at a %g s bucket needs %g buckets per "
              "link, over the %g limit; sample with a coarser bucket "
              "(--bucket)",
              span, bucket, buckets, kMaxGridBuckets);
    }
    return buckets;
}

void
RateLog::fold(SimTime s_begin, SimTime s_end, Bps rate)
{
    if (rate == 0.0 || s_end <= stream_begin_)
        return;
    // Deposit the interval's bytes into every bucket it overlaps,
    // clipped at the grid origin; each deposit is the bucket's share
    // of the interval expressed as an average rate over the bucket.
    const SimTime s0 = std::max(s_begin, stream_begin_);
    const SimTime s1 = s_end;
    const auto first =
        static_cast<std::size_t>((s0 - stream_begin_) / stream_bucket_);
    const auto last = static_cast<std::size_t>(
        gridBuckets(s1 - stream_begin_, stream_bucket_));
    if (last >= stream_values_.size())
        stream_values_.resize(last + 1, 0.0);
    for (std::size_t b = first; b <= last; ++b) {
        const SimTime b0 =
            stream_begin_ + static_cast<double>(b) * stream_bucket_;
        const SimTime b1 = b0 + stream_bucket_;
        const SimTime overlap =
            std::max(0.0, std::min(s1, b1) - std::max(s0, b0));
        stream_values_[b] += rate * overlap / stream_bucket_;
        ++buckets_touched_;
    }
}

void
RateLog::close(SimTime t)
{
    // Caller guarantees t > open_since_.
    total_bytes_ += current_rate_ * (t - open_since_);
    if (stream_armed_) {
        fold(open_since_, t, current_rate_);
        // A trailing zero-rate interval deposits nothing, so it does
        // not advance the folded-history mark. This keeps
        // streamCovers() true when idle fault-restore events extend
        // the simulated clock past the measurement window.
        if (current_rate_ != 0.0)
            stream_end_ = t;
    }
    open_since_ = t;
}

void
RateLog::finalize(SimTime t)
{
    DSTRAIN_ASSERT(t >= open_since_, "finalize before last change");
    if (t > open_since_)
        close(t);
    open_since_ = t;
}

void
RateLog::armStream(SimTime begin, SimTime bucket)
{
    DSTRAIN_ASSERT(bucket > 0.0, "non-positive stream bucket");
    stream_armed_ = true;
    stream_begin_ = begin;
    stream_bucket_ = bucket;
    stream_end_ = begin;
    stream_values_.clear();
}

void
RateLog::dropBefore(SimTime t)
{
    DSTRAIN_ASSERT(t >= open_since_,
                   "dropBefore(%g) into closed history ending at %g", t,
                   open_since_);
    open_since_ = t;
    total_bytes_ = 0.0;
}

} // namespace dstrain
