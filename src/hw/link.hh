/**
 * @file
 * Link/interconnect primitives of the hardware model.
 *
 * The paper characterizes seven interconnect classes (Table III):
 * CPU-DRAM, CPU-CPU (xGMI), CPU-GPU (PCIe), GPU-GPU (NVLink),
 * CPU-NIC (PCIe), CPU-NVME (PCIe) and inter-node RoCE. dstrain models
 * each physical interconnect *direction* as a `Resource` with a fixed
 * capacity; half-duplex interconnects (DRAM) use a single shared
 * resource for both directions. Flows consume resource capacity and
 * the per-resource `RateLog` folds the aggregate rate history online
 * into the fixed-interval buckets that telemetry turns into the
 * paper's avg/90th/peak summaries.
 */

#ifndef DSTRAIN_HW_LINK_HH
#define DSTRAIN_HW_LINK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/units.hh"

namespace dstrain {

/** The interconnect classes of paper Table III. */
enum class LinkClass {
    Dram,      ///< CPU memory channels (half-duplex, shared)
    Xgmi,      ///< inter-socket Infinity Fabric (IFIS)
    PcieGpu,   ///< PCIe 4.0 x16 between CPU and GPU
    PcieNvme,  ///< PCIe 4.0 x4 between CPU and one NVMe drive
    PcieNic,   ///< PCIe 4.0 x16 between CPU and NIC
    NvLink,    ///< NVLink 3.0 GPU-GPU bundle
    Roce,      ///< NIC <-> switch Ethernet/RoCE
    NvmeMedia, ///< internal NVMe media throughput (device-side cap)
    IodXbar,   ///< the EPYC IOD crossbar path for sustained
               ///< SerDes-to-SerDes storage streams (Sec. III-C4)
};

/** Number of distinct LinkClass values (for array-indexed tables). */
inline constexpr int kNumLinkClasses = 9;

/** Human-readable class name, matching the paper's column headers. */
const char *linkClassName(LinkClass cls);

/**
 * Achievable fraction of theoretical capacity for a class (protocol
 * and encoding overhead). Calibrated so the stress tests of paper
 * Sec. III-C reproduce: e.g. same-socket CPU-RoCE reaches 93% of the
 * RoCE line rate.
 */
// Defined inline: called per hop in route analysis and per
// resource at scheduler registration — hot enough that the call
// outweighs the switch.
inline double
linkClassEfficiency(LinkClass cls)
{
    // Protocol/encoding efficiency: the achievable fraction of the
    // quoted line rate under ideal (same-socket, uncontended)
    // conditions. RoCE is calibrated to the paper's 93% stress-test
    // result; PCIe/NVLink values follow common microbenchmark
    // achievable rates; DRAM accounts for refresh/turnaround.
    switch (cls) {
      case LinkClass::Dram:
        return 0.85;
      case LinkClass::Xgmi:
        return 0.88;
      case LinkClass::PcieGpu:
      case LinkClass::PcieNvme:
      case LinkClass::PcieNic:
        return 0.82;
      case LinkClass::NvLink:
        return 0.80;
      case LinkClass::Roce:
        return 0.93;
      case LinkClass::NvmeMedia:
      case LinkClass::IodXbar:
        return 1.0;  // these capacities are already effective rates
    }
    panic("unknown LinkClass %d", static_cast<int>(cls));
}

/** How a link attaches at a CPU IOD (for SerDes-contention counting). */
enum class PortKind {
    MemCtrl,  ///< via the DDR memory controller (DRAM)
    SerDes,   ///< via an x16 I/O SerDes set (PCIe, xGMI)
    Device,   ///< endpoint is not a CPU (GPU/NIC/NVMe/switch side)
};

/**
 * Most buckets one telemetry grid may span: 32 MiB of doubles per
 * rate log, e.g. 4.8 days of simulated time at the 0.1 s default
 * bucket. A longer window at the chosen bucket width asks for a finer
 * profile than memory can hold, so it stops the run with fatal().
 */
inline constexpr double kMaxGridBuckets = 4194304.0;

/**
 * The number of buckets of width @p bucket in @p span seconds, as a
 * double; fatal() when it reaches kMaxGridBuckets (or is NaN), so a
 * bucket index never overflows its integer type.
 */
double gridBuckets(SimTime span, SimTime bucket);

/**
 * Aggregate-rate history of one resource.
 *
 * The flow scheduler calls setRate() whenever the aggregate rate on
 * the resource changes. Each rate change closes one constant-rate
 * interval, which adds to an O(1) byte counter and, once armStream()
 * has been called, folds into a per-bucket accumulator on the grid
 * `begin + k * bucket` in O(1) amortized time, carrying
 * partial-bucket overlap exactly (DESIGN.md §6.4). Closed intervals
 * are not stored: memory is O(buckets), independent of how many rate
 * changes occur, so the grid must be armed before the history it
 * should cover is recorded.
 *
 * finalize() closes the open interval at end-of-run.
 */
class RateLog
{
  public:
    /** Record a rate change at time @p t. No-op if rate unchanged.
     * Inline: the scheduler calls this once per solved resource per
     * solve, and most calls take one of the two cheap early paths
     * (unchanged rate, or same-timestamp overwrite). */
    void setRate(SimTime t, Bps rate)
    {
        DSTRAIN_ASSERT(t >= open_since_, "rate log time went backwards");
        if (rate == current_rate_)
            return;
        if (t > open_since_)
            close(t);
        open_since_ = t;
        current_rate_ = rate;
    }

    /** Rate of the open interval. */
    Bps currentRate() const { return current_rate_; }

    /** Close the open interval at @p t (idempotent for same t). */
    void finalize(SimTime t);

    /** Total bytes across all closed history (O(1) running sum). */
    Bytes totalBytes() const { return total_bytes_; }

    /**
     * Total bytes carried through time @p t: the closed history plus
     * the open interval's contribution up to @p t. O(1) and exact for
     * any @p t at or after the last rate change; used by the fault
     * injector to compute before/during/after window averages.
     */
    Bytes bytesThrough(SimTime t) const
    {
        return total_bytes_ +
               current_rate_ * std::max(0.0, t - open_since_);
    }

    /**
     * Start the byte counter afresh at @p t (history truncation
     * between warm-up and measurement windows). Closed intervals are
     * not stored, so @p t must not fall before the last rate change:
     * a closed interval's bytes on either side of @p t can no longer
     * be told apart.
     */
    void dropBefore(SimTime t);

    // --- streaming bucket accumulator -------------------------------------

    /**
     * Arm the online accumulator on the grid `begin + k * bucket`.
     * Rate changes closed after arming fold into per-bucket sums;
     * history closed before arming (or before @p begin) is excluded.
     * Re-arming resets the accumulated buckets.
     */
    void armStream(SimTime begin, SimTime bucket);

    /** Is the streaming accumulator armed? */
    bool streamArmed() const { return stream_armed_; }

    /** Grid origin of the armed accumulator. */
    SimTime streamBegin() const { return stream_begin_; }

    /** Bucket width of the armed accumulator. */
    SimTime streamBucket() const { return stream_bucket_; }

    /** Time the accumulator has folded history up to. */
    SimTime streamEnd() const { return stream_end_; }

    /**
     * Per-bucket average-rate sums (same unit as a BandwidthSeries
     * value). The array grows lazily with activity; buckets past the
     * last deposit are implicitly zero.
     */
    const std::vector<double> &streamValues() const
    {
        return stream_values_;
    }

    /**
     * Can a series over [@p begin, @p end) at @p bucket be read from
     * the streamed buckets? Requires an exact grid match and that no
     * folded history extends past @p end (the accumulator cannot
     * un-fold it).
     */
    bool streamCovers(SimTime begin, SimTime end, SimTime bucket) const
    {
        return stream_armed_ && stream_begin_ == begin &&
               stream_bucket_ == bucket && stream_end_ <= end;
    }

    // --- observability ----------------------------------------------------

    /** Bucket deposits performed by the accumulator so far. */
    std::uint64_t bucketsTouched() const { return buckets_touched_; }

    /** Heap bytes held by this log (the stream buckets). */
    std::size_t memoryBytes() const
    {
        return stream_values_.capacity() * sizeof(double);
    }

  private:
    /** Close the open interval at @p t (count / fold). */
    void close(SimTime t);

    /** Fold one closed interval into the armed bucket accumulator. */
    void fold(SimTime s_begin, SimTime s_end, Bps rate);

    std::vector<double> stream_values_;
    SimTime open_since_ = 0.0;
    Bps current_rate_ = 0.0;
    Bytes total_bytes_ = 0.0;
    SimTime stream_begin_ = 0.0;
    SimTime stream_bucket_ = 0.0;
    SimTime stream_end_ = 0.0;
    std::uint64_t buckets_touched_ = 0;
    bool stream_armed_ = false;
};

/** Identifies one capacity resource inside a Topology. */
using ResourceId = int;

/** An invalid/absent resource id. */
inline constexpr ResourceId kNoResource = -1;

/**
 * One direction of an interconnect (or a shared half-duplex pool):
 * the unit of bandwidth contention in the flow model.
 */
struct Resource {
    ResourceId id = kNoResource;
    LinkClass cls = LinkClass::Dram;

    /**
     * Current theoretical capacity of this direction. Equals
     * `nominal_capacity` on a healthy link; the fault injector lowers
     * it mid-run through FlowScheduler::setCapacities (never directly,
     * so the scheduler's effective-capacity array stays in sync).
     */
    Bps capacity = 0.0;

    /** As-built capacity (what `capacity` returns to after a fault). */
    Bps nominal_capacity = 0.0;

    std::string label;    ///< e.g. "n0.pcie-gpu0.fwd"
    int node = -1;        ///< owning node index, -1 for the switch
    int socket = -1;      ///< owning socket within node, -1 if n/a
    RateLog log;          ///< aggregate-rate history for telemetry
};

} // namespace dstrain

#endif // DSTRAIN_HW_LINK_HH
