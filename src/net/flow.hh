/**
 * @file
 * The flow abstraction of the fluid network model.
 *
 * A flow is a point-to-point transfer in progress: a fixed route, a
 * byte count, and a time-varying rate assigned by the scheduler via
 * max-min fair sharing. Flows are the *only* consumers of resource
 * capacity; everything the telemetry layer reports derives from flow
 * rates deposited into resource rate logs.
 */

#ifndef DSTRAIN_NET_FLOW_HH
#define DSTRAIN_NET_FLOW_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hw/routing.hh"
#include "util/units.hh"

namespace dstrain {

/** Identifies an active flow. */
using FlowId = std::uint64_t;

/** An interned debugging label (see TagTable); 0 is the empty label. */
using TagId = std::uint32_t;

/** The TagId of the empty label. */
constexpr TagId kNoTag = 0;

/**
 * Interned debugging labels. Flows and transfers carry a TagId
 * instead of a string, so the per-flow path copies no text; a caller
 * interns its label once (a collective once per invocation) and
 * diagnostics resolve the id back with label().
 */
class TagTable
{
  public:
    TagTable();

    /** The id of @p label, adding it on first use; "" is kNoTag. */
    TagId intern(std::string_view label);

    /** The label of @p id. */
    const std::string &label(TagId id) const;

  private:
    /** Labels by id; a deque keeps each string (and the views the
     * index holds into it) in place. */
    std::deque<std::string> labels_;
    std::unordered_map<std::string_view, TagId> ids_;
};

/** Parameters for starting a flow. */
struct FlowSpec {
    /**
     * The path (non-owning; valid for the start() call, which copies
     * what the flow keeps). Must be valid.
     */
    const Route *route = nullptr;

    /** Payload size; zero-byte flows complete immediately. */
    Bytes bytes = 0.0;

    /**
     * Additional per-flow rate cap in Bps (device limits such as
     * NVMe media throughput). 0 means "route cap only".
     */
    Bps rate_cap = 0.0;

    /**
     * Additional shared resources this flow consumes beyond the
     * route's links (e.g. the IOD crossbar for cross-socket storage
     * streams); valid for the start() call.
     */
    std::span<const ResourceId> extra_resources;

    /** Invoked (once) when the last byte arrives. */
    std::function<void()> on_complete;

    /** Debugging label (FlowScheduler::tags()). */
    TagId tag = kNoTag;
};

/** finish_at value for flows that are not progressing. */
constexpr SimTime kFlowNeverFinishes =
    std::numeric_limits<SimTime>::infinity();

/**
 * Internal representation of an active flow (scheduler-owned). Its
 * deduplicated resources, and its position in each resource's
 * crossing-flow list, live as a span of the scheduler's route arena.
 */
struct Flow {
    /** Start sequence (from 1; 0 = free slot). Ascending sequence is
     * start order, the canonical flow order of the scheduler. */
    std::uint64_t seq = 0;
    /**
     * Bytes left as of `anchor`. The scheduler keeps (anchor,
     * remaining) exact and settles a flow — one multiply-subtract
     * over the whole constant-rate span — only when its rate
     * changes or its remaining is observed, never piecewise at
     * unrelated events.
     */
    Bytes remaining = 0.0;
    SimTime anchor = 0.0;  ///< time `remaining` was last made exact
    /**
     * Predicted completion time, anchor + remaining / rate, kept in
     * the scheduler's completion index; kFlowNeverFinishes while the
     * flow is rate-less (stalled or mid-batch).
     */
    SimTime finish_at = kFlowNeverFinishes;
    Bps rate = 0.0;        ///< current assigned rate
    Bps cap = 0.0;         ///< min(route cap, spec cap)
    bool stalled = false;  ///< parked: every crossed link at zero capacity
    std::function<void()> on_complete;
    TagId tag = kNoTag;
};

} // namespace dstrain

#endif // DSTRAIN_NET_FLOW_HH
