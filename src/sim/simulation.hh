/**
 * @file
 * The simulation context: owns the event queue and provides
 * run-control for every dstrain experiment.
 *
 * Nothing in a run is random, and telemetry deliberately uses no
 * periodic wake-up events: at every rate change, a resource's rate
 * log folds the interval just closed into its byte counter and the
 * armed telemetry grid, and keeps no segments (hw/link.hh). This
 * keeps the event count proportional to the modeled work and makes
 * runs exactly reproducible.
 */

#ifndef DSTRAIN_SIM_SIMULATION_HH
#define DSTRAIN_SIM_SIMULATION_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "util/units.hh"

namespace dstrain {

/**
 * Top-level simulation context.
 *
 * One Simulation instance corresponds to one experiment run. All
 * model components hold a reference to it for scheduling and for
 * reading the clock.
 */
class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** The event queue. */
    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }

    /** Current simulated time. */
    SimTime now() const { return events_.now(); }

    /**
     * Run to completion.
     * @return final simulated time.
     */
    SimTime run() { return events_.run(); }

    /** Run until a given simulated time. */
    SimTime runUntil(SimTime t) { return events_.runUntil(t); }

    /**
     * Guard against runaway simulations: run() panics if more than
     * this many events execute. Defaults to 200 million.
     */
    void setEventLimit(std::uint64_t limit) { event_limit_ = limit; }

    /** The configured event limit. */
    std::uint64_t eventLimit() const { return event_limit_; }

    /**
     * Check the event limit; called by long-running drivers between
     * phases. Panics when exceeded (indicates a modeling bug such as
     * a zero-length self-rescheduling loop).
     */
    void checkEventLimit() const;

  private:
    EventQueue events_;
    std::uint64_t event_limit_ = 200'000'000;
};

} // namespace dstrain

#endif // DSTRAIN_SIM_SIMULATION_HH
