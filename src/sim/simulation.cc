/**
 * @file
 * Implementation of the simulation context.
 */

#include "sim/simulation.hh"

#include "util/logging.hh"

namespace dstrain {

void
Simulation::checkEventLimit() const
{
    if (events_.executedCount() > event_limit_) {
        panic("event limit exceeded (%llu events executed); "
              "likely a zero-delay rescheduling loop",
              static_cast<unsigned long long>(events_.executedCount()));
    }
}

} // namespace dstrain
