#include "net/resilience.hh"

namespace dstrain {

std::vector<ConfigError>
ResilienceConfig::validate() const
{
    std::vector<ConfigError> errors;
    // The collective watchdog polls through a reconvergence window,
    // so the window bounds that work: routing converges in O(ms).
    if (!(reconvergence_delay >= 0.0 && reconvergence_delay <= 60.0))
        errors.push_back({"resilience.reconvergence_delay",
                          "must be in [0, 60] s"});
    // A shorter timeout re-arms the watchdog faster than the clock
    // can advance (1 ms is 25x below the default); an hour is twice
    // the usual NCCL watchdog, and armed timers must stay within the
    // simulated-time horizon.
    if (collective_timeout != 0.0 &&
        !(collective_timeout >= 1e-3 && collective_timeout <= 3600.0))
        errors.push_back({"resilience.collective_timeout",
                          "must be 0 (watchdog off) or in [1 ms, "
                          "3600 s]"});
    return errors;
}

ResilienceCoordinator::ResilienceCoordinator(Simulation &sim,
                                             const Router &router,
                                             ResilienceConfig config)
    : sim_(sim), router_(router), cfg_(std::move(config))
{
}

bool
ResilienceCoordinator::inReconvergence() const
{
    return dirty_ && sim_.now() < converging_until_;
}

SimTime
ResilienceCoordinator::reconvergedAt() const
{
    return inReconvergence() ? converging_until_ : sim_.now();
}

void
ResilienceCoordinator::onTopologyChange()
{
    const SimTime until = sim_.now() + cfg_.reconvergence_delay;
    converging_until_ = dirty_ ? std::max(converging_until_, until)
                               : until;
    dirty_ = true;
    if (!flush_armed_) {
        flush_armed_ = true;
        sim_.events().schedule(converging_until_,
                               [this] { maybeInvalidate(); });
    }
}

void
ResilienceCoordinator::maybeInvalidate()
{
    flush_armed_ = false;
    if (!dirty_)
        return;  // ensureFresh() already flushed
    if (sim_.now() < converging_until_) {
        // A later change extended the window past this event; re-arm
        // at the new end.
        flush_armed_ = true;
        sim_.events().schedule(converging_until_,
                               [this] { maybeInvalidate(); });
        return;
    }
    invalidate();
}

void
ResilienceCoordinator::ensureFresh()
{
    if (dirty_)
        invalidate();
}

void
ResilienceCoordinator::invalidate()
{
    router_.invalidateRouteCaches();
    ++stats_.route_invalidations;
    dirty_ = false;
}

} // namespace dstrain
