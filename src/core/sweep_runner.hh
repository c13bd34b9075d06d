/**
 * @file
 * SweepRunner: run many independent experiments concurrently.
 *
 * Every paper table/figure is produced by sweeping a family of
 * ExperimentConfigs; each Experiment owns its own Simulation, cluster
 * and engines, so the points are embarrassingly parallel. Each run()
 * starts one thread per job (never more than points) and joins them
 * before returning: configs are claimed from an atomic cursor,
 * results land at the index of their config (deterministic ordering
 * regardless of completion order), and an optional progress callback
 * is invoked — serialized — as each point completes.
 *
 * Determinism: a report depends only on its config (no
 * randomness, single-threaded DES per experiment), so a sweep at --jobs N is
 * byte-identical to the same sweep at --jobs 1; the determinism
 * regression tests and bench/micro_flow_scheduler.cc assert this.
 */

#ifndef DSTRAIN_CORE_SWEEP_RUNNER_HH
#define DSTRAIN_CORE_SWEEP_RUNNER_HH

#include <functional>
#include <vector>

#include "core/experiment.hh"

namespace dstrain {

/** Runs independent experiments on a bounded number of threads. */
class SweepRunner
{
  public:
    /**
     * Called (serialized, from the sweep's threads) after each point
     * completes: points done so far, total points, and the index of
     * the point that just finished.
     */
    using Progress =
        std::function<void(std::size_t done, std::size_t total,
                           std::size_t index)>;

    /**
     * @param jobs worker threads; <= 0 means one per hardware
     * thread. jobs == 1 runs inline on the calling thread.
     */
    explicit SweepRunner(int jobs = 0);

    /** The resolved worker count (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Run every config; result i corresponds to configs[i].
     * @param configs the sweep points (consumed).
     * @param progress optional completion callback.
     */
    std::vector<ExperimentReport>
    run(std::vector<ExperimentConfig> configs,
        const Progress &progress = {}) const;

  private:
    int jobs_;
};

} // namespace dstrain

#endif // DSTRAIN_CORE_SWEEP_RUNNER_HH
