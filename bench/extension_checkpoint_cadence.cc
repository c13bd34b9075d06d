/**
 * @file
 * Extension: the checkpoint cadence that maximizes goodput under a
 * node failure, next to the Young/Daly estimate. Dual-node ZeRO-3 at
 * 6.6 B checkpoints every 1..4 iterations while node 1 dies in the
 * middle of the measured window (restart recovery). Too dense a
 * cadence pays checkpoint overhead; too sparse a cadence pays replay.
 * The Young/Daly interval tau = sqrt(2 * delta * MTBF) uses the
 * simulated per-checkpoint stall as delta and the one injected
 * failure over the measured span as MTBF.
 *
 *   ./extension_checkpoint_cadence [--iterations N] [--jobs N]
 */

#include <iostream>

#include "bench_common.hh"
#include "core/sweep_runner.hh"
#include "recovery/checkpoint.hh"
#include "util/args.hh"

using namespace dstrain;

namespace {

/** The dual-node ZeRO-3 configuration every point shares. */
ExperimentConfig
baseConfig(int iterations)
{
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::zero(3), 6.6);
    bench::applyRunSettings(cfg, iterations);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("extension_checkpoint_cadence",
                   "goodput-optimal checkpoint cadence under a node "
                   "failure vs the Young/Daly estimate");
    args.addOption("iterations", "6", "training iterations per run");
    args.addOption("jobs", "0",
                   "sweep worker threads (0 = one per hardware "
                   "thread)");
    if (!args.parse(argc, argv))
        return 1;
    const int iterations = args.getInt("iterations");

    bench::banner("Extension — checkpoint cadence vs Young/Daly "
                  "(ZeRO-3, 2 nodes, 6.6B, nodedown mid-window)");

    // Aim the failure mid-window using a clean run's measured span.
    const ExperimentReport clean = runExperiment(baseConfig(iterations));
    const double span = clean.execution.measured_end -
                        clean.execution.measured_begin;
    const double mid = clean.execution.measured_begin + 0.5 * span;

    const int ks[] = {1, 2, 3, 4};
    std::vector<ExperimentConfig> sweep;
    for (int k : ks) {
        ExperimentConfig cfg = baseConfig(iterations);
        cfg.recovery.checkpoint.every_iterations = k;
        std::vector<ConfigError> errors;
        cfg.faults = parseFaultSpec(csprintf("nodedown@%g:n1", mid),
                                    &errors);
        DSTRAIN_ASSERT(errors.empty(), "bench fault spec invalid");
        sweep.push_back(std::move(cfg));
    }
    const std::vector<ExperimentReport> reports =
        SweepRunner(args.getInt("jobs")).run(sweep);

    TextTable table({"Checkpoint every", "Goodput (TFLOP/s)",
                     "Checkpoint overhead", "Lost iterations"});
    int best_k = 0;
    double best_goodput = -1.0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const RecoveryReport &rc = reports[i].recovery;
        if (rc.goodput_tflops > best_goodput) {
            best_goodput = rc.goodput_tflops;
            best_k = ks[i];
        }
        table.addRow({csprintf("%d iteration(s)", ks[i]),
                      csprintf("%.1f", rc.goodput_tflops),
                      csprintf("%.1f%%", 100.0 * rc.checkpoint_overhead),
                      csprintf("%d", rc.lost_iterations)});
    }
    std::cout << table.render();

    const RecoveryReport &densest = reports[0].recovery;
    const double delta =
        densest.checkpoints > 0
            ? densest.checkpoint_time / densest.checkpoints
            : 0.0;
    const double tau = delta > 0.0 ? youngDalyInterval(delta, span) : 0.0;
    std::cout << csprintf(
        "Best simulated cadence: every %d iteration(s), %.1f TFLOP/s "
        "goodput\nYoung/Daly: delta %.2f s per checkpoint, MTBF %.2f "
        "s -> tau %.2f s = %.2f iterations of %.2f s\n",
        best_k, best_goodput, delta, span, tau,
        clean.iteration_time > 0.0 ? tau / clean.iteration_time : 0.0,
        clean.iteration_time);
    return 0;
}
