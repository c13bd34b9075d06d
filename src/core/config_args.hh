/**
 * @file
 * Shared CLI-flag-to-ExperimentConfig plumbing: every dstrain
 * subcommand (run, sweep, faults) declares the same experiment
 * options and builds its ExperimentConfig the same way, so flag
 * spellings, defaults and validation live in exactly one place.
 */

#ifndef DSTRAIN_CORE_CONFIG_ARGS_HH
#define DSTRAIN_CORE_CONFIG_ARGS_HH

#include <optional>

#include "core/experiment.hh"
#include "util/args.hh"

namespace dstrain {

/** Result of turning parsed flags into a config. */
struct ParsedExperiment {
    ExperimentConfig config;
    std::vector<ConfigError> errors;

    /** True when the config is usable (no errors). */
    bool ok() const { return errors.empty(); }
};

/**
 * Map a CLI strategy name (e.g. "zero3", "zero2-cpu", "megatron")
 * to its configuration; nullopt for an unknown name. @p tp / @p pp
 * override the tensor/pipeline-parallel degrees where applicable.
 */
std::optional<StrategyConfig>
parseStrategyName(const std::string &name, int tp = 0, int pp = 0);

/**
 * The names parseStrategyName() accepts (" | "-joined, for help
 * text), enumerated from the strategy registry.
 */
std::string strategyNameHelp();

/**
 * Declare the experiment-defining options (--nodes, --strategy,
 * --model, --tp, --pp, --batch, --iterations, --placement, --bucket,
 * --faults, --checkpoint, --recovery, --no-serdes) on @p args.
 * Output-side flags (--csv, --trace, ...) remain each subcommand's
 * own business.
 */
void addExperimentOptions(ArgParser &args);

/**
 * The iteration count a run takes for a requested @p iterations: the
 * executor needs at least one measured (post-warm-up) iteration, so a
 * count of 1 or more is raised past @p warmup; anything below 1 is
 * returned as-is for ExperimentConfig::validate() to reject. Every
 * subcommand's `--iterations` goes through it.
 */
int iterationsPastWarmup(int warmup, int iterations);

/**
 * Build an ExperimentConfig from options declared by
 * addExperimentOptions(). Collects every problem (unknown strategy,
 * malformed --faults spec, out-of-range fields) rather than stopping
 * at the first; check ok() before using the config.
 */
ParsedExperiment experimentFromArgs(const ArgParser &args);

} // namespace dstrain

#endif // DSTRAIN_CORE_CONFIG_ARGS_HH
