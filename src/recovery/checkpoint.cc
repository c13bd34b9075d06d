/**
 * @file
 * Implementation of the checkpoint policy and sizing arithmetic.
 */

#include "recovery/checkpoint.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "model/memory.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

std::vector<ConfigError>
CheckpointPolicy::validate() const
{
    std::vector<ConfigError> errors;
    if (interval < 0.0)
        errors.push_back({"checkpoint.interval", "must be >= 0"});
    if (every_iterations < 0)
        errors.push_back({"checkpoint.every_iterations", "must be >= 0"});
    if (interval > 0.0 && every_iterations > 0) {
        errors.push_back({"checkpoint",
                          "interval and every_iterations are mutually "
                          "exclusive"});
    }
    return errors;
}

std::string
CheckpointPolicy::str() const
{
    if (every_iterations > 0)
        return csprintf("%di", every_iterations);
    if (interval > 0.0)
        return csprintf("%gs", interval);
    return "off";
}

CheckpointPolicy
parseCheckpointSpec(const std::string &spec,
                    std::vector<ConfigError> *errors)
{
    DSTRAIN_ASSERT(errors != nullptr,
                   "parseCheckpointSpec needs an error sink");
    CheckpointPolicy policy;
    const std::string item = trim(spec);
    if (item.empty() || item == "off")
        return policy;

    std::string number = item;
    char unit = 's';
    const char last = item.back();
    if (last == 's' || last == 'i') {
        unit = last;
        number = item.substr(0, item.size() - 1);
    }
    char *end = nullptr;
    const double v = std::strtod(number.c_str(), &end);
    // Reject non-finite explicitly: NaN slips through a <= range
    // check (every comparison is false).
    if (number.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(v) || v <= 0.0) {
        errors->push_back({"checkpoint['" + item + "']",
                           "expected '<seconds>[s]', '<k>i', or 'off'"});
        return policy;
    }
    if (unit == 'i') {
        if (v != std::floor(v) || v > std::numeric_limits<int>::max()) {
            errors->push_back(
                {"checkpoint['" + item + "']",
                 csprintf("iteration count must be an integer <= %d",
                          std::numeric_limits<int>::max())});
            return policy;
        }
        policy.every_iterations = static_cast<int>(v);
    } else {
        policy.interval = v;
    }
    return policy;
}

Bytes
checkpointShardBytes(const StrategyConfig &strategy, std::int64_t params,
                     int total_gpus, int rank)
{
    DSTRAIN_ASSERT(total_gpus > 0 && rank >= 0 && rank < total_gpus,
                   "bad checkpoint rank %d of %d", rank, total_gpus);
    const ModelStateBytes state = modelStateBytes(params);
    const double n = static_cast<double>(total_gpus);
    const int mp = strategy.modelParallelSize();
    // Persistent state only: fp16 params + fp32 optimizer. Gradients
    // are transient and never checkpointed.
    switch (strategy.kind) {
      case StrategyKind::Ddp:
        // One full copy, written by rank 0.
        return rank == 0 ? state.fp16_params + state.fp32_optimizer
                         : 0.0;
      case StrategyKind::Megatron:
        // One copy sharded across the first data-parallel replica's
        // model-parallel ranks (the other replicas hold duplicates).
        return rank < mp ? (state.fp16_params + state.fp32_optimizer) /
                               mp
                         : 0.0;
      case StrategyKind::Zero1:
      case StrategyKind::Zero2: {
        // Optimizer state is partitioned across every rank; fp16
        // params stay whole per model-parallel group, so only the
        // first replica writes its parameter shard.
        const Bytes opt = state.fp32_optimizer / n;
        const Bytes par =
            rank < mp ? state.fp16_params / mp : 0.0;
        return opt + par;
      }
      case StrategyKind::Zero3:
      case StrategyKind::Fsdp:
        // Everything is partitioned: every rank writes an equal slice.
        return (state.fp16_params + state.fp32_optimizer) / n;
      case StrategyKind::Moe: {
        // The replicated shared third is written once by rank 0; the
        // expert two-thirds is partitioned across the first expert
        // group (other groups hold duplicates).
        const int ep = strategy.experts > 0
                           ? std::min(strategy.experts, total_gpus)
                           : total_gpus;
        const double f = 1.0 / 3.0;
        const Bytes full = state.fp16_params + state.fp32_optimizer;
        const Bytes shared = rank == 0 ? f * full : 0.0;
        const Bytes expert =
            rank < ep ? (1.0 - f) * full / ep : 0.0;
        return shared + expert;
      }
      case StrategyKind::Hybrid3d: {
        // fp16 params sharded over the first replica's MP ranks;
        // optimizer states ZeRO-partitioned across every rank.
        const Bytes opt = state.fp32_optimizer / n;
        const Bytes par = rank < mp ? state.fp16_params / mp : 0.0;
        return opt + par;
      }
    }
    panic("unknown StrategyKind %d", static_cast<int>(strategy.kind));
}

Bytes
checkpointTotalBytes(const StrategyConfig &strategy, std::int64_t params,
                     int total_gpus)
{
    Bytes total = 0.0;
    for (int r = 0; r < total_gpus; ++r)
        total += checkpointShardBytes(strategy, params, total_gpus, r);
    return total;
}

SimTime
youngDalyInterval(SimTime delta, SimTime mtbf)
{
    DSTRAIN_ASSERT(delta > 0.0 && mtbf > 0.0,
                   "Young/Daly needs positive cost (%g) and MTBF (%g)",
                   delta, mtbf);
    return std::sqrt(2.0 * delta * mtbf);
}

} // namespace dstrain
