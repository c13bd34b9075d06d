/**
 * @file
 * Canned configurations matching the paper's experimental setup:
 * the XE8545 cluster, the strategy lineups of each figure, and the
 * Megatron degrees used per node count (TP=4 single node, TP=8
 * spanning both nodes for dual-node runs — the configuration whose
 * inter-node all-reduces cause the Sec. IV-C2 throughput collapse).
 */

#ifndef DSTRAIN_CORE_PRESETS_HH
#define DSTRAIN_CORE_PRESETS_HH

#include <vector>

#include "core/experiment.hh"

namespace dstrain {

/** The paper's cluster: @p nodes XE8545 nodes (Table II defaults).
 * A count below 1 is left for ExperimentConfig::validate() to reject. */
ClusterSpec xe8545Cluster(int nodes);

/** The paper's Megatron configuration for a node count. */
StrategyConfig paperMegatron(int nodes);

/**
 * The Fig. 6/7 lineup for a node count: DDP, Megatron, ZeRO-1/2/3.
 */
std::vector<StrategyConfig> comparisonLineup(int nodes);

/**
 * The Fig. 11 consolidation lineup: dual-node Megatron vs
 * single-node ZeRO-Offload (ZeRO-2/3) and ZeRO-Infinity
 * (optimizer / optimizer+parameter NVMe offload).
 */
std::vector<StrategyConfig> consolidationLineup();

/** The Fig. 13 largest-single-node lineup. */
std::vector<StrategyConfig> largestModelLineup();

/** The Table V sensitivity lineup (8 configurations). */
std::vector<StrategyConfig> sensitivityLineup();

/**
 * A ready-to-run ExperimentConfig for one paper configuration.
 *
 * @param nodes     1 or 2.
 * @param strategy  the strategy.
 * @param billions  model size; 0 = largest fitting.
 */
ExperimentConfig paperExperiment(int nodes,
                                 const StrategyConfig &strategy,
                                 double billions = 0.0);

} // namespace dstrain

#endif // DSTRAIN_CORE_PRESETS_HH
