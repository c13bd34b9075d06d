/**
 * @file
 * Tests for the shared flag-to-ExperimentConfig plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/config_args.hh"
#include "strategies/strategy.hh"

namespace dstrain {
namespace {

/** An ArgParser with the experiment options, already parsed. */
ArgParser
parsedArgs(std::vector<const char *> argv)
{
    ArgParser args("dstrain", "test");
    addExperimentOptions(args);
    argv.insert(argv.begin(), "dstrain");
    EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
    return args;
}

TEST(ConfigArgsTest, DefaultsProduceValidConfig)
{
    const ArgParser args = parsedArgs({});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    EXPECT_EQ(parsed.config.cluster.nodes, 1);
    EXPECT_TRUE(parsed.config.faults.empty());
    EXPECT_TRUE(parsed.config.validate().empty());
}

TEST(ConfigArgsTest, FlagsReachTheConfig)
{
    const ArgParser args = parsedArgs(
        {"--nodes", "2", "--strategy", "zero2-cpu", "--batch", "8",
         "--bucket", "0.2", "--placement", "G"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    EXPECT_EQ(parsed.config.cluster.nodes, 2);
    EXPECT_EQ(parsed.config.batch_per_gpu, 8);
    EXPECT_DOUBLE_EQ(parsed.config.telemetry.bucket, 0.2);
    EXPECT_EQ(parsed.config.placement.id, 'G');
}

TEST(ConfigArgsTest, FaultSpecIsParsed)
{
    const ArgParser args = parsedArgs(
        {"--faults", "degrade@1+0.5:roce:0.4,straggler@2:rank3:0.7"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    ASSERT_EQ(parsed.config.faults.events.size(), 2u);
    EXPECT_EQ(parsed.config.faults.events[0].kind,
              FaultKind::LinkDegrade);
    EXPECT_EQ(parsed.config.faults.events[1].target, "rank3");
}

TEST(ConfigArgsTest, FabricFlagIsParsed)
{
    const ArgParser args = parsedArgs(
        {"--nodes", "8", "--fabric", "fat-tree:k=8,oversub=2"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    EXPECT_EQ(parsed.config.cluster.fabric.kind, FabricKind::FatTree);
    EXPECT_EQ(parsed.config.cluster.fabric.fat_tree_k, 8);
    EXPECT_DOUBLE_EQ(parsed.config.cluster.fabric.oversubscription,
                     2.0);

    const ArgParser bad = parsedArgs({"--fabric", "torus"});
    EXPECT_FALSE(experimentFromArgs(bad).ok());
}

TEST(ConfigArgsTest, NodesSpecBuildsGroups)
{
    const ArgParser args = parsedArgs(
        {"--nodes-spec", "2:gpus=4,nics=2;1:gpus=8,nics=4"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    ASSERT_EQ(parsed.config.cluster.groups.size(), 2u);
    EXPECT_EQ(parsed.config.cluster.nodeCount(), 3);
    EXPECT_EQ(parsed.config.cluster.totalGpus(), 16);

    const ArgParser bad = parsedArgs({"--nodes-spec", "2:frobs=1"});
    EXPECT_FALSE(experimentFromArgs(bad).ok());
}

TEST(ConfigArgsTest, ErrorsAreCollectedNotFatal)
{
    const ArgParser args =
        parsedArgs({"--placement", "Z", "--bucket", "0",
                    "--faults", "degrade@1:bogus-class:0.5"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    EXPECT_FALSE(parsed.ok());
    // One error per problem, each naming its field.
    EXPECT_GE(parsed.errors.size(), 3u);
    bool placement = false, bucket = false, fault = false;
    for (const ConfigError &e : parsed.errors) {
        placement |= e.field == "placement";
        bucket |= e.field == "telemetry.bucket";
        fault |= e.field.rfind("faults", 0) == 0;
    }
    EXPECT_TRUE(placement);
    EXPECT_TRUE(bucket);
    EXPECT_TRUE(fault);
}

TEST(ConfigArgsTest, UnknownStrategyIsAnError)
{
    const ArgParser args = parsedArgs({"--strategy", "zero9"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_EQ(parsed.errors[0].field, "strategy");
}

TEST(ConfigArgsTest, StrategyNamesRoundTrip)
{
    for (const char *name :
         {"ddp", "megatron", "zero1", "zero2", "zero3", "zero1-cpu",
          "zero2-cpu", "zero3-cpu", "zero3-nvme", "zero3-nvme-params",
          "fsdp", "moe", "hybrid3d"}) {
        EXPECT_TRUE(parseStrategyName(name).has_value()) << name;
    }
    EXPECT_FALSE(parseStrategyName("zero9").has_value());
}

TEST(ConfigArgsTest, RegistryDrivesNamesAndHelp)
{
    // Every registered name parses, round-trips through create(),
    // and appears in the help string.
    const std::string help = strategyNameHelp();
    for (const std::string &name : Strategy::names()) {
        const auto cfg = parseStrategyName(name);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_NE(help.find(name), std::string::npos) << name;
        const auto strategy = Strategy::create(*cfg);
        ASSERT_NE(strategy, nullptr) << name;
        EXPECT_EQ(strategy->config().kind, cfg->kind) << name;
    }
    EXPECT_GE(Strategy::names().size(), 13u);
}

TEST(ConfigArgsTest, CollectiveAlgoFlagReachesTheConfig)
{
    const ArgParser args = parsedArgs(
        {"--collective-algo", "hierarchical,all-to-all=pairwise"});
    const ParsedExperiment parsed = experimentFromArgs(args);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    EXPECT_EQ(parsed.config.collective_algos.default_algo,
              CollectiveAlgo::Hierarchical);
    EXPECT_EQ(parsed.config.collective_algos.requestedFor(
                  CollectiveOp::AllToAll),
              CollectiveAlgo::Pairwise);

    const ArgParser bad = parsedArgs({"--collective-algo", "mesh"});
    const ParsedExperiment bad_parsed = experimentFromArgs(bad);
    ASSERT_FALSE(bad_parsed.ok());
    EXPECT_EQ(bad_parsed.errors[0].field, "collective-algo");
}

TEST(ConfigArgsTest, ExpertsFlagIsMoeOnly)
{
    const ArgParser moe =
        parsedArgs({"--strategy", "moe", "--experts", "4"});
    const ParsedExperiment parsed = experimentFromArgs(moe);
    ASSERT_TRUE(parsed.ok()) << formatConfigErrors(parsed.errors);
    EXPECT_EQ(parsed.config.strategy.kind, StrategyKind::Moe);
    EXPECT_EQ(parsed.config.strategy.experts, 4);

    const ArgParser bad =
        parsedArgs({"--strategy", "ddp", "--experts", "4"});
    EXPECT_FALSE(experimentFromArgs(bad).ok());
}

TEST(ConfigArgsTest, ModelParallelFlagsNeedAStrategyThatTakesThem)
{
    // A degree given to a strategy without that parallelism would be
    // dropped silently, so it is a user error on that flag.
    const std::vector<std::vector<const char *>> rejected = {
        {"--strategy", "fsdp", "--tp", "2"},
        {"--strategy", "ddp", "--pp", "2"},
        {"--strategy", "zero3", "--tp", "2"},
        {"--strategy", "zero1", "--pp", "2"},
        {"--strategy", "zero2", "--pp", "2"},
        {"--strategy", "moe", "--tp", "2"},
    };
    for (const auto &argv : rejected) {
        const ParsedExperiment parsed = experimentFromArgs(parsedArgs(argv));
        ASSERT_FALSE(parsed.ok()) << argv[1] << " " << argv[2];
        EXPECT_EQ(parsed.errors[0].field, std::string(argv[2] + 2))
            << argv[1];
    }
    // The entries that take the degrees keep them.
    const ParsedExperiment hybrid =
        experimentFromArgs(parsedArgs({"--strategy", "zero2", "--tp", "2"}));
    ASSERT_TRUE(hybrid.ok()) << formatConfigErrors(hybrid.errors);
    EXPECT_TRUE(hybrid.config.strategy.isHybridZero());
    const ParsedExperiment megatron = experimentFromArgs(parsedArgs(
        {"--strategy", "megatron", "--tp", "2", "--pp", "2"}));
    EXPECT_TRUE(megatron.ok()) << formatConfigErrors(megatron.errors);
    const ParsedExperiment hybrid3d = experimentFromArgs(parsedArgs(
        {"--strategy", "hybrid3d", "--tp", "2", "--pp", "2"}));
    EXPECT_TRUE(hybrid3d.ok()) << formatConfigErrors(hybrid3d.errors);
}

/** True when parsing @p argv reports an error on @p field. */
bool
rejectsField(std::vector<const char *> argv, const std::string &field)
{
    const ParsedExperiment parsed = experimentFromArgs(parsedArgs(argv));
    return std::any_of(parsed.errors.begin(), parsed.errors.end(),
                       [&](const ConfigError &e) {
                           return e.field == field;
                       });
}

TEST(ConfigArgsTest, ZeroNodesIsAConfigError)
{
    EXPECT_TRUE(rejectsField({"--nodes", "0"}, "cluster.nodes"));
}

TEST(ConfigArgsTest, ModelParallelSizeMustDivideGpus)
{
    // TP=3 on one 4-GPU node.
    EXPECT_TRUE(
        rejectsField({"--strategy", "megatron", "--tp", "3"}, "strategy"));
    EXPECT_FALSE(
        rejectsField({"--strategy", "megatron", "--tp", "2"}, "strategy"));
}

TEST(ConfigArgsTest, ExpertCountMustDivideGpus)
{
    EXPECT_TRUE(rejectsField({"--strategy", "moe", "--experts", "3"},
                             "strategy.experts"));
    EXPECT_FALSE(rejectsField({"--strategy", "moe", "--experts", "2"},
                              "strategy.experts"));
}

TEST(ConfigArgsTest, NonFiniteNumbersAreConfigErrors)
{
    // NaN slips past a plain range check (every comparison is false);
    // an infinite model size snaps to no meaningful ladder entry.
    for (const char *v : {"nan", "inf", "-inf"}) {
        EXPECT_TRUE(rejectsField({"--model", v}, "model_billions")) << v;
        EXPECT_TRUE(rejectsField({"--bucket", v}, "telemetry.bucket"))
            << v;
        EXPECT_TRUE(rejectsField({"--resilience", "--reconverge", v},
                                 "resilience.reconvergence_delay"))
            << v;
        EXPECT_TRUE(rejectsField({"--resilience", "--collective-timeout", v},
                                 "resilience.collective_timeout"))
            << v;
    }
    EXPECT_TRUE(rejectsField(
        {"--nodes-spec", "2:gpus=4,nics=2,roce=nan"}, "nodes-spec"));
    EXPECT_TRUE(rejectsField({"--nodes-spec", "2:gpu-mem=inf"},
                             "nodes-spec"));
    EXPECT_TRUE(rejectsField({"--fabric", "fat-tree:k=4,oversub=nan"},
                             "fabric.oversubscription"));
}

TEST(ConfigArgsTest, BucketBelowOneMillisecondIsRejected)
{
    // 1e-300 would overflow the bucket index; 1e-7 costs ~0.5 GB.
    for (const char *v : {"1e-300", "1e-7", "0.0009"})
        EXPECT_TRUE(rejectsField({"--bucket", v}, "telemetry.bucket")) << v;
    EXPECT_FALSE(rejectsField({"--bucket", "0.001"}, "telemetry.bucket"));
    EXPECT_FALSE(rejectsField({"--bucket", "1e300"}, "telemetry.bucket"));
}

TEST(ConfigArgsTest, SizesPastTheLimitsAreConfigErrors)
{
    EXPECT_TRUE(rejectsField({"--nodes", "2147483647"}, "cluster.nodes"));
    EXPECT_TRUE(rejectsField({"--nodes-spec", "2147483647:gpus=4"},
                             "cluster.nodes"));
    EXPECT_TRUE(rejectsField({"--nodes-spec", "1:gpus=2147483647"},
                             "cluster.groups[0]"));
    EXPECT_TRUE(rejectsField({"--nodes-spec", "2:roce=1e-300"},
                             "cluster.groups[0]"));
    EXPECT_TRUE(rejectsField({"--batch", "2147483647"}, "batch_per_gpu"));
    EXPECT_TRUE(rejectsField({"--iterations", "2147483647"}, "iterations"));
    EXPECT_TRUE(rejectsField({"--fabric", "fat-tree:k=2147483646"},
                             "fabric.fat_tree_k"));
    EXPECT_TRUE(rejectsField({"--resilience", "--collective-timeout",
                              "1e-300"},
                             "resilience.collective_timeout"));
    EXPECT_FALSE(rejectsField({"--resilience", "--collective-timeout", "0"},
                              "resilience.collective_timeout"));
    EXPECT_TRUE(rejectsField({"--faults", "straggler@0:rank0:1e-300"},
                             "faults.events[0]"));
}

TEST(ConfigArgsTest, IterationsBelowOneReachValidation)
{
    EXPECT_TRUE(rejectsField({"--iterations", "0"}, "iterations"));

    // Positive counts are still raised past the warm-up.
    const ParsedExperiment one =
        experimentFromArgs(parsedArgs({"--iterations", "1"}));
    ASSERT_TRUE(one.ok()) << formatConfigErrors(one.errors);
    EXPECT_EQ(one.config.iterations, one.config.warmup + 1);
}

} // namespace
} // namespace dstrain
