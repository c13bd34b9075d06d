/**
 * @file
 * Chaos-fuzz harness: seeded random fault plans thrown at full
 * experiments across every generated fabric shape and three strategy
 * families, with the resilience layer on.
 *
 * Each scenario draws a FaultPlan from a SplitMix64 stream: exactly
 * one "kill" event (linkdown or flap) aimed at a redundant failure
 * domain, plus up to two soft degrades. Plans are random but safe by
 * construction — the kill always lands on one member of a redundant
 * pair (one rail of two, one spine of two, one aggregation switch of
 * two), so at least one live inter-node path survives and the run
 * must complete.
 *
 * Three properties are asserted per scenario:
 *   - no deadlock: the experiment finishes and reports a positive
 *     iteration time (byte conservation is fatal()-checked inside
 *     Experiment::run on every run);
 *   - the damage was real: at least one resilience counter moved;
 *   - bit-identical replay: re-running the same seed reproduces the
 *     exact report fingerprint.
 *
 * Set CHAOS_FUZZ_JSONL=<path> to append one JSON line per scenario
 * (seed, plan, fingerprint, counters) — CI uploads this artifact.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>

#include "core/presets.hh"
#include "core/report.hh"
#include "fault/fault_plan.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace dstrain {
namespace {

/** FNV-1a-64 of the report fingerprint (matches the capture tool). */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct ChaosScenario {
    const char *name;      ///< gtest instance name (alphanumeric)
    const char *fabric;    ///< "rail" | "spine-leaf" | "fat-tree"
    int nodes;
    const char *strategy;  ///< "ddp" | "zero3" | "fsdp"
    std::uint64_t seed;
};

/**
 * gtest prints the parameter in test listings (and so in the ctest
 * names gtest_discover_tests derives) and in failure messages. Without
 * this, it dumps the raw object bytes, whose string pointers move with
 * ASLR and the binary layout, so the test names changed build to build.
 */
void
PrintTo(const ChaosScenario &sc, std::ostream *os)
{
    *os << csprintf("seed 0x%llx", static_cast<unsigned long long>(sc.seed));
}

StrategyConfig
strategyByName(const std::string &name)
{
    if (name == "ddp")
        return StrategyConfig::ddp();
    if (name == "zero3")
        return StrategyConfig::zero(3);
    if (name == "fsdp")
        return StrategyConfig::fsdp();
    ADD_FAILURE() << "unknown strategy " << name;
    return StrategyConfig::ddp();
}

FabricSpec
fabricByName(const std::string &name)
{
    FabricSpec spec;
    if (name == "rail") {
        spec.kind = FabricKind::Rail;
    } else if (name == "spine-leaf") {
        spec.kind = FabricKind::SpineLeaf;
        spec.leaves = 2;
        spec.spines = 2;
    } else if (name == "fat-tree") {
        spec.kind = FabricKind::FatTree;
        spec.fat_tree_k = 4;
    } else {
        ADD_FAILURE() << "unknown fabric " << name;
    }
    return spec;
}

/**
 * Draw a random-but-safe fault plan for @p fabric from @p rng.
 *
 * The kill target is one member of the fabric's redundant pair:
 * rail0/rail1 on the rail fabric; sw2/sw3 on both spine-leaf
 * (leaves=2 puts the two spines at ordinals 2 and 3) and the
 * single-pod fat-tree (edges are sw0/sw1, the two aggregation
 * switches sw2/sw3). Killing either member leaves the other as a
 * live inter-node path. Kill times stay inside the first iteration
 * so the damage always lands mid-collective.
 */
std::string
randomPlan(const std::string &fabric, Rng &rng)
{
    const std::string kill_target =
        fabric == "rail"
            ? csprintf("rail%d", static_cast<int>(rng.below(2)))
            : csprintf("sw%d", static_cast<int>(2 + rng.below(2)));
    const double kill_at = rng.uniform(0.002, 0.02);
    std::string plan =
        rng.below(2) == 0
            ? csprintf("linkdown@%.4g:%s", kill_at, kill_target.c_str())
            : csprintf("flap@%.4g+%.4g:%s", kill_at,
                       rng.uniform(0.01, 0.05), kill_target.c_str());
    const std::uint64_t degrades = rng.below(3);
    for (std::uint64_t i = 0; i < degrades; ++i) {
        plan += csprintf(",degrade@%.4g+%.4g:%s:%.2f",
                         rng.uniform(0.002, 0.03),
                         rng.uniform(0.01, 0.08),
                         rng.below(2) == 0 ? "roce" : "nvlink",
                         rng.uniform(0.3, 0.8));
    }
    return plan;
}

ExperimentConfig
scenarioConfig(const ChaosScenario &sc, const std::string &plan)
{
    ExperimentConfig cfg = paperExperiment(
        sc.nodes, strategyByName(sc.strategy), /*billions=*/1.2);
    cfg.iterations = 2;
    cfg.warmup = 0;
    cfg.cluster.fabric = fabricByName(sc.fabric);
    cfg.resilience.enabled = true;
    std::vector<ConfigError> errors;
    cfg.faults = parseFaultSpec(plan, &errors);
    EXPECT_TRUE(errors.empty())
        << plan << ": " << formatConfigErrors(errors);
    return cfg;
}

void
appendJsonl(const ChaosScenario &sc, const std::string &plan,
            std::uint64_t hash, const ResilienceStats &rs)
{
    const char *path = std::getenv("CHAOS_FUZZ_JSONL");
    if (path == nullptr || *path == '\0')
        return;
    std::ofstream out(path, std::ios::app);
    out << csprintf(
        "{\"scenario\":\"%s\",\"seed\":\"0x%llx\",\"fabric\":\"%s\","
        "\"nodes\":%d,\"strategy\":\"%s\",\"plan\":\"%s\","
        "\"fingerprint\":\"0x%016llx\",\"route_invalidations\":%llu,"
        "\"reconvergence_waits\":%llu,\"collective_timeouts\":%llu,"
        "\"collective_fallbacks\":%llu,\"comm_shrinks\":%llu}\n",
        sc.name, static_cast<unsigned long long>(sc.seed), sc.fabric,
        sc.nodes, sc.strategy, plan.c_str(),
        static_cast<unsigned long long>(hash),
        static_cast<unsigned long long>(rs.route_invalidations),
        static_cast<unsigned long long>(rs.reconvergence_waits),
        static_cast<unsigned long long>(rs.collective_timeouts),
        static_cast<unsigned long long>(rs.collective_fallbacks),
        static_cast<unsigned long long>(rs.comm_shrinks));
}

class ChaosFuzz : public testing::TestWithParam<ChaosScenario>
{};

TEST_P(ChaosFuzz, SurvivesAndReplaysBitIdentically)
{
    const ChaosScenario &sc = GetParam();
    Rng rng(sc.seed);
    const std::string plan = randomPlan(sc.fabric, rng);
    SCOPED_TRACE(csprintf("seed 0x%llx plan '%s'",
                          static_cast<unsigned long long>(sc.seed),
                          plan.c_str()));

    const ExperimentReport first =
        runExperiment(scenarioConfig(sc, plan));
    EXPECT_GT(first.iteration_time, 0.0);
    EXPECT_TRUE(first.resilience.any())
        << "the plan damaged nothing the resilience layer saw";
    const std::uint64_t hash = fnv1a64(reportFingerprint(first));
    appendJsonl(sc, plan, hash, first.resilience);

    // Same seed, fresh experiment: the replay must be bit-identical,
    // counters included.
    const ExperimentReport again =
        runExperiment(scenarioConfig(sc, plan));
    EXPECT_EQ(fnv1a64(reportFingerprint(again)), hash);
    EXPECT_EQ(again.resilience.route_invalidations,
              first.resilience.route_invalidations);
    EXPECT_EQ(again.resilience.collective_timeouts,
              first.resilience.collective_timeouts);
    EXPECT_EQ(again.resilience.collective_fallbacks,
              first.resilience.collective_fallbacks);
}

// Twelve seeded scenarios: the full fabric x strategy grid plus one
// extra seed per fabric. Seeds are arbitrary but frozen — CI replays
// these exact plans every run.
INSTANTIATE_TEST_SUITE_P(
    Seeded, ChaosFuzz,
    testing::Values(
        ChaosScenario{"RailDdp", "rail", 2, "ddp", 0xc4a0501ull},
        ChaosScenario{"RailZero3", "rail", 2, "zero3", 0xc4a0502ull},
        ChaosScenario{"RailFsdp", "rail", 2, "fsdp", 0xc4a0503ull},
        ChaosScenario{"SpineLeafDdp", "spine-leaf", 2, "ddp",
                      0xc4a0504ull},
        ChaosScenario{"SpineLeafZero3", "spine-leaf", 2, "zero3",
                      0xc4a0505ull},
        ChaosScenario{"SpineLeafFsdp", "spine-leaf", 2, "fsdp",
                      0xc4a0506ull},
        ChaosScenario{"FatTreeDdp", "fat-tree", 4, "ddp",
                      0xc4a0507ull},
        ChaosScenario{"FatTreeZero3", "fat-tree", 4, "zero3",
                      0xc4a0508ull},
        ChaosScenario{"FatTreeFsdp", "fat-tree", 4, "fsdp",
                      0xc4a0509ull},
        ChaosScenario{"RailDdpReseed", "rail", 2, "ddp",
                      0xc4a050aull},
        ChaosScenario{"SpineLeafZero3Reseed", "spine-leaf", 2,
                      "zero3", 0xc4a050bull},
        ChaosScenario{"FatTreeFsdpReseed", "fat-tree", 4, "fsdp",
                      0xc4a050cull}),
    [](const testing::TestParamInfo<ChaosScenario> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dstrain
