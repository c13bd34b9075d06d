/**
 * @file
 * Bit-identity regression oracle: the seeded presets must reproduce
 * the exact reports captured on the pre-refactor tree, with and
 * without the fair-share oracle checking every event.
 *
 * Each golden value is the FNV-1a-64 hash of reportFingerprint() for
 * one preset run (3 iterations, 1 warmup), captured before the fabric
 * generalization and unchanged since. A mismatch means simulated
 * behavior changed — event order, link capacities, routing, solver
 * arithmetic, anything — which it must never do. The default lineups
 * run the region-scoped incremental solver as shipped; the
 * VerifyOracle lineups rerun them under --verify-fair-share, which
 * re-solves every component from scratch after each scheduler event
 * and fatal()s on any bitwise divergence (DESIGN.md "Performance
 * architecture").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collectives/algorithms.hh"
#include "core/presets.hh"
#include "core/report.hh"

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

std::uint64_t
runHash(int nodes, const StrategyConfig &strategy, double billions,
        bool verify = false)
{
    ExperimentConfig cfg = paperExperiment(nodes, strategy, billions);
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.verify_fair_share = verify;
    const ExperimentReport report = runExperiment(std::move(cfg));
    return fnv1a64(reportFingerprint(report));
}

/** One preset run and its golden hash. */
struct Golden {
    int nodes;
    StrategyConfig strategy;
    double billions;
    std::uint64_t hash;
};

void
expectLineup(const std::vector<Golden> &lineup, bool verify)
{
    for (const Golden &g : lineup) {
        EXPECT_EQ(runHash(g.nodes, g.strategy, g.billions, verify),
                  g.hash)
            << g.strategy.displayName() << " on " << g.nodes
            << " node(s)";
    }
}

const std::vector<Golden> &
singleNodeLineup()
{
    static const std::vector<Golden> lineup = {
        {1, StrategyConfig::ddp(), 0.0, 0xdfff91522c6d7b5full},
        {1, paperMegatron(1), 0.0, 0x3ab98365ca0ec6b1ull},
        {1, StrategyConfig::zero(1), 0.0, 0xff8b3880f5ea455eull},
        {1, StrategyConfig::zero(2), 0.0, 0x2d50256a449d56e5ull},
        {1, StrategyConfig::zero(3), 0.0, 0x9dd372e8dbae9ea5ull},
    };
    return lineup;
}

const std::vector<Golden> &
dualNodeLineup()
{
    static const std::vector<Golden> lineup = {
        {2, StrategyConfig::ddp(), 0.0, 0x0b7a72c8312a4dbeull},
        {2, paperMegatron(2), 0.0, 0x2a38f9b3622d8434ull},
        {2, StrategyConfig::zero(1), 0.0, 0x048a684eb2d7ce7aull},
        {2, StrategyConfig::zero(2), 0.0, 0x12e8a1145cc02716ull},
        {2, StrategyConfig::zero(3), 0.0, 0x250b601e5ae1fffdull},
    };
    return lineup;
}

/**
 * Re-captured once for the anchored-settling scheduler (flows settle
 * in one multiply-subtract per constant-rate span instead of
 * piecewise at every event — mathematically equal, different in the
 * last float bit). Only the offload presets moved: they are the ones
 * with long-lived flows spanning many scheduler events.
 */
const std::vector<Golden> &
offloadLineup()
{
    static const std::vector<Golden> lineup = {
        {1, StrategyConfig::zeroOffloadCpu(2), 11.4,
         0x58f078e5ebdfba74ull},
        {1, StrategyConfig::zeroOffloadCpu(3), 11.4,
         0x464f8a60f5f83cc1ull},
        {1, StrategyConfig::zeroInfinityNvme(false), 11.4,
         0xdefe6c99743556a4ull},
        {1, StrategyConfig::zeroInfinityNvme(true), 11.4,
         0xd1105c2a033ddf8dull},
    };
    return lineup;
}

TEST(FingerprintRegression, SingleNodeLineup)
{
    expectLineup(singleNodeLineup(), false);
}

TEST(FingerprintRegression, DualNodeLineup)
{
    expectLineup(dualNodeLineup(), false);
}

TEST(FingerprintRegression, OffloadLineup)
{
    expectLineup(offloadLineup(), false);
}

TEST(FingerprintRegression, VerifyOracleSingleNodeLineup)
{
    expectLineup(singleNodeLineup(), true);
}

TEST(FingerprintRegression, VerifyOracleDualNodeLineup)
{
    expectLineup(dualNodeLineup(), true);
}

TEST(FingerprintRegression, VerifyOracleOffloadLineup)
{
    expectLineup(offloadLineup(), true);
}

TEST(FingerprintRegression, VerifyModeMatchesAndChecksEveryEvent)
{
    // --verify-fair-share runs the oracle after every scheduler event
    // and fatal()s on any bitwise divergence: surviving the run with
    // the golden hash proves the region solver exact end to end on
    // the busiest dual-node preset.
    EXPECT_EQ(runHash(2, StrategyConfig::zero(3), 0.0, true),
              0x250b601e5ae1fffdull);
}

TEST(FingerprintRegression, ExplicitRingAlgoMatchesDefaultGolden)
{
    // `--collective-algo ring` pins every collective to the ring
    // family the engine has always modeled: the run must stay
    // bit-identical to the pre-library golden (and the fingerprint
    // must not sprout a collectives section for all-ring runs).
    std::string err;
    const auto spec = parseCollectiveAlgoSpec("ring", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::ddp(), 0.0);
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.collective_algos = *spec;
    const ExperimentReport report = runExperiment(std::move(cfg));
    EXPECT_EQ(fnv1a64(reportFingerprint(report)),
              0x0b7a72c8312a4dbeull);
}

TEST(FingerprintRegression, ResilienceOnHealthyFabricMatchesGolden)
{
    // Enabling the degraded-mode resilience layer on a clean run
    // changes nothing: no fault ever fires, so no route is
    // invalidated, no watchdog trips, every counter stays zero and
    // the fingerprint grows no resilience section. The busiest
    // dual-node preset must pin the exact golden hash.
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::zero(3), 0.0);
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.resilience.enabled = true;
    const ExperimentReport report = runExperiment(std::move(cfg));
    EXPECT_FALSE(report.resilience.any());
    EXPECT_EQ(fnv1a64(reportFingerprint(report)),
              0x250b601e5ae1fffdull);
}

TEST(FingerprintRegression, EcmpOffMatchesEcmpOnSingleSwitch)
{
    // Every route on the single-switch fabric has exactly one
    // shortest path, so disabling ECMP must change nothing.
    ExperimentConfig cfg =
        paperExperiment(2, StrategyConfig::ddp(), 0.0);
    cfg.iterations = 3;
    cfg.warmup = 1;
    cfg.cluster.fabric.ecmp = false;
    const ExperimentReport report = runExperiment(std::move(cfg));
    EXPECT_EQ(fnv1a64(reportFingerprint(report)),
              0x0b7a72c8312a4dbeull);
}

} // namespace
} // namespace dstrain
