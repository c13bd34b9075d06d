/**
 * @file
 * Seeded CLI-config fuzz: flag combinations over every experiment
 * option that `dstrain` declares (addExperimentOptions), drawn from a
 * fixed SplitMix64 seed.
 *
 * Each sample draws a random background of well-formed options from
 * small domains (<= 8 nodes, <= 2 B parameters, <= 6 iterations), so
 * every run that validates is short. All but the last kCleanSamples
 * samples then overwrite one option with a degenerate value: each
 * numeric flag gets 0, -1, nan, inf, 1e-300 and a huge value, and
 * each spec flag malformed or out-of-range specs. Sample i takes the
 * i-th degenerate (option, value) pair, so every pair is drawn.
 *
 * A sample runs `dstrain`'s single-run path (parse, build the config,
 * run it) in a forked child and must exit 0 — the run completed with
 * finite metrics (byte conservation is checked inside
 * Experiment::run) — or 1, a user error reported through fatal() or a
 * ConfigError. An abort (a panic or a failed invariant), any other
 * exit status, or outliving the wall-clock bound fails the sample.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_args.hh"
#include "strategies/strategy.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace dstrain {
namespace {

/** One experiment option and the values a sample may give it. */
struct FuzzOption {
    const char *name;
    std::vector<std::string> normal;      ///< well-formed, bounded
    std::vector<std::string> degenerate;  ///< each drawn once
};

/** The degenerate values every numeric flag is given, plus @p huge. */
std::vector<std::string>
numericDegenerates(const std::string &huge)
{
    return {"0", "-1", "nan", "inf", "1e-300", huge};
}

/** Every option addExperimentOptions() declares, except the
 * boolean flags (drawn separately). */
std::vector<FuzzOption>
fuzzOptions()
{
    const std::vector<std::string> ints =
        numericDegenerates("2147483647");
    const std::vector<std::string> reals = numericDegenerates("1e300");
    std::vector<std::string> ints_wide = ints;
    ints_wide.push_back("99999999999");  // beyond int
    return {
        {"nodes", {"1", "2", "3", "4", "8"}, ints_wide},
        {"fabric",
         {"single", "fat-tree:k=4", "rail",
          "spine-leaf:leaves=2,spines=2", "fat-tree:k=4,oversub=2"},
         {"torus", "fat-tree:k=3", "fat-tree:k=4,oversub=nan",
          "fat-tree:k=4,oversub=inf", "fat-tree:k=2147483646",
          "spine-leaf:leaves=0,spines=2", "fat-tree:k=4,paths=0"}},
        {"nodes-spec",
         {"2:gpus=4,nics=2", "1:gpus=8,nics=4;1:gpus=4,nics=2",
          "2:gpus=2,nics=1,roce=100,gpu-mem=80"},
         {"2:gpus=4,nics=2,roce=nan", "1:gpu-mem=inf", "2:gpus=0",
          "2:roce=1e-300", "2:roce=1e300", "1:gpu-mem=-1",
          "2147483647:gpus=4", "1:gpus=2147483647",
          "1:nics=2147483647", "2:frobs=1"}},
        {"strategy", Strategy::names(), {"zero9", ""}},
        {"model", {"0.7", "1.2", "1.4"}, reals},
        {"tp", {"0", "1", "2", "4"}, ints},
        {"pp", {"0", "1", "2"}, ints},
        {"experts", {"0", "2", "4"}, ints},
        {"collective-algo",
         {"ring", "tree", "hierarchical", "pairwise", "auto",
          "auto,all-reduce=hierarchical"},
         {"mesh", "all-reduce=", "ring,,"}},
        {"batch", {"1", "4", "16"}, ints},
        {"iterations", {"1", "2", "3", "4", "6"}, ints},
        {"placement", {"A", "B", "C", "D", "E", "F", "G", "H"},
         {"Z", ""}},
        {"bucket", {"0.001", "0.05", "0.1", "0.5"}, reals},
        {"faults",
         {"degrade@1+0.5:roce:0.4", "straggler@0+2:rank1:0.6",
          "flap@0.5+0.1:roce", "nicdown@0.5+0.5:n0.nic1",
          "degrade@0.2+0.3:nvlink:0.5,straggler@0.5:rank0:0.7"},
         {"degrade@nan:roce:0.5", "degrade@1e300+1:roce:0.5",
          "degrade@0+1e300:roce:0.5", "degrade@0+1:roce:1e-300",
          "straggler@0:rank0:0", "straggler@0:rank2147483647:0.5",
          "linkdown@0.01:roce", "nodedown@1:n0"}},
        {"checkpoint", {"off", "1i", "2i", "5s"},
         {"0i", "-1s", "nans", "infs", "1e300i", "1e-300s", "1e300s"}},
        {"recovery", {"restart", "elastic"}, {"bogus"}},
        {"reconverge", {"0", "0.002", "0.01"}, reals},
        {"collective-timeout", {"0", "0.025", "0.1"}, reals},
    };
}

/** Boolean flags: each set in a sample with probability 1/4. */
const char *const kFlags[] = {"resilience", "verify-fair-share",
                              "no-serdes"};

/** Samples drawn without any degenerate value. */
constexpr int kCleanSamples = 24;

/** Seed of sample 0; sample i draws from kSeed + i. */
constexpr std::uint64_t kSeed = 0xc11f0220ull;

/** Wall-clock bound on one sample; generous for sanitizer builds. */
constexpr unsigned kSampleWallSeconds = 300;

/** Address-space bound on one sample (not under ASan, whose shadow
 * mappings dwarf it): a shape that escapes validation fails the
 * sample instead of exhausting the host. */
constexpr rlim_t kSampleAddressSpace = rlim_t{4} << 30;

/** All degenerate (option index, value) pairs, in option order. */
std::vector<std::pair<std::size_t, std::string>>
degeneratePairs(const std::vector<FuzzOption> &options)
{
    std::vector<std::pair<std::size_t, std::string>> pairs;
    for (std::size_t i = 0; i < options.size(); ++i)
        for (const std::string &v : options[i].degenerate)
            pairs.emplace_back(i, v);
    return pairs;
}

int
sampleCount()
{
    return static_cast<int>(degeneratePairs(fuzzOptions()).size()) +
           kCleanSamples;
}

/** The `dstrain` argument list of sample @p index. */
std::vector<std::string>
sampleArgs(int index)
{
    const std::vector<FuzzOption> options = fuzzOptions();
    Rng rng(kSeed + static_cast<std::uint64_t>(index));
    std::vector<std::string> values(options.size());
    for (std::size_t i = 0; i < options.size(); ++i) {
        // Each option is given in half the samples; nodes-spec in a
        // sixth, since it overrides --nodes; --model always, since its
        // default (the largest model that fits) is unbounded.
        const std::string name = options[i].name;
        const std::uint64_t odds = name == "nodes-spec" ? 6
                                   : name == "model"    ? 1
                                                        : 2;
        if (rng.below(odds) == 0) {
            const std::vector<std::string> &normal = options[i].normal;
            values[i] = normal[rng.below(normal.size())];
        }
    }
    // --experts is an error outside the moe strategy.
    auto value = [&](const std::string &name) -> std::string & {
        for (std::size_t i = 0; i < options.size(); ++i)
            if (name == options[i].name)
                return values[i];
        ADD_FAILURE() << "no option " << name;
        return values.front();
    };
    if (value("strategy") != "moe")
        value("experts").clear();
    const auto pairs = degeneratePairs(options);
    std::size_t degenerate = options.size();
    if (static_cast<std::size_t>(index) < pairs.size()) {
        degenerate = pairs[static_cast<std::size_t>(index)].first;
        values[degenerate] = pairs[static_cast<std::size_t>(index)].second;
    }

    std::vector<std::string> args = {"dstrain"};
    for (std::size_t i = 0; i < options.size(); ++i) {
        if (values[i].empty() && i != degenerate)
            continue;
        args.push_back(std::string("--") + options[i].name);
        args.push_back(values[i]);
    }
    for (const char *flag : kFlags)
        if (rng.below(4) == 0)
            args.push_back(std::string("--") + flag);
    return args;
}

/**
 * `dstrain`'s single-run path, minus the report printing, in a forked
 * child: exit 1 on a user error, 0 after a run with finite metrics,
 * 2 when a run completed with a non-finite or non-positive metric.
 */
[[noreturn]] void
runSample(const std::vector<std::string> &argv)
{
    alarm(kSampleWallSeconds);
#ifndef __SANITIZE_ADDRESS__
    const rlimit cap{kSampleAddressSpace, kSampleAddressSpace};
    setrlimit(RLIMIT_AS, &cap);
#endif
    setLogLevel(LogLevel::Silent);
    std::vector<const char *> raw;
    for (const std::string &a : argv)
        raw.push_back(a.c_str());

    ArgParser args("dstrain", "cli fuzz sample");
    addExperimentOptions(args);
    if (!args.parse(static_cast<int>(raw.size()), raw.data()))
        std::exit(1);
    ParsedExperiment parsed = experimentFromArgs(args);
    if (!parsed.ok())
        std::exit(1);

    int status = 0;
    {
        Experiment exp(std::move(parsed.config));
        const ExperimentReport report = exp.run();
        bool sane = std::isfinite(report.iteration_time) &&
                    report.iteration_time > 0.0 &&
                    std::isfinite(report.tflops);
        for (const BandwidthSummary &s : report.bandwidth.per_class)
            sane = sane && std::isfinite(s.avg) && std::isfinite(s.peak);
        status = sane ? 0 : 2;
    }
    std::exit(status);
}

bool
exitsZeroOrOne(int status)
{
    return WIFEXITED(status) &&
           (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
}

class CliConfigFuzz : public testing::TestWithParam<int>
{};

TEST_P(CliConfigFuzz, ExitsZeroOrOne)
{
    const std::vector<std::string> argv = sampleArgs(GetParam());
    std::ostringstream line;
    for (const std::string &a : argv)
        line << " '" << a << "'";
    EXPECT_EXIT(runSample(argv), exitsZeroOrOne, "") << line.str();
}

INSTANTIATE_TEST_SUITE_P(Seeded, CliConfigFuzz,
                         testing::Range(0, sampleCount()));

TEST(CliConfigFuzzTest, EveryExperimentOptionIsDrawn)
{
    // A new experiment option must join the fuzz domain.
    ArgParser declared("dstrain", "declared options");
    addExperimentOptions(declared);
    const std::string help = declared.helpText();
    std::size_t drawn = 0;
    for (const FuzzOption &o : fuzzOptions()) {
        EXPECT_NE(help.find(std::string("--") + o.name + " "),
                  std::string::npos)
            << o.name;
        ++drawn;
    }
    for (const char *flag : kFlags) {
        EXPECT_NE(help.find(std::string("--") + flag), std::string::npos)
            << flag;
        ++drawn;
    }
    // One help line per declared option, plus --help itself.
    std::size_t lines = 0;
    for (std::size_t at = help.find("\n  --"); at != std::string::npos;
         at = help.find("\n  --", at + 1))
        ++lines;
    EXPECT_EQ(drawn + 1, lines) << help;
}

} // namespace
} // namespace dstrain
