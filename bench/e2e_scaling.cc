/**
 * @file
 * End-to-end scaling bench: whole dstrain runs — plan build, event
 * loop, telemetry probe, report — of FSDP 6.6 B on a three-tier fat
 * tree, the configuration of the ROADMAP scaling table:
 *
 *   dstrain --nodes R/4 --fabric fat-tree:k=8 --strategy fsdp \
 *           --model 6.6 --iterations 2      (k=16 from 512 ranks)
 *
 * Each point runs in a child process of its own, so the VmHWM it
 * reports is that point's peak RSS and not an earlier point's. Output
 * is one JSON object per point, then the event-queue canary that
 * tools/perf_guard.py divides out to allow for host speed
 * (baseline: bench/baselines/e2e_scaling.jsonl, guarded on
 * runs_per_sec, the inverse of the point's wall time):
 *
 *   ./e2e_scaling                          # 32, 64, 128 ranks (CI)
 *   ./e2e_scaling --ranks 256,512,1024     # on demand (minutes)
 *
 * Every run ends with kStragglerPoint, 32 ranks under a straggler.
 * That plan cuts no link, but any non-empty plan puts every transfer
 * on TransferManager's retry path, so the point guards that path.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hh"
#include "core/config_args.hh"
#include "core/experiment.hh"
#include "util/args.hh"

using namespace dstrain;

namespace {

/** The straggler point: 32 ranks under kStragglerPlan. */
constexpr std::string_view kStragglerPoint = "ranks_32+straggler";
/** Its fault plan (dstrain --faults syntax). */
constexpr const char *kStragglerPlan = "straggler@1+1:rank3:0.5";

/** The fabric of a @p ranks-rank point. */
std::string
fabricFor(int ranks)
{
    return ranks >= 512 ? "fat-tree:k=16" : "fat-tree:k=8";
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream in(line.substr(6));
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

/**
 * Run point @p scenario ("ranks_R", or kStragglerPoint) in this
 * process and print its JSON row.
 */
int
runPoint(const std::string &scenario)
{
    const int ranks = std::stoi(scenario.substr(scenario.find('_') + 1));
    const std::string nodes = std::to_string(ranks / 4);
    const std::string fabric = fabricFor(ranks);
    std::vector<const char *> argv = {
        "e2e_scaling", "--nodes",    nodes.c_str(), "--fabric",
        fabric.c_str(), "--strategy", "fsdp",        "--model",
        "6.6",          "--iterations", "2"};
    if (scenario == kStragglerPoint) {
        argv.push_back("--faults");
        argv.push_back(kStragglerPlan);
    }
    ArgParser args("e2e_scaling", "one scaling point");
    addExperimentOptions(args);
    if (!args.parse(static_cast<int>(argv.size()), argv.data()))
        return 1;
    ParsedExperiment parsed = experimentFromArgs(args);
    if (!parsed.ok())
        fatal("%s", formatConfigErrors(parsed.errors).c_str());

    bench::Stopwatch watch;
    Experiment exp(std::move(parsed.config));
    const ExperimentReport report = exp.run();
    const double secs = watch.seconds();

    const FlowScheduler::Stats &s = report.scheduler;
    const std::uint64_t flows = exp.transfers().stats().started;
    const std::uint64_t events = exp.sim().events().executedCount();
    bench::JsonObject json;
    json.add("scenario", scenario)
        .add("ranks", ranks)
        .add("fabric", fabric)
        .add("wall_s", secs)
        .add("runs_per_sec", 1.0 / secs)
        .add("peak_rss_mb", peakRssMb())
        .add("flows", flows)
        .add("events", events)
        .add("events_per_sec", static_cast<double>(events) / secs)
        .add("solves", s.recomputes)
        .add("fast_starts", s.fast_starts)
        .add("rate_updates", s.rate_updates)
        .add("class_starts", s.class_starts)
        .add("class_hit_rate",
             flows > 0 ? static_cast<double>(s.class_hops) /
                             static_cast<double>(flows)
                       : 0.0)
        .add("materializations", s.materializations)
        .add("iter_s", report.iteration_time);
    std::cout << json.str() << std::endl;
    return 0;
}

/** Run point @p scenario in a child process (this binary, --point). */
int
runChild(const char *self, const std::string &scenario)
{
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0)
        fatal("fork failed");
    if (pid == 0) {
        execl(self, self, "--point", scenario.c_str(),
              static_cast<char *>(nullptr));
        _exit(127);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("e2e_scaling",
                   "whole-run wall time and peak RSS vs rank count "
                   "(JSON per line)");
    args.addOption("ranks", "32,64,128",
                   "comma-separated rank counts (multiples of 4)");
    args.addOption("point", "",
                   "run one point in this process (its scenario name)");
    if (!args.parse(argc, argv))
        return 1;
    setLogLevel(LogLevel::Silent);  // keep stdout pure JSON

    if (const std::string point = args.get("point"); !point.empty())
        return runPoint(point);

    std::vector<std::string> points;
    std::istringstream list(args.get("ranks"));
    for (std::string item; std::getline(list, item, ',');) {
        const int r = std::stoi(item);
        if (r < 8 || r % 4 != 0)
            fatal("--ranks: %d is not a multiple of 4 of at least 8", r);
        points.push_back("ranks_" + std::to_string(r));
    }
    points.emplace_back(kStragglerPoint);
    int failed = 0;
    for (const std::string &point : points)
        failed += runChild("/proc/self/exe", point) != 0;
    std::cout << bench::eventQueueChurn().str() << "\n";
    return failed == 0 ? 0 : 1;
}
