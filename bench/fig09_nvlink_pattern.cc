/**
 * @file
 * Paper Fig. 9: the NVLink bandwidth-utilization pattern during
 * single-node training at each configuration's largest model.
 * Prints a sparkline of the aggregate bidirectional NVLink rate over
 * the measurement window plus the avg/90th/peak summary against the
 * paper's Table IV values.
 */

#include <iostream>
#include <map>
#include <string>

#include "bench_common.hh"

using namespace dstrain;

int
main()
{
    bench::banner("Fig. 9 — NVLink utilization pattern, single node");

    // Paper Table IV single-node NVLink (avg, peak) in GBps.
    const std::map<std::string, std::pair<double, double>> paper = {
        {"DDP", {83.0, 94.8}},    {"Megatron-LM", {241.0, 267.0}},
        {"ZeRO-1", {111.0, 147.0}}, {"ZeRO-2", {97.3, 117.0}},
        {"ZeRO-3", {99.7, 121.0}},
    };

    for (const StrategyConfig &s : comparisonLineup(1)) {
        ExperimentConfig cfg = paperExperiment(1, s);
        bench::applyRunSettings(cfg, /*iterations=*/10, /*warmup=*/2);
        bench::armIterationGrid(cfg);
        Experiment exp(std::move(cfg));
        const ExperimentReport r = exp.run();

        const BandwidthSeries series = probeClassBandwidth(
            exp.cluster().topology(), LinkClass::NvLink,
            r.execution.measured_begin, r.execution.measured_end,
            exp.config().telemetry.bucket);
        const BandwidthSummary sum = series.summary();
        const auto &[p_avg, p_peak] = paper.at(strategyKindName(s.kind));

        std::cout << "\n"
                  << s.displayName() << " @ " << r.model.billions
                  << "B\n  |" << sparkline(series.values, 76) << "|\n"
                  << csprintf("  avg %.1f GBps (paper %.1f), 90th "
                              "%.1f, peak %.1f (paper %.1f)\n",
                              sum.avg / units::GBps, p_avg,
                              sum.p90 / units::GBps,
                              sum.peak / units::GBps, p_peak);
    }
    std::cout << "\nMegatron-LM sustains the highest NVLink load "
                 "(~3x DDP, as in the paper);\nDeepSpeed stages sit "
                 "between DDP and Megatron-LM.\n";
    return 0;
}
