/**
 * @file
 * Paper Fig. 10: dual-node bandwidth-utilization patterns on (top to
 * bottom) NVLink, PCIe-GPU, PCIe-NIC and RoCE for each
 * configuration at its largest dual-node model. Megatron-LM shows
 * near-constant utilization; the ZeRO stages show the
 * peak-and-trough bursts the paper calls out.
 */

#include <iostream>

#include "bench_common.hh"

using namespace dstrain;

int
main()
{
    bench::banner("Fig. 10 — dual-node bandwidth patterns");

    const LinkClass classes[] = {LinkClass::NvLink, LinkClass::PcieGpu,
                                 LinkClass::PcieNic, LinkClass::Roce};

    for (const StrategyConfig &s : comparisonLineup(2)) {
        ExperimentConfig cfg = paperExperiment(2, s);
        bench::applyRunSettings(cfg, /*iterations=*/8, /*warmup=*/2);
        bench::armIterationGrid(cfg);
        Experiment exp(std::move(cfg));
        const ExperimentReport r = exp.run();

        std::cout << "\n"
                  << s.displayName() << " @ " << r.model.billions
                  << "B (iter " << formatTime(r.iteration_time)
                  << ")\n";
        for (LinkClass cls : classes) {
            const BandwidthSeries series = probeClassBandwidth(
                exp.cluster().topology(), cls,
                r.execution.measured_begin, r.execution.measured_end,
                exp.config().telemetry.bucket);
            const BandwidthSummary sum = series.summary();
            std::cout << csprintf("  %-9s |%s| avg %6.2f GBps peak "
                                  "%6.2f\n",
                                  linkClassName(cls),
                                  sparkline(series.values, 60).c_str(),
                                  sum.avg / units::GBps,
                                  sum.peak / units::GBps);
        }
    }
    std::cout << "\nMegatron-LM's solid bars = constant transfer "
                 "pattern (prone to the IOD SerDes\ncontention); "
                 "ZeRO's bursts = the peak-and-trough pattern the "
                 "paper observes.\n";
    return 0;
}
