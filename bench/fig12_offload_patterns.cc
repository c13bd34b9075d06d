/**
 * @file
 * Paper Fig. 12: bandwidth-utilization patterns (top to bottom:
 * NVLink, PCIe-GPU, PCIe-NVME, xGMI, DRAM) for single-node training
 * with ZeRO-Offload (CPU) and ZeRO-Infinity (NVMe) at the 11.4 B
 * consolidation model. CPU offload lights up DRAM and PCIe-GPU with
 * a peak-and-trough pattern; NVMe offload adds the PCIe-NVME bursts
 * the paper attributes to the drive DRAM cache.
 */

#include <iostream>

#include "bench_common.hh"

using namespace dstrain;

int
main()
{
    bench::banner("Fig. 12 — offload bandwidth patterns @ 11.4B");

    const LinkClass classes[] = {LinkClass::NvLink, LinkClass::PcieGpu,
                                 LinkClass::PcieNvme, LinkClass::Xgmi,
                                 LinkClass::Dram};

    struct Case {
        StrategyConfig strategy;
        char placement;
    };
    const Case cases[] = {
        {StrategyConfig::zeroOffloadCpu(2), 'B'},
        {StrategyConfig::zeroOffloadCpu(3), 'B'},
        {StrategyConfig::zeroInfinityNvme(false), 'B'},
        {StrategyConfig::zeroInfinityNvme(true), 'B'},
    };

    for (const Case &c : cases) {
        ExperimentConfig cfg = paperExperiment(1, c.strategy, 11.4);
        cfg.placement = nvmePlacementConfig(c.placement);
        bench::applyRunSettings(cfg, /*iterations=*/6, /*warmup=*/2);
        bench::armIterationGrid(cfg);
        Experiment exp(std::move(cfg));
        const ExperimentReport r = exp.run();

        std::cout << "\n"
                  << r.strategy.displayName() << " (iter "
                  << formatTime(r.iteration_time) << ")\n";
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
    std::cout << "\nWhile the GPUs idle, the CPUs compute the "
                 "optimizer: DRAM and xGMI carry the\nload for CPU "
                 "offload; PCIe-NVME takes over for ZeRO-Infinity.\n";
    return 0;
}
