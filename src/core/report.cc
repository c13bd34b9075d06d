/**
 * @file
 * Implementation of the report rendering.
 */

#include "core/report.hh"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <string_view>

#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

std::string
summarizeReport(const ExperimentReport &report)
{
    return csprintf("%-28s %6.1fB params  %8.1f TFLOP/s  iter %s",
                    report.strategy.displayName().c_str(),
                    report.model.billions, report.tflops,
                    formatTime(report.iteration_time).c_str());
}

std::string
summarizeTelemetry(const TelemetryStats &stats)
{
    return csprintf(
        "telemetry: %llu stream buckets, %llu deposits, %.1f KiB",
        static_cast<unsigned long long>(stats.stream_buckets),
        static_cast<unsigned long long>(stats.buckets_touched),
        static_cast<double>(stats.memory_bytes) / 1024.0);
}

std::string
summarizeScheduler(const FlowScheduler::Stats &stats,
                   std::uint64_t transfers)
{
    std::string out = csprintf(
        "scheduler: %llu solves (%llu region, peak %llu flows), "
        "%llu fast starts, %llu fast finishes, %llu/%llu fast "
        "capacity updates, %llu cancels, %llu stalled parks",
        static_cast<unsigned long long>(stats.recomputes),
        static_cast<unsigned long long>(stats.region_solves),
        static_cast<unsigned long long>(stats.region_peak),
        static_cast<unsigned long long>(stats.fast_starts),
        static_cast<unsigned long long>(stats.fast_finishes),
        static_cast<unsigned long long>(stats.fast_capacity_updates),
        static_cast<unsigned long long>(stats.capacity_updates),
        static_cast<unsigned long long>(stats.cancels),
        static_cast<unsigned long long>(stats.stalled_parks));
    out += csprintf(
        "\nscheduler: %llu index updates, %llu scans avoided, "
        "%llu batched events, %llu rate updates",
        static_cast<unsigned long long>(stats.completion_index_updates),
        static_cast<unsigned long long>(stats.completion_scans_avoided),
        static_cast<unsigned long long>(stats.batched_events),
        static_cast<unsigned long long>(stats.rate_updates));
    out += csprintf(
        "\nscheduler: %llu hop classes carried %llu of %llu hops "
        "(%.1f%% hit rate), %llu class-level solves, %llu "
        "materializations",
        static_cast<unsigned long long>(stats.class_starts),
        static_cast<unsigned long long>(stats.class_hops),
        static_cast<unsigned long long>(transfers),
        transfers > 0 ? 100.0 * static_cast<double>(stats.class_hops) /
                            static_cast<double>(transfers)
                      : 0.0,
        static_cast<unsigned long long>(stats.class_solves),
        static_cast<unsigned long long>(stats.materializations));
    return out;
}

TextTable
comparisonTable(const std::vector<ExperimentReport> &reports)
{
    TextTable table({"Configuration", "Model (B params)",
                     "Throughput (TFLOP/s)", "Iteration (s)",
                     "GPU mem/GPU (GB)", "CPU mem/node (GB)",
                     "NVMe/node (GB)"});
    for (const ExperimentReport &r : reports) {
        table.addRow({
            r.strategy.displayName(),
            csprintf("%.1f", r.model.billions),
            csprintf("%.1f", r.tflops),
            csprintf("%.3f", r.iteration_time),
            csprintf("%.1f", r.footprint.gpu_per_gpu / units::GB),
            csprintf("%.1f", r.footprint.cpu_per_node / units::GB),
            csprintf("%.1f", r.footprint.nvme_per_node / units::GB),
        });
    }
    return table;
}

TextTable
compositionTable(const std::vector<ExperimentReport> &reports)
{
    TextTable table({"Configuration", "Total (GB)", "GPU", "CPU",
                     "NVMe"});
    for (const ExperimentReport &r : reports) {
        const MemoryComposition &c = r.composition;
        table.addRow({
            r.strategy.displayName(),
            csprintf("%.0f", c.total() / units::GB),
            compositionCell(c.gpu, c.gpuShare()),
            compositionCell(c.cpu, c.cpuShare()),
            compositionCell(c.nvme, c.nvmeShare()),
        });
    }
    return table;
}

std::string
barChart(const std::vector<std::string> &labels,
         const std::vector<double> &values, const std::string &unit,
         int width)
{
    DSTRAIN_ASSERT(labels.size() == values.size(),
                   "bar chart labels/values mismatch");
    double max_v = 0.0;
    std::size_t max_label = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        max_v = std::max(max_v, values[i]);
        max_label = std::max(max_label, labels[i].size());
    }
    if (max_v <= 0.0)
        max_v = 1.0;

    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const int bar = static_cast<int>(values[i] / max_v * width);
        out += csprintf("%s |%s%s %.1f %s\n",
                        padRight(labels[i], max_label).c_str(),
                        std::string(static_cast<std::size_t>(bar), '#')
                            .c_str(),
                        std::string(
                            static_cast<std::size_t>(width - bar), ' ')
                            .c_str(),
                        values[i], unit.c_str());
    }
    return out;
}

std::string
sparkline(const std::vector<double> &values, int width)
{
    static const char glyphs[] = " .:-=+*#%@";
    constexpr int kLevels = 9;
    if (values.empty() || width <= 0)
        return "";
    double max_v = 0.0;
    for (double v : values)
        max_v = std::max(max_v, v);
    if (max_v <= 0.0)
        max_v = 1.0;

    std::string out;
    const std::size_t n = values.size();
    const int cols = std::min<int>(width, static_cast<int>(n));
    for (int c = 0; c < cols; ++c) {
        const std::size_t lo = static_cast<std::size_t>(c) * n /
                               static_cast<std::size_t>(cols);
        const std::size_t hi = (static_cast<std::size_t>(c) + 1) * n /
                               static_cast<std::size_t>(cols);
        double sum = 0.0;
        for (std::size_t i = lo; i < std::max(hi, lo + 1); ++i)
            sum += values[i];
        const double mean = sum / std::max<std::size_t>(hi - lo, 1);
        const int level =
            static_cast<int>(mean / max_v * kLevels + 0.5);
        out += glyphs[std::clamp(level, 0, kLevels)];
    }
    return out;
}

TextTable
faultImpactTable(const ExperimentReport &report)
{
    TextTable table({"Fault", "Link", "Nominal", "Faulted",
                     "Avg before", "Avg during", "Avg after",
                     "Iter slowdown"});
    for (const FaultImpact &im : report.faults) {
        for (std::size_t k = 0; k < im.links.size(); ++k) {
            const LinkImpact &li = im.links[k];
            table.addRow({
                k == 0 ? im.event.str() : "",
                li.label,
                formatBandwidth(li.nominal),
                formatBandwidth(li.faulted),
                formatBandwidth(li.avg_before),
                formatBandwidth(li.avg_during),
                formatBandwidth(li.avg_after),
                k == 0 ? csprintf("%.2fx", im.iteration_slowdown) : "",
            });
        }
        // Stragglers / NVMe latency faults may touch no links at all;
        // still show the slowdown row.
        if (im.links.empty()) {
            table.addRow({im.event.str(), "-", "-", "-", "-", "-", "-",
                          csprintf("%.2fx", im.iteration_slowdown)});
        }
    }
    return table;
}

std::string
summarizeRecovery(const RecoveryReport &recovery)
{
    if (!recovery.active)
        return "";
    return csprintf(
        "goodput %.1f of %.1f TFLOP/s, %d ckpt%s (%.1f%% overhead), "
        "%d recover%s, %d iter%s lost",
        recovery.goodput_tflops, recovery.throughput_tflops,
        recovery.checkpoints, recovery.checkpoints == 1 ? "" : "s",
        recovery.checkpoint_overhead * 100.0, recovery.recoveries,
        recovery.recoveries == 1 ? "y" : "ies",
        recovery.lost_iterations,
        recovery.lost_iterations == 1 ? "" : "s");
}

std::string
summarizeResilience(const ResilienceStats &stats)
{
    if (!stats.any())
        return "";
    return csprintf(
        "resilience: %llu route invalidation%s, %llu deferred scan%s, "
        "%llu collective timeout%s, %llu fallback%s, %llu comm "
        "shrink%s",
        static_cast<unsigned long long>(stats.route_invalidations),
        stats.route_invalidations == 1 ? "" : "s",
        static_cast<unsigned long long>(stats.reconvergence_waits),
        stats.reconvergence_waits == 1 ? "" : "s",
        static_cast<unsigned long long>(stats.collective_timeouts),
        stats.collective_timeouts == 1 ? "" : "s",
        static_cast<unsigned long long>(stats.collective_fallbacks),
        stats.collective_fallbacks == 1 ? "" : "s",
        static_cast<unsigned long long>(stats.comm_shrinks),
        stats.comm_shrinks == 1 ? "" : "s");
}

TextTable
recoveryTable(const std::vector<ExperimentReport> &reports)
{
    TextTable table({"Configuration", "Goodput (TFLOP/s)",
                     "Throughput (TFLOP/s)", "Ckpts",
                     "Ckpt overhead", "Recoveries", "Lost (s)",
                     "Lost iters", "TTR (s)"});
    for (const ExperimentReport &r : reports) {
        const RecoveryReport &rc = r.recovery;
        if (!rc.active) {
            table.addRow({r.strategy.displayName(),
                          csprintf("%.1f", r.tflops),
                          csprintf("%.1f", r.tflops), "-", "-", "-",
                          "-", "-", "-"});
            continue;
        }
        table.addRow({
            r.strategy.displayName(),
            csprintf("%.1f", rc.goodput_tflops),
            csprintf("%.1f", rc.throughput_tflops),
            csprintf("%d", rc.checkpoints),
            csprintf("%.2f%%", rc.checkpoint_overhead * 100.0),
            csprintf("%d", rc.recoveries),
            csprintf("%.3f", rc.lost_time),
            csprintf("%d", rc.lost_iterations),
            csprintf("%.3f", rc.time_to_recover),
        });
    }
    return table;
}

TextTable
collectiveUsageTable(const ExperimentReport &report)
{
    TextTable table({"Collective", "Algorithm", "Invocations",
                     "Payload", "Fabric traffic"});
    for (const CollectiveUsage &u : report.collectives) {
        table.addRow({
            collectiveOpName(u.op),
            collectiveAlgoName(u.algo),
            csprintf("%llu",
                     static_cast<unsigned long long>(u.invocations)),
            formatBytes(u.payload_bytes),
            formatBytes(u.fabric_bytes),
        });
    }
    return table;
}

namespace {

/**
 * Appends fingerprint fields without printf: text verbatim, integers
 * as "%d" writes them and doubles as "%a" does (appendHexFloat()).
 */
class FieldWriter
{
  public:
    explicit FieldWriter(std::string &out) : out_(out) {}

    FieldWriter &
    operator<<(std::string_view text)
    {
        out_ += text;
        return *this;
    }

    FieldWriter &
    operator<<(char c)
    {
        out_ += c;
        return *this;
    }

    FieldWriter &
    operator<<(double v)
    {
        appendHexFloat(out_, v);
        return *this;
    }

    template <std::integral T>
    FieldWriter &
    operator<<(T v)
    {
        char buf[24];
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof buf, v);
        out_.append(buf, static_cast<std::size_t>(r.ptr - buf));
        return *this;
    }

  private:
    std::string &out_;
};

} // namespace

std::string
reportFingerprint(const ExperimentReport &report)
{
    std::string out;
    FieldWriter w(out);
    w << report.strategy.displayName() << "|model="
      << report.model.billions << '/' << report.model.layers << '/'
      << static_cast<long long>(report.model.params);
    w << "|iter=" << report.iteration_time << "|tflops=" << report.tflops;
    w << "|fp=" << report.footprint.gpu_per_gpu << '/'
      << report.footprint.cpu_per_node << '/'
      << report.footprint.nvme_per_node;
    w << "|mem=" << report.composition.gpu << '/'
      << report.composition.cpu << '/' << report.composition.nvme;
    w << "|bw=";
    for (const BandwidthSummary &s : report.bandwidth.per_class)
        w << s.avg << '/' << s.p90 << '/' << s.peak << ';';
    w << "|win=" << report.execution.measured_begin << ".."
      << report.execution.measured_end
      << "|flops=" << report.execution.flops_per_iteration;
    w << "|ends=";
    for (SimTime t : report.execution.iteration_ends)
        w << t << ';';
    w << "|spans=" << report.execution.spans.size();
    for (const TaskSpan &s : report.execution.spans)
        w << s.task_id << '/' << s.rank << '/' << s.begin << '/' << s.end
          << ';';
    // Only faulted runs carry this section, so a run with an empty
    // FaultPlan fingerprints identically to a plain run.
    if (!report.faults.empty()) {
        w << "|faults=" << report.faults.size();
        for (const FaultImpact &im : report.faults) {
            w << im.event.str() << '/' << im.applied_at << '/'
              << im.restored_at << '/' << (im.restored ? 1 : 0) << '/'
              << im.iteration_slowdown << ':';
            for (const LinkImpact &li : im.links)
                w << li.label << '=' << li.nominal << '/' << li.faulted
                  << '/' << li.avg_before << '/' << li.avg_during << '/'
                  << li.avg_after << ',';
            w << ';';
        }
    }
    // Gated on a non-ring algorithm actually being used: the default
    // spec resolves every op the presets issue to ring, so plain runs
    // (and explicit `--collective-algo ring` runs) fingerprint
    // identically to the pre-algorithm-library goldens.
    bool non_ring = false;
    for (const CollectiveUsage &u : report.collectives)
        non_ring |= u.algo != CollectiveAlgo::Ring;
    if (non_ring) {
        w << "|collectives=" << report.collectives.size();
        for (const CollectiveUsage &u : report.collectives)
            w << collectiveOpName(u.op) << '/'
              << collectiveAlgoName(u.algo) << '/' << u.invocations
              << '/' << u.payload_bytes << '/' << u.fabric_bytes << ';';
    }
    // Likewise gated: a disabled checkpoint policy with no hard
    // faults never constructs a RecoveryManager, so plain runs are
    // unaffected.
    if (report.recovery.active) {
        const RecoveryReport &rc = report.recovery;
        w << "|recovery=" << rc.checkpoints << '/' << rc.checkpoint_bytes
          << '/' << rc.checkpoint_time << '/' << rc.recoveries << '/'
          << rc.recovery_time << '/' << rc.lost_time << '/'
          << rc.lost_iterations << '/' << rc.time_to_recover << '/'
          << rc.goodput_tflops << '/' << rc.throughput_tflops << '/'
          << rc.checkpoint_overhead;
    }
    // Gated on a counter actually firing: resilience enabled on a
    // healthy fabric changes no routing decision and no schedule, so
    // it fingerprints identically to a plain run.
    if (report.resilience.any()) {
        const ResilienceStats &rs = report.resilience;
        w << "|resilience=" << rs.route_invalidations << '/'
          << rs.reconvergence_waits << '/' << rs.collective_timeouts
          << '/' << rs.collective_fallbacks << '/' << rs.comm_shrinks;
    }
    return out;
}

} // namespace dstrain
