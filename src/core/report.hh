/**
 * @file
 * Report rendering: turn ExperimentReports into the tables and
 * figure-style text blocks the benches print.
 */

#ifndef DSTRAIN_CORE_REPORT_HH
#define DSTRAIN_CORE_REPORT_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace dstrain {

/** One-line summary ("ZeRO-3: 6.6B, 381 TFLOP/s, iter 2.27 s"). */
std::string summarizeReport(const ExperimentReport &report);

/**
 * One-line summary of the telemetry-engine counters ("telemetry: 420
 * stream buckets, 18432 deposits, 12.4 KiB").
 */
std::string summarizeTelemetry(const TelemetryStats &stats);

/**
 * Three-line summary of the flow-scheduler work counters: solves and
 * incremental fast paths on the first line, completion-index /
 * batching counters on the second, and hop classes on the third: the
 * hit rate is the share of the run's @p transfers (hops) that started
 * inside a class.
 */
std::string summarizeScheduler(const FlowScheduler::Stats &stats,
                               std::uint64_t transfers);

/**
 * A comparison table over several reports: model size, throughput,
 * iteration time, memory totals.
 */
TextTable comparisonTable(const std::vector<ExperimentReport> &reports);

/** A memory-composition table (paper Fig. 11-b / 13-c style). */
TextTable
compositionTable(const std::vector<ExperimentReport> &reports);

/**
 * A horizontal ASCII bar chart: one row per (label, value) with
 * bars scaled to the maximum value.
 */
std::string barChart(const std::vector<std::string> &labels,
                     const std::vector<double> &values,
                     const std::string &unit, int width = 50);

/**
 * A one-line ASCII sparkline of a series (downsampled to @p width
 * columns; glyphs " .:-=+*#%@" scale with the bucket mean relative
 * to the series maximum). Used for the bandwidth-pattern figures.
 */
std::string sparkline(const std::vector<double> &values, int width = 80);

/**
 * A per-fault impact table: affected links with nominal vs faulted
 * capacity, before/during/after average bandwidth, and the measured
 * iteration-time slowdown. Empty table when the report has no faults.
 */
TextTable faultImpactTable(const ExperimentReport &report);

/**
 * One-line goodput summary of a recovered run ("goodput 312.4 of
 * 356.1 TFLOP/s, 3 ckpts (1.2% overhead), 1 recovery, 2 iters
 * lost"). Empty string when the report has no recovery section.
 */
std::string summarizeRecovery(const RecoveryReport &recovery);

/**
 * One-line summary of the degraded-mode resilience counters
 * ("resilience: 2 route invalidations, 1 deferred scan, ..."). Empty
 * string when no counter fired.
 */
std::string summarizeResilience(const ResilienceStats &stats);

/**
 * A goodput/recovery comparison table over several reports:
 * goodput vs throughput, checkpoint count/overhead, recoveries,
 * lost work, time-to-recover. Reports without an active recovery
 * section render as dashes.
 */
TextTable recoveryTable(const std::vector<ExperimentReport> &reports);

/**
 * A per-(op, algorithm) collective-usage table: invocation count,
 * payload bytes and total fabric bytes for every collective flavor
 * the run issued. Empty table when the run issued none.
 */
TextTable collectiveUsageTable(const ExperimentReport &report);

/**
 * A bit-exact serialization of every numeric field of a report
 * (floats rendered with the hex "%a" format, so two fingerprints
 * compare equal iff the reports are bit-identical). Used by the
 * determinism regression tests and the sweep benches to assert that
 * SweepRunner output is independent of the job count.
 */
std::string reportFingerprint(const ExperimentReport &report);

} // namespace dstrain

#endif // DSTRAIN_CORE_REPORT_HH
