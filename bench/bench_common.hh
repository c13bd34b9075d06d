/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: canned
 * run settings, paper reference values for side-by-side printing,
 * and small formatting utilities.
 */

#ifndef DSTRAIN_BENCH_BENCH_COMMON_HH
#define DSTRAIN_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "core/report.hh"
#include "sim/event_queue.hh"
#include "util/logging.hh"

namespace dstrain::bench {

/** Wall-clock stopwatch for bench timing. */
class Stopwatch
{
  public:
    Stopwatch() : start_(Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Minimal JSON object builder for machine-readable bench output
 * (keys and string values are emitted verbatim — callers pass plain
 * identifiers, not arbitrary text needing escapes).
 */
class JsonObject
{
  public:
    JsonObject &
    add(const std::string &key, double value)
    {
        return addRaw(key, csprintf("%.6g", value));
    }

    JsonObject &
    add(const std::string &key, std::uint64_t value)
    {
        return addRaw(key,
                      csprintf("%llu",
                               static_cast<unsigned long long>(value)));
    }

    JsonObject &
    add(const std::string &key, int value)
    {
        return addRaw(key, csprintf("%d", value));
    }

    JsonObject &
    add(const std::string &key, bool value)
    {
        return addRaw(key, value ? "true" : "false");
    }

    JsonObject &
    add(const std::string &key, const std::string &value)
    {
        return addRaw(key, "\"" + value + "\"");
    }

    /** Nest a pre-rendered JSON value (object, array, number). */
    JsonObject &
    addRaw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + key + "\":" + json;
        return *this;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/**
 * Machine-speed canary of the JSON benches: pure event-queue churn
 * (schedule bursts, cancel half, pop the rest) with no simulator code
 * under test in the loop. tools/perf_guard.py divides its ops/sec
 * ratio to the baseline out of every guarded rate, so a slower (or
 * busier) host slows the canary and the scenarios together.
 */
inline JsonObject
eventQueueChurn()
{
    constexpr int kRounds = 200;
    constexpr int kBurst = 2000;
    Stopwatch watch;
    EventQueue q;
    std::uint64_t ops = 0;
    int fired = 0;
    for (int r = 0; r < kRounds; ++r) {
        EventId ids[kBurst];
        const SimTime base = q.now();
        for (int i = 0; i < kBurst; ++i) {
            ids[i] = q.schedule(base + 1e-6 * (i % 97 + 1),
                                [&fired] { ++fired; });
        }
        for (int i = 0; i < kBurst; i += 2)
            q.cancel(ids[i]);
        q.run();
        ops += 2 * kBurst + kBurst / 2;  // schedule + pop + cancel
    }
    const double secs = watch.seconds();

    JsonObject json;
    json.add("scenario", std::string("event_queue_churn"))
        .add("ops", ops)
        .add("executed", q.executedCount())
        .add("wall_seconds", secs)
        .add("ops_per_sec", ops / secs);
    return json;
}

/** Standard iteration settings for the reproduction runs. */
inline void
applyRunSettings(ExperimentConfig &cfg, int iterations = 4,
                 int warmup = 1)
{
    cfg.iterations = iterations;
    cfg.warmup = warmup;
}

/**
 * Set @p cfg's telemetry bucket to 1/40 of its iteration time, the
 * grid of the Fig. 9/10/12 per-iteration sparklines. Post-run probes
 * read only the grid a run armed, so a first run of the same config
 * learns the iteration time.
 */
inline void
armIterationGrid(ExperimentConfig &cfg)
{
    cfg.telemetry.bucket = runExperiment(cfg).iteration_time / 40.0;
}

/** Run one paper configuration with the standard settings. */
inline ExperimentReport
runPaperCase(int nodes, const StrategyConfig &strategy,
             double billions = 0.0, int iterations = 4)
{
    ExperimentConfig cfg = paperExperiment(nodes, strategy, billions);
    applyRunSettings(cfg, iterations);
    Experiment exp(std::move(cfg));
    return exp.run();
}

/** Print a bench banner. */
inline void
banner(const std::string &title)
{
    std::cout << "\n============================================"
                 "====================\n"
              << title << "\n"
              << "============================================"
                 "====================\n";
}

/** "measured (paper X)" cell helper. */
inline std::string
vsPaper(double measured, double paper, const char *fmt = "%.1f")
{
    return csprintf(fmt, measured) + " (paper " +
           csprintf(fmt, paper) + ")";
}

} // namespace dstrain::bench

#endif // DSTRAIN_BENCH_BENCH_COMMON_HH
