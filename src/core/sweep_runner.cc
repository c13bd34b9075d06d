/**
 * @file
 * Implementation of the parallel sweep runner.
 */

#include "core/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

namespace dstrain {

SweepRunner::SweepRunner(int jobs)
{
    if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? static_cast<int>(hw) : 1;
    }
    jobs_ = jobs;
}

std::vector<ExperimentReport>
SweepRunner::run(std::vector<ExperimentConfig> configs,
                 const Progress &progress) const
{
    const std::size_t total = configs.size();
    std::vector<ExperimentReport> reports(total);
    std::atomic<std::size_t> cursor{0};
    std::mutex progress_mutex;
    std::size_t done = 0;  // guarded by progress_mutex

    auto work = [&] {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            reports[i] = runExperiment(std::move(configs[i]));
            // Count inside the lock so `done` is monotonic from the
            // callback's point of view.
            std::lock_guard<std::mutex> lock(progress_mutex);
            ++done;
            if (progress)
                progress(done, total, i);
        }
    };

    const std::size_t threads =
        std::min(static_cast<std::size_t>(jobs_), total);
    if (threads <= 1) {
        work();  // inline: same claim order, same results
        return reports;
    }
    {
        // A jthread joins when destroyed, so every thread is finished
        // with the state above when this scope closes, on any path.
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(work);
    }
    return reports;
}

} // namespace dstrain
