/**
 * @file
 * Implementation of checkpoint scheduling and hard-failure recovery.
 */

#include "recovery/recovery_manager.hh"

#include <algorithm>
#include <utility>

#include "hw/node_builder.hh"
#include "net/transfer_manager.hh"
#include "util/join.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

const char *
recoveryPolicyName(RecoveryPolicyKind kind)
{
    switch (kind) {
      case RecoveryPolicyKind::Restart: return "restart";
      case RecoveryPolicyKind::Elastic: return "elastic";
    }
    panic("unknown RecoveryPolicyKind %d", static_cast<int>(kind));
}

bool
parseRecoveryPolicy(const std::string &name, RecoveryPolicyKind *out)
{
    DSTRAIN_ASSERT(out != nullptr, "parseRecoveryPolicy needs an output");
    if (name == "restart") {
        *out = RecoveryPolicyKind::Restart;
        return true;
    }
    if (name == "elastic") {
        *out = RecoveryPolicyKind::Elastic;
        return true;
    }
    return false;
}

std::vector<ConfigError>
RecoveryConfig::validate(const FaultPlan &faults, int nodes) const
{
    std::vector<ConfigError> errors = checkpoint.validate();
    if (detect_delay < 0.0)
        errors.push_back({"recovery.detect_delay", "must be >= 0"});
    if (rendezvous < 0.0)
        errors.push_back({"recovery.rendezvous", "must be >= 0"});
    if (replacement_delay < 0.0)
        errors.push_back({"recovery.replacement_delay", "must be >= 0"});

    bool any_hard = false;
    bool any_gpudown = false;
    bool any_nodedown = false;
    for (const FaultEvent &ev : faults.events) {
        if (!isHardFault(ev.kind))
            continue;
        any_hard = true;
        any_gpudown |= ev.kind == FaultKind::GpuDown;
        any_nodedown |= ev.kind == FaultKind::NodeDown;
    }
    if (any_nodedown && nodes < 2) {
        errors.push_back({"faults",
                          "nodedown recovery needs >= 2 nodes (the "
                          "checkpoint mirror must survive)"});
    }
    if (policy == RecoveryPolicyKind::Elastic && any_hard) {
        if (!checkpoint.enabled()) {
            errors.push_back({"recovery.policy",
                              "elastic recovery requires a checkpoint "
                              "policy (state must be re-shardable)"});
        }
        if (any_gpudown) {
            errors.push_back({"recovery.policy",
                              "elastic recovery handles nodedown faults "
                              "only (use restart for gpudown)"});
        }
    }
    return errors;
}

RecoveryManager::RecoveryManager(Simulation &sim, Cluster &cluster,
                                 TransferManager &tm, Executor &executor,
                                 RecoveryConfig cfg)
    : sim_(sim), cluster_(cluster), tm_(tm), executor_(executor),
      cfg_(std::move(cfg))
{
}

void
RecoveryManager::attachInjector(FaultInjector &injector)
{
    injector_ = &injector;
    injector.setHardFaultHandler(
        [this](std::size_t i) { onHardFault(i); });
}

void
RecoveryManager::arm(const StrategyConfig &strategy, std::int64_t params)
{
    DSTRAIN_ASSERT(!armed_, "RecoveryManager::arm() called twice");
    armed_ = true;
    strategy_ = strategy;
    params_ = params;
    world_ = cluster_.spec().totalGpus();
    node_alive_.assign(static_cast<std::size_t>(cluster_.nodeCount()),
                       true);
    executor_.setIterationHook(
        [this](int iter, SimTime now) { return onBoundary(iter, now); });
}

Bytes
RecoveryManager::shardBytes(int rank) const
{
    return checkpointShardBytes(strategy_, params_, world_, rank);
}

int
RecoveryManager::nextAliveNode(int node) const
{
    const int n = cluster_.nodeCount();
    for (int step = 1; step < n; ++step) {
        const int candidate = (node + step) % n;
        if (node_alive_[static_cast<std::size_t>(candidate)])
            return candidate;
    }
    panic("no surviving node to recover from (all %d nodes dead)", n);
}

bool
RecoveryManager::onBoundary(int iter, SimTime now)
{
    DSTRAIN_ASSERT(!in_recovery_ && !ckpt_writing_,
                   "iteration boundary fired mid-%s",
                   in_recovery_ ? "recovery" : "checkpoint");
    if (!cfg_.checkpoint.enabled())
        return false;
    const bool due =
        cfg_.checkpoint.every_iterations > 0
            ? iter % cfg_.checkpoint.every_iterations == 0
            : now - last_ckpt_time_ >= cfg_.checkpoint.interval;
    if (!due)
        return false;

    ckpt_writing_ = true;
    ckpt_hold_begin_ = now;
    ckpt_remaining_ = 0;
    for (int r = 0; r < world_; ++r) {
        const Bytes shard = shardBytes(r);
        if (shard <= 0.0)
            continue;
        ++ckpt_remaining_;
        executor_.rankStorageIo(
            r, true, shard, csprintf("ckpt.i%d.r%d", iter, r),
            [this, iter] { onShardWritten(iter); });
    }
    DSTRAIN_ASSERT(ckpt_remaining_ > 0,
                   "checkpoint of %lld params wrote nothing",
                   static_cast<long long>(params_));
    return true;  // hold the run until the writes land
}

void
RecoveryManager::onShardWritten(int iter)
{
    DSTRAIN_ASSERT(ckpt_writing_ && ckpt_remaining_ > 0,
                   "stray checkpoint-shard completion");
    if (--ckpt_remaining_ > 0)
        return;

    const SimTime now = sim_.now();
    ckpt_writing_ = false;
    committed_iter_ = iter;
    have_checkpoint_ = true;
    committed_resume_time_ = now;
    last_ckpt_time_ = now;
    ++checkpoints_;
    checkpoint_bytes_ += checkpointTotalBytes(strategy_, params_, world_);
    ckpt_windows_.push_back({ckpt_hold_begin_, now});
    executor_.resumeRun();
}

void
RecoveryManager::onHardFault(std::size_t event_index)
{
    DSTRAIN_ASSERT(armed_ && injector_ != nullptr,
                   "hard fault before RecoveryManager::arm()");
    const FaultEvent &ev = injector_->plan().events[event_index];
    if (in_recovery_) {
        fatal("hard fault '%s' at t=%.3fs struck while still recovering "
              "from an earlier failure",
              faultKindName(ev.kind), sim_.now());
    }

    const SimTime fault_time = sim_.now();
    const int resume_iter = have_checkpoint_ ? committed_iter_ : 0;
    lost_iterations_ += executor_.completedIterations() - resume_iter;
    lost_windows_.push_back({committed_resume_time_, fault_time});

    in_recovery_ = true;
    ckpt_writing_ = false;
    ckpt_remaining_ = 0;
    executor_.abortRun(resume_iter);

    const bool elastic = cfg_.policy == RecoveryPolicyKind::Elastic &&
                         ev.kind == FaultKind::NodeDown;
    inform("recovery: %s at t=%.3fs -> %s, rewinding to iteration %d%s",
           faultKindName(ev.kind), fault_time,
           elastic ? "elastic" : "restart", resume_iter,
           have_checkpoint_ ? "" : " (no checkpoint: replay from start)");
    if (elastic)
        beginElastic(event_index, fault_time);
    else
        beginRestart(event_index, fault_time);
}

void
RecoveryManager::beginRestart(std::size_t event_index, SimTime fault_time)
{
    const int dead_node = injector_->resolved(event_index).node;
    sim_.events().scheduleAfter(
        cfg_.detect_delay + cfg_.replacement_delay,
        [this, event_index, dead_node, fault_time] {
            // Replacement hardware joins: the dead links come back.
            injector_->restoreHard(event_index);
            sim_.events().scheduleAfter(
                cfg_.rendezvous, [this, dead_node, fault_time] {
                    if (!have_checkpoint_) {
                        // Nothing ever committed: re-initialize and
                        // replay from iteration 0, no restore IO.
                        finishRecovery(fault_time);
                        return;
                    }
                    restoreShards(dead_node, false, [this, fault_time] {
                        finishRecovery(fault_time);
                    });
                });
        });
}

void
RecoveryManager::beginElastic(std::size_t event_index, SimTime fault_time)
{
    const int dead_node = injector_->resolved(event_index).node;
    DSTRAIN_ASSERT(dead_node >= 0, "elastic recovery needs a nodedown");
    node_alive_[static_cast<std::size_t>(dead_node)] = false;

    if (comm_shrink_) {
        // Tell the collective engine which global ranks died so any
        // group formed from here on is reformed over the survivors.
        std::vector<int> dead_ranks;
        for (int r = 0; r < cluster_.spec().totalGpus(); ++r)
            if (cluster_.nodeOfRank(r) == dead_node)
                dead_ranks.push_back(r);
        comm_shrink_(dead_ranks);
    }

    sim_.events().scheduleAfter(
        cfg_.detect_delay + cfg_.rendezvous,
        [this, dead_node, fault_time] {
            restoreShards(dead_node, true, [this, dead_node, fault_time] {
                replanElastic(dead_node, fault_time);
            });
        });
}

void
RecoveryManager::restoreShards(int dead_node, bool elastic,
                               std::function<void()> done)
{
    const char *what = elastic ? "reshard" : "restore";
    int survivors = 0;
    for (const bool alive : node_alive_)
        survivors += alive ? 1 : 0;
    const Join join(std::move(done));
    const std::function<void()> issuer = join.part();
    for (int r = 0; r < world_; ++r) {
        const Bytes shard = shardBytes(r);
        if (shard <= 0.0)
            continue;
        const int phys = physicalRank(r);
        const int node = cluster_.nodeOfRank(phys);
        if (node != dead_node) {
            executor_.rankStorageIo(r, false, shard,
                                    csprintf("%s.r%d", what, r),
                                    join.part());
            continue;
        }
        // The dead node's shard is read from the next node's
        // checkpoint mirror and shipped from its DRAM. Restart sends
        // it whole to the replacement node (whose NVMe is blank);
        // elastic scatters an equal share to every other survivor,
        // the mirror keeping its own share in DRAM.
        const int local = cluster_.localOfRank(phys);
        const int socket = gpuSocket(cluster_.nodeSpec(node), local);
        const int volume = executor_.placement().volumeForRank(local);
        const int mirror = nextAliveNode(dead_node);
        executor_.nodeStorageIo(
            mirror, socket, volume, false, shard,
            csprintf("%s.mirror.r%d", what, r),
            [this, join, read = join.part(), elastic, dead_node, mirror,
             socket, shard, survivors, r] {
                const std::size_t s = static_cast<std::size_t>(socket);
                for (int t = 0; t < cluster_.nodeCount(); ++t) {
                    const bool ship =
                        elastic ? t != mirror &&
                                      node_alive_[static_cast<std::size_t>(t)]
                                : t == dead_node;
                    if (!ship)
                        continue;
                    TransferOptions opts;
                    opts.tag = tm_.internTag(
                        elastic ? csprintf("reshard.ship.r%d.n%d", r, t)
                                : csprintf("restore.ship.r%d", r));
                    tm_.start(cluster_.node(mirror).drams[s],
                              cluster_.node(t).drams[s],
                              elastic ? shard / survivors : shard,
                              join.part(), std::move(opts));
                }
                read();
            });
    }
    issuer();
}

void
RecoveryManager::replanElastic(int dead_node, SimTime fault_time)
{
    DSTRAIN_ASSERT(replan_ != nullptr, "elastic recovery needs a replanner");
    std::vector<int> rank_map;
    std::vector<int> node_map;
    const IterationPlan *plan = replan_(dead_node, &rank_map, &node_map);
    DSTRAIN_ASSERT(plan != nullptr, "replanner returned null");
    rank_map_ = rank_map;
    executor_.setPlanOverride(plan, std::move(rank_map),
                              std::move(node_map));
    world_ -= cluster_.gpusOfNode(dead_node);
    DSTRAIN_ASSERT(world_ > 0, "no survivors to continue on");
    finishRecovery(fault_time);
}

void
RecoveryManager::finishRecovery(SimTime fault_time)
{
    const SimTime now = sim_.now();
    DSTRAIN_ASSERT(in_recovery_, "finishRecovery outside a recovery");
    recovery_windows_.push_back({fault_time, now});
    ++recoveries_;
    time_to_recover_ = now - fault_time;
    committed_resume_time_ = now;
    // Rewound state equals the checkpoint: restart the interval clock
    // so the next write isn't due the instant the run resumes.
    last_ckpt_time_ = now;
    in_recovery_ = false;
    inform("recovery: resumed at t=%.3fs (down %.3fs)", now,
           time_to_recover_);
    executor_.resumeRun();
}

RecoveryReport
RecoveryManager::buildReport(const IterationResult &ex) const
{
    RecoveryReport r;
    r.active = true;
    r.checkpoints = checkpoints_;
    r.checkpoint_bytes = checkpoint_bytes_;
    r.recoveries = recoveries_;
    r.lost_iterations = lost_iterations_;
    r.time_to_recover = time_to_recover_;

    const SimTime begin = ex.measured_begin;
    const SimTime end = ex.measured_end;
    const SimTime wall = end - begin;
    const auto clipped = [&](const std::vector<Window> &windows) {
        SimTime total = 0.0;
        for (const Window &w : windows) {
            total += std::max(0.0, std::min(w.end, end) -
                                       std::max(w.begin, begin));
        }
        return total;
    };
    r.checkpoint_time = clipped(ckpt_windows_);
    r.recovery_time = clipped(recovery_windows_);
    r.lost_time = clipped(lost_windows_);

    if (wall <= 0.0)
        return r;

    // Committed FLOPs: each iteration counts once, at the completion
    // that survived to the end of the run.
    double flops = 0.0;
    DSTRAIN_ASSERT(ex.iteration_flops.size() == ex.iteration_ends.size(),
                   "iteration_flops out of sync with iteration_ends");
    for (std::size_t i = 0; i < ex.iteration_ends.size(); ++i) {
        const SimTime t = ex.iteration_ends[i];
        if (t > begin && t <= end)
            flops += ex.iteration_flops[i];
    }
    r.goodput_tflops = flops / wall / 1e12;
    const SimTime productive =
        wall - r.checkpoint_time - r.recovery_time - r.lost_time;
    // productive <= wall, so goodput <= throughput by construction;
    // when overhead consumed the whole window they degenerate equal.
    r.throughput_tflops =
        productive > 0.0 ? flops / productive / 1e12 : r.goodput_tflops;
    r.checkpoint_overhead = r.checkpoint_time / wall;
    return r;
}

} // namespace dstrain
