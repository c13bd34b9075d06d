/**
 * @file
 * Implementation of the plan executor.
 */

#include "engine/executor.hh"

#include <functional>
#include <memory>

#include <cmath>

#include "util/logging.hh"

namespace dstrain {

double
EngineCalibration::gemmEfficiency(int layers) const
{
    return gemm_eff_max *
           (1.0 - gemm_eff_dip *
                      std::exp(-static_cast<double>(layers) /
                               gemm_eff_layer_scale));
}

/** Mutable state of one iteration execution. */
struct Executor::RunState {
    const IterationPlan *plan = nullptr;
    std::vector<int> pending_deps;
    std::vector<std::vector<int>> dependents;
    std::vector<SimTime> start_time;
    int remaining = 0;
    bool record_spans = false;
    std::vector<TaskSpan> *spans = nullptr;
    std::function<void()> on_done;

    // Per-GPU FIFO execution of compute tasks.
    std::map<int, std::deque<int>> gpu_queue;
    std::map<int, bool> gpu_busy;

    // Per-socket FIFO execution of CPU optimizer tasks.
    std::map<std::pair<int, int>, std::deque<int>> cpu_queue;
    std::map<std::pair<int, int>, bool> cpu_busy;
};

Executor::Executor(Simulation &sim, Cluster &cluster,
                   FlowScheduler &flows, TransferManager &tm,
                   CollectiveEngine &coll, AioEngine &aio,
                   EngineCalibration cal)
    : sim_(sim), cluster_(cluster), flows_(flows), tm_(tm), coll_(coll),
      aio_(aio), cal_(cal)
{
}

void
Executor::configureStorage(const NvmePlacement &placement)
{
    placement_ = placement;
    volumes_.clear();
    volumes_.resize(static_cast<std::size_t>(cluster_.nodeCount()));
    for (int node = 0; node < cluster_.nodeCount(); ++node) {
        for (const VolumeSpec &vs : placement.volumes) {
            volumes_[static_cast<std::size_t>(node)].push_back(
                std::make_unique<StorageVolume>(aio_, node, vs));
        }
    }
}

void
Executor::beginMeasurement(SimTime t)
{
    measurement_started_ = true;
    result_->measured_begin = t;
    Topology &topo = cluster_.topology();
    if (t > 0.0)
        topo.dropLogsBefore(t);
    topo.armStreams(t, telemetry_.bucket);
}

void
Executor::onTaskDone(RunState &st, int task_id)
{
    const PlanTask &t = st.plan->tasks()[static_cast<std::size_t>(task_id)];
    if (st.record_spans && t.kind != TaskKind::Barrier) {
        if (t.kind == TaskKind::Collective) {
            for (int r : t.group.ranks) {
                st.spans->push_back(TaskSpan{
                    t.id, r, t.kind, t.phase,
                    st.start_time[static_cast<std::size_t>(task_id)],
                    sim_.now(), t.label});
            }
        } else {
            st.spans->push_back(TaskSpan{
                t.id, t.rank, t.kind, t.phase,
                st.start_time[static_cast<std::size_t>(task_id)],
                sim_.now(), t.label});
        }
    }

    --st.remaining;
    for (int dep : st.dependents[static_cast<std::size_t>(task_id)]) {
        if (--st.pending_deps[static_cast<std::size_t>(dep)] == 0)
            startTask(st, dep);
    }
    if (st.remaining == 0 && st.on_done)
        st.on_done();
}

void
Executor::dispatchGpu(RunState &st, int rank)
{
    auto &queue = st.gpu_queue[rank];
    if (st.gpu_busy[rank] || queue.empty())
        return;
    const int task_id = queue.front();
    queue.pop_front();
    st.gpu_busy[rank] = true;

    const PlanTask &t = st.plan->tasks()[static_cast<std::size_t>(task_id)];
    const Flops peak =
        cluster_.nodeSpec(cluster_.nodeOfRank(mapRank(rank)))
            .gpu_peak_fp16;
    const double eff = cal_.gemmEfficiency(st.plan->modelLayers());
    const SimTime duration =
        t.flops / (peak * eff * gpuSpeedFactor(mapRank(rank)));
    st.start_time[static_cast<std::size_t>(task_id)] = sim_.now();
    sim_.events().scheduleAfter(
        duration, [this, &st, task_id, rank, gen = gen_] {
            if (gen != gen_)
                return;  // the attempt was aborted mid-kernel
            st.gpu_busy[rank] = false;
            onTaskDone(st, task_id);
            dispatchGpu(st, rank);
        });
}

void
Executor::setGpuSpeedFactor(int rank, double factor)
{
    DSTRAIN_ASSERT(rank >= 0 && rank < cluster_.spec().totalGpus(),
                   "bad straggler rank %d", rank);
    DSTRAIN_ASSERT(factor > 0.0 && factor <= 1.0,
                   "bad GPU speed factor %g", factor);
    if (gpu_speed_.empty()) {
        gpu_speed_.assign(
            static_cast<std::size_t>(cluster_.spec().totalGpus()), 1.0);
    }
    gpu_speed_[static_cast<std::size_t>(rank)] = factor;
}

double
Executor::gpuSpeedFactor(int rank) const
{
    if (gpu_speed_.empty())
        return 1.0;
    DSTRAIN_ASSERT(rank >= 0 &&
                       static_cast<std::size_t>(rank) < gpu_speed_.size(),
                   "bad GPU rank %d", rank);
    return gpu_speed_[static_cast<std::size_t>(rank)];
}

void
Executor::dispatchCpu(RunState &st, int node, int socket)
{
    const auto key = std::make_pair(node, socket);
    auto &queue = st.cpu_queue[key];
    if (st.cpu_busy[key] || queue.empty())
        return;
    const int task_id = queue.front();
    queue.pop_front();
    st.cpu_busy[key] = true;

    const PlanTask &t = st.plan->tasks()[static_cast<std::size_t>(task_id)];
    const SimTime duration = t.cpu_params / cal_.cpu_adam_params_per_sec;
    const Bytes dram_traffic =
        t.cpu_params * cal_.cpu_adam_dram_bytes_per_param;
    st.start_time[static_cast<std::size_t>(task_id)] = sim_.now();

    // The Adam step is memory-bound: model it as a DRAM flow pinned
    // at the rate the compute needs. Contention on the DRAM pool
    // stretches the step, which is exactly the physical effect.
    TransferOptions opts;
    opts.rate_cap = dram_traffic / duration;
    opts.tag = tm_.internTag(t.label);
    const NodeHandles &nh = cluster_.node(mapNode(node));
    tm_.start(nh.drams[static_cast<std::size_t>(socket)],
              nh.cpus[static_cast<std::size_t>(socket)], dram_traffic,
              [this, &st, task_id, key, gen = gen_] {
                  if (gen != gen_)
                      return;
                  st.cpu_busy[key] = false;
                  onTaskDone(st, task_id);
                  dispatchCpu(st, key.first, key.second);
              },
              std::move(opts));
}

void
Executor::startTask(RunState &st, int task_id)
{
    const PlanTask &t = st.plan->tasks()[static_cast<std::size_t>(task_id)];
    switch (t.kind) {
      case TaskKind::Barrier: {
        st.start_time[static_cast<std::size_t>(task_id)] = sim_.now();
        sim_.events().scheduleAfter(
            0.0, [this, &st, task_id, gen = gen_] {
                if (gen == gen_)
                    onTaskDone(st, task_id);
            });
        break;
      }
      case TaskKind::GpuCompute: {
        st.gpu_queue[t.rank].push_back(task_id);
        dispatchGpu(st, t.rank);
        break;
      }
      case TaskKind::Collective: {
        st.start_time[static_cast<std::size_t>(task_id)] = sim_.now();
        sim_.events().scheduleAfter(
            cal_.collective_launch +
                st.plan->tasks()[static_cast<std::size_t>(task_id)]
                    .extra_latency,
            [this, &st, task_id, gen = gen_] {
                if (gen != gen_)
                    return;
                const PlanTask &task =
                    st.plan->tasks()[static_cast<std::size_t>(task_id)];
                // Elastic recovery runs a re-planned group on the
                // surviving physical ranks.
                CommGroup group = task.group;
                for (int &r : group.ranks)
                    r = mapRank(r);
                CollectiveOptions opts;
                opts.pin_channels_to_nics = task.pin_channels;
                opts.bandwidth_factor = task.comm_bw_factor;
                opts.algorithm = task.algo;
                bool spans = false;
                const int node0 =
                    cluster_.nodeOfRank(group.ranks.front());
                for (int r : group.ranks)
                    spans = spans || cluster_.nodeOfRank(r) != node0;
                if (spans)
                    opts.bandwidth_factor = cal_.internode_comm_factor;
                opts.tag = task.label;
                auto done = [this, &st, task_id, gen] {
                    if (gen == gen_)
                        onTaskDone(st, task_id);
                };
                switch (task.op) {
                  case CollectiveOp::AllReduce:
                    coll_.allReduce(group, task.bytes, done, opts);
                    break;
                  case CollectiveOp::ReduceScatter:
                    coll_.reduceScatter(group, task.bytes, done, opts);
                    break;
                  case CollectiveOp::AllGather:
                    coll_.allGather(group, task.bytes, done, opts);
                    break;
                  case CollectiveOp::Broadcast:
                    coll_.broadcast(group, mapRank(task.root),
                                    task.bytes, done, opts);
                    break;
                  case CollectiveOp::Reduce:
                    coll_.reduce(group, mapRank(task.root), task.bytes,
                                 done, opts);
                    break;
                  case CollectiveOp::AllToAll:
                    coll_.allToAll(group, task.bytes, done, opts);
                    break;
                }
            });
        break;
      }
      case TaskKind::HostTransfer: {
        st.start_time[static_cast<std::size_t>(task_id)] = sim_.now();
        const int rank = mapRank(t.rank);
        const int node = cluster_.nodeOfRank(rank);
        const int socket =
            gpuSocket(cluster_.nodeSpec(node), cluster_.localOfRank(rank));
        const NodeHandles &nh = cluster_.node(node);
        const ComponentId gpu = cluster_.gpuByRank(rank);
        const ComponentId dram =
            nh.drams[static_cast<std::size_t>(socket)];
        TransferOptions opts;
        opts.tag = tm_.internTag(t.label);
        tm_.start(t.to_host ? gpu : dram, t.to_host ? dram : gpu,
                  t.bytes,
                  [this, &st, task_id, gen = gen_] {
                      if (gen == gen_)
                          onTaskDone(st, task_id);
                  },
                  std::move(opts));
        break;
      }
      case TaskKind::CpuOptimizer: {
        st.cpu_queue[{t.node, t.socket}].push_back(task_id);
        dispatchCpu(st, t.node, t.socket);
        break;
      }
      case TaskKind::NvmeIo: {
        st.start_time[static_cast<std::size_t>(task_id)] = sim_.now();
        const int rank = mapRank(t.rank);
        const int node = cluster_.nodeOfRank(rank);
        const int socket =
            gpuSocket(cluster_.nodeSpec(node), cluster_.localOfRank(rank));
        nodeStorageIo(node, socket, t.volume, t.io_write, t.bytes,
                      t.label, [this, &st, task_id, gen = gen_] {
                          if (gen == gen_)
                              onTaskDone(st, task_id);
                      });
        break;
      }
    }
}

void
Executor::startIteration()
{
    if (iter_index_ >= iterations_)
        return;
    const IterationPlan &plan = activePlan();
    RunState &st = *state_;
    st = RunState{};
    st.plan = &plan;
    const std::size_t n = plan.size();
    st.pending_deps.assign(n, 0);
    st.dependents.assign(n, {});
    st.start_time.assign(n, 0.0);
    st.remaining = static_cast<int>(n);
    st.record_spans = (iter_index_ == iterations_ - 1);
    st.spans = &result_->spans;
    // A replay of the final iteration after an abort re-records its
    // timeline from scratch.
    if (st.record_spans)
        st.spans->clear();
    st.on_done = [this, gen = gen_] {
        if (gen == gen_)
            onIterationDone();
    };
    for (const PlanTask &t : plan.tasks()) {
        st.pending_deps[static_cast<std::size_t>(t.id)] =
            static_cast<int>(t.deps.size());
        for (int dep : t.deps)
            st.dependents[static_cast<std::size_t>(dep)].push_back(t.id);
    }
    // The fixed per-iteration framework overhead delays the first
    // tasks of the iteration.
    sim_.events().scheduleAfter(
        cal_.iteration_fixed, [this, gen = gen_] {
            if (gen != gen_)
                return;
            RunState &s2 = *state_;
            for (const PlanTask &t : s2.plan->tasks())
                if (t.deps.empty())
                    startTask(s2, t.id);
        });
}

void
Executor::onIterationDone()
{
    result_->iteration_ends.push_back(sim_.now());
    result_->iteration_flops.push_back(activePlan().totalGpuFlops());
    ++iter_index_;
    // The measurement window opens exactly where measured_begin
    // lands: the end of the last warm-up iteration. The flag keeps a
    // replay that re-crosses the warm-up boundary from truncating the
    // telemetry a second time.
    if (warmup_ > 0 && iter_index_ == warmup_ && !measurement_started_)
        beginMeasurement(sim_.now());
    // The boundary hook (checkpoint scheduler) may hold the run; it
    // resumes via resumeRun(). Never called after the final iteration.
    if (iteration_hook_ && iter_index_ < iterations_ &&
        iteration_hook_(iter_index_, sim_.now())) {
        paused_ = true;
        return;
    }
    scheduleNextIteration();
}

void
Executor::scheduleNextIteration()
{
    // Defer to a fresh event so the current callbacks fully unwind.
    sim_.events().scheduleAfter(0.0, [this, gen = gen_] {
        if (gen == gen_)
            startIteration();
    });
}

void
Executor::resumeRun()
{
    DSTRAIN_ASSERT(paused_, "resumeRun() without a held run");
    paused_ = false;
    scheduleNextIteration();
}

void
Executor::abortRun(int resume_iter)
{
    DSTRAIN_ASSERT(resume_iter >= 0 && resume_iter <= iter_index_,
                   "cannot resume at iteration %d (%d committed)",
                   resume_iter, iter_index_);
    // Invalidate every scheduled continuation of the current attempt
    // first, then tear down in-flight work: every flow is a transfer's
    // (collective hops, host and DRAM copies, storage IO alike), so
    // aborting the transfers, which books delivered and aborted bytes
    // per transfer, stops all of them; the aio epoch then drops the
    // storage IO still inside its submit latency. Collective
    // continuations live inside the transfers' callbacks, so the
    // abort drains the collectives too.
    ++gen_;
    tm_.abortAll();
    aio_.abortAll();
    // Rewind the iteration clock to the last committed boundary; the
    // lost iterations re-run (replay) after recovery resumes us.
    result_->iteration_ends.resize(static_cast<std::size_t>(resume_iter));
    result_->iteration_flops.resize(
        static_cast<std::size_t>(resume_iter));
    iter_index_ = resume_iter;
    paused_ = true;
}

void
Executor::setPlanOverride(const IterationPlan *plan,
                          std::vector<int> rank_map,
                          std::vector<int> node_map)
{
    if (plan != nullptr)
        plan->validate();
    plan_override_ = plan;
    rank_map_ = std::move(rank_map);
    node_map_ = std::move(node_map);
}

SimTime
Executor::iterationEndTime(int i) const
{
    DSTRAIN_ASSERT(result_ != nullptr && i >= 0 &&
                       static_cast<std::size_t>(i) <
                           result_->iteration_ends.size(),
                   "no committed iteration %d", i);
    return result_->iteration_ends[static_cast<std::size_t>(i)];
}

void
Executor::rankStorageIo(int plan_rank, bool write, Bytes bytes,
                        const std::string &tag,
                        std::function<void()> on_done)
{
    const int rank = mapRank(plan_rank);
    const int node = cluster_.nodeOfRank(rank);
    const int local = cluster_.localOfRank(rank);
    const int socket = gpuSocket(cluster_.nodeSpec(node), local);
    nodeStorageIo(node, socket, placement_.volumeForRank(local), write,
                  bytes, tag, std::move(on_done));
}

void
Executor::nodeStorageIo(int node, int socket, int volume, bool write,
                        Bytes bytes, const std::string &tag,
                        std::function<void()> on_done)
{
    DSTRAIN_ASSERT(node >= 0 &&
                       node < static_cast<int>(volumes_.size()) &&
                       volume >= 0 &&
                       volume < static_cast<int>(
                                    volumes_[static_cast<std::size_t>(
                                                 node)]
                                        .size()),
                   "IO '%s' has no volume %d on node %d "
                   "(configureStorage not called?)",
                   tag.c_str(), volume, node);
    StorageIo io;
    io.write = write;
    io.bytes = bytes;
    io.node = node;
    io.socket = socket;
    io.tag = tag;
    io.on_done = std::move(on_done);
    volumes_[static_cast<std::size_t>(node)]
            [static_cast<std::size_t>(volume)]
                ->io(std::move(io));
}

IterationResult
Executor::run(const IterationPlan &plan, int iterations, int warmup)
{
    DSTRAIN_ASSERT(iterations >= 1 && warmup >= 0 &&
                       warmup < iterations,
                   "bad iteration counts (%d total, %d warmup)",
                   iterations, warmup);
    plan.validate();

    // Reset the run context (executors are reused across runs); the
    // generation bump turns any event left over from a previous run
    // into a no-op.
    ++gen_;
    run_plan_ = &plan;
    plan_override_ = nullptr;
    rank_map_.clear();
    node_map_.clear();
    iterations_ = iterations;
    warmup_ = warmup;
    iter_index_ = 0;
    paused_ = false;
    measurement_started_ = false;
    result_ = std::make_shared<IterationResult>();
    result_->flops_per_iteration = plan.totalGpuFlops();
    state_ = std::make_shared<RunState>();

    if (warmup == 0)
        beginMeasurement(0.0);  // the measurement window is the run

    startIteration();
    sim_.run();
    sim_.checkEventLimit();

    if (paused_) {
        panic("run drained while held at iteration %d "
              "(recovery never resumed it)",
              iter_index_);
    }
    if (state_->remaining != 0) {
        // Flows parked at rate zero when the queue drains crossed a
        // link the fault plan cut for good: the configured scenario
        // cannot finish, which is the user's to fix.
        if (flows_.stalledCount() > 0) {
            fatal("training cannot finish: %zu flows wait on links the "
                  "fault plan cut for good (%d tasks outstanding); %s",
                  flows_.stalledCount(), state_->remaining,
                  tm_.resilience() != nullptr
                      ? "rerouting under --resilience found no path "
                        "around them; restore the links"
                      : "restore the links or route around them with "
                        "--resilience");
        }
        panic("plan execution deadlocked with %d tasks outstanding",
              state_->remaining);
    }
    DSTRAIN_ASSERT(static_cast<int>(result_->iteration_ends.size()) ==
                       iterations,
                   "iteration count mismatch");

    result_->measured_end = result_->iteration_ends.back();
    flows_.finalizeLogs();
    return *result_;
}

} // namespace dstrain
