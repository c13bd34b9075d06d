/**
 * @file
 * Implementation of the fault injector.
 */

#include "fault/fault_injector.hh"

#include <algorithm>

#include "net/resilience.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace dstrain {

namespace {

/** Every resource of a half-link touching component @p id, once each,
 * in half-link order. */
std::vector<ResourceId>
linksTouching(const Topology &topo, ComponentId id)
{
    std::vector<ResourceId> rids;
    for (std::size_t h = 0; h < topo.halfLinkCount(); ++h) {
        const HalfLink &hl = topo.halfLink(static_cast<HalfLinkId>(h));
        if ((hl.from == id || hl.to == id) &&
            std::find(rids.begin(), rids.end(), hl.resource) == rids.end())
            rids.push_back(hl.resource);
    }
    return rids;
}

/** The target namespaces, listed in every resolution error. */
constexpr const char *kTargetNamespaces =
    "valid target namespaces: rank<k> (GPU ranks), n<k> (nodes), "
    "n<k>.nic<j> (NICs), a link class (roce, nvlink, pcie-gpu, "
    "pcie-nic, pcie-nvme, xgmi, dram, nvme-media, iod) optionally "
    "scoped /n<k> or /rack<k>, rail<r> (NIC r's RoCE uplinks on "
    "every node), sw<j> (every link of switch j)";

} // namespace

FaultInjector::FaultInjector(Simulation &sim, Cluster &cluster,
                             FlowScheduler &flows, TransferManager &tm,
                             Executor &executor, AioEngine &aio,
                             FaultPlan plan)
    : sim_(sim), cluster_(cluster), flows_(flows), tm_(tm),
      executor_(executor), aio_(aio), plan_(std::move(plan))
{
    active_.resize(cluster_.topology().resourceCount());
    gpu_active_.resize(
        static_cast<std::size_t>(cluster_.spec().totalGpus()));
}

FaultInjector::Resolved
FaultInjector::resolve(const FaultEvent &ev) const
{
    using Scope = FaultTarget::Scope;
    std::string error;
    const std::optional<FaultTarget> target =
        parseFaultTarget(ev.kind, ev.target, &error);
    // arm() validated the plan, so only the indices are left to check.
    DSTRAIN_ASSERT(target.has_value(), "fault target '%s': %s",
                   ev.target.c_str(), error.c_str());
    const Topology &topo = cluster_.topology();
    Resolved r;
    switch (target->scope) {
      case Scope::Rail:
        // Rail r: the RoCE uplinks of NIC r on every node (on a
        // rail-optimized fabric that is exactly the rail switch's
        // edge set; on any other fabric it is the same NIC slot
        // across the cluster).
        for (std::size_t h = 0; h < topo.halfLinkCount(); ++h) {
            const HalfLink &hl = topo.halfLink(static_cast<HalfLinkId>(h));
            if (hl.cls != LinkClass::Roce)
                continue;
            const Component &from = topo.component(hl.from);
            const Component &to = topo.component(hl.to);
            const bool hit = (from.kind == ComponentKind::Nic &&
                              from.index == target->index) ||
                             (to.kind == ComponentKind::Nic &&
                              to.index == target->index);
            if (hit && std::find(r.rids.begin(), r.rids.end(),
                                 hl.resource) == r.rids.end()) {
                r.rids.push_back(hl.resource);
            }
        }
        if (r.rids.empty())
            fatal("fault target '%s': no NIC with index %d on any node "
                  "(%s)",
                  ev.target.c_str(), target->index, kTargetNamespaces);
        return r;
      case Scope::Switch: {
        // Switch j: every link touching it, trunks included.
        const ComponentId id =
            topo.findComponent(ComponentKind::Switch, -1, target->index);
        if (id == kNoComponent)
            fatal("fault target '%s': no such switch (%s)",
                  ev.target.c_str(), kTargetNamespaces);
        r.rids = linksTouching(topo, id);
        DSTRAIN_ASSERT(!r.rids.empty(), "switch '%s' has no links",
                       ev.target.c_str());
        return r;
      }
      case Scope::Class: {
        const int node = target->node;
        const int rack = target->rack;
        if (rack >= cluster_.fabric().rackCount())
            fatal("fault target '%s': no such rack (cluster has %d)",
                  ev.target.c_str(), cluster_.fabric().rackCount());
        for (const Resource &res : topo.resources()) {
            if (res.cls != target->cls)
                continue;
            if (node >= 0 && res.node != node)
                continue;
            // Rack scope: the fabric generator labels every node with
            // its rack; trunk resources (node -1) belong to no rack.
            if (rack >= 0 &&
                (res.node < 0 || cluster_.rackOfNode(res.node) != rack)) {
                continue;
            }
            r.rids.push_back(res.id);
        }
        if (r.rids.empty())
            fatal("fault target '%s' matches no link in this cluster "
                  "(%s)",
                  ev.target.c_str(), kTargetNamespaces);
        return r;
      }
      case Scope::Nic: {
        const ComponentId id = topo.findComponent(
            ComponentKind::Nic, target->node, target->index);
        if (id == kNoComponent)
            fatal("fault target '%s': no such NIC (%s)",
                  ev.target.c_str(), kTargetNamespaces);
        // Every link direction touching the NIC dies with it: the
        // PCIe attach and the RoCE uplink.
        r.rids = linksTouching(topo, id);
        DSTRAIN_ASSERT(!r.rids.empty(), "NIC '%s' has no links",
                       ev.target.c_str());
        return r;
      }
      case Scope::Rank:
        r.rank = target->index;
        if (r.rank >= cluster_.spec().totalGpus())
            fatal("fault target '%s': no such rank (cluster has %d; "
                  "%s)",
                  ev.target.c_str(), cluster_.spec().totalGpus(),
                  kTargetNamespaces);
        if (ev.kind == FaultKind::GpuDown) {
            // The dead GPU's attach links (NVLink + PCIe) go to zero:
            // anything still talking to it stalls until the abort
            // sweeps it away.
            r.rids = linksTouching(topo, cluster_.gpuByRank(r.rank));
            DSTRAIN_ASSERT(!r.rids.empty(), "rank %d has no links",
                           r.rank);
        }
        return r;
      case Scope::Node: {
        const int node = target->node;
        if (node >= cluster_.nodeCount())
            fatal("fault target '%s': no such node (cluster has %d; "
                  "%s)",
                  ev.target.c_str(), cluster_.nodeCount(),
                  kTargetNamespaces);
        if (ev.kind == FaultKind::NodeDown) {
            r.node = node;
            for (const Resource &res : topo.resources())
                if (res.node == node)
                    r.rids.push_back(res.id);
            DSTRAIN_ASSERT(!r.rids.empty(), "node %d has no resources",
                           node);
            return r;
        }
        r.nvme_node = node;
        for (const Resource &res : topo.resources()) {
            if (res.node == node && (res.cls == LinkClass::PcieNvme ||
                                     res.cls == LinkClass::NvmeMedia)) {
                r.rids.push_back(res.id);
            }
        }
        if (r.rids.empty())
            fatal("fault target '%s': node has no NVMe links",
                  ev.target.c_str());
        return r;
      }
    }
    fatal("unknown fault target scope %d",
          static_cast<int>(target->scope));
}

void
FaultInjector::arm()
{
    DSTRAIN_ASSERT(!armed_, "FaultInjector armed twice");
    armed_ = true;
    const std::vector<ConfigError> errors = plan_.validate();
    if (!errors.empty())
        fatal("invalid fault plan:\n%s",
              formatConfigErrors(errors).c_str());

    tm_.enableRetries();
    resolved_.reserve(plan_.events.size());
    impacts_.resize(plan_.events.size());
    snaps_.resize(plan_.events.size());
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
        resolved_.push_back(resolve(plan_.events[i]));
        impacts_[i].event = plan_.events[i];
    }
    // Event-storm coalescing: consecutive soft events firing at the
    // bitwise-same instant (a correlated failure sweeping several
    // domains at once) share one DES callback that applies them all
    // inside a scheduler batch — one region closure, one fair-share
    // solve for the whole storm instead of one per event. Hard faults
    // stay solo: their handler aborts the run, whose flow cancels
    // must apply at once rather than at a batch's flush, and must
    // observe exactly the pre-fault state.
    // The group occupies the first member's schedule position, so
    // same-timestamp FIFO order against other subsystems' events is
    // unchanged; restores keep their individual events.
    for (std::size_t i = 0; i < plan_.events.size();) {
        const FaultEvent &ev = plan_.events[i];
        std::size_t j = i + 1;
        if (!isHardFault(ev.kind)) {
            while (j < plan_.events.size() &&
                   plan_.events[j].begin == ev.begin &&
                   !isHardFault(plan_.events[j].kind)) {
                ++j;
            }
        }
        if (j - i == 1) {
            sim_.events().schedule(ev.begin, [this, i] { apply(i); });
        } else {
            sim_.events().schedule(ev.begin, [this, i, j] {
                FlowScheduler::ScopedBatch batch(flows_);
                for (std::size_t k = i; k < j; ++k)
                    apply(k);
            });
        }
        for (std::size_t k = i; k < j; ++k) {
            if (plan_.events[k].duration > 0.0) {
                sim_.events().schedule(
                    plan_.events[k].begin + plan_.events[k].duration,
                    [this, k] { restore(k); });
            }
        }
        i = j;
    }
}

void
FaultInjector::apply(std::size_t i)
{
    const FaultEvent &ev = plan_.events[i];
    const Resolved &r = resolved_[i];
    const SimTime now = sim_.now();
    const double fraction =
        (ev.kind == FaultKind::LinkFlap ||
         ev.kind == FaultKind::LinkDown ||
         ev.kind == FaultKind::NicFailover || isHardFault(ev.kind))
            ? 0.0
            : ev.fraction;

    impacts_[i].applied_at = now;
    const Topology &topo = cluster_.topology();
    for (ResourceId rid : r.rids) {
        Snapshot s;
        s.rid = rid;
        s.at_apply = topo.resource(rid).log.bytesThrough(now);
        snaps_[i].push_back(s);
        pushFraction(rid, fraction);
    }
    // One batched capacity update — and thus at most one fair-share
    // solve — for the whole failure domain (a switch or rail fault
    // can scale hundreds of links in one event).
    updateCapacities(r.rids);
    // Record the capacities that resulted (overlap-aware).
    for (std::size_t k = 0; k < r.rids.size(); ++k) {
        const Resource &res = topo.resource(r.rids[k]);
        LinkImpact li;
        li.label = res.label;
        li.nominal = res.nominal_capacity;
        li.faulted = res.capacity;
        impacts_[i].links.push_back(std::move(li));
    }

    if (isHardFault(ev.kind)) {
        // Hard failure: no restore is scheduled and no stranded-flow
        // scan runs — the recovery manager aborts the whole iteration
        // and drives the rest.
        inform("hard fault: %s at t=%s", ev.str().c_str(),
               formatTime(now).c_str());
        if (!hard_handler_) {
            fatal("hard fault '%s' but no recovery is configured "
                  "(enable a checkpoint policy)",
                  ev.str().c_str());
        }
        hard_handler_(i);
        return;
    }

    if (r.rank >= 0) {
        gpu_active_[static_cast<std::size_t>(r.rank)].push_back(
            ev.fraction);
        updateGpu(r.rank);
    }
    if (r.nvme_node >= 0) {
        nvme_active_.push_back(ev.fraction);
        updateNvmeLatency();
    }
    if (!r.rids.empty())
        tm_.notifyCapacityChange();

    inform("fault: %s at t=%s", ev.str().c_str(),
           formatTime(now).c_str());
}

void
FaultInjector::restore(std::size_t i)
{
    const FaultEvent &ev = plan_.events[i];
    const Resolved &r = resolved_[i];
    const SimTime now = sim_.now();
    const double fraction =
        (ev.kind == FaultKind::LinkFlap ||
         ev.kind == FaultKind::NicFailover)
            ? 0.0
            : ev.fraction;

    impacts_[i].restored_at = now;
    impacts_[i].restored = true;
    const Topology &topo = cluster_.topology();
    for (Snapshot &s : snaps_[i])
        s.at_restore = topo.resource(s.rid).log.bytesThrough(now);
    for (ResourceId rid : r.rids)
        popFraction(rid, fraction);
    updateCapacities(r.rids);

    if (r.rank >= 0) {
        auto &v = gpu_active_[static_cast<std::size_t>(r.rank)];
        v.erase(std::find(v.begin(), v.end(), ev.fraction));
        updateGpu(r.rank);
    }
    if (r.nvme_node >= 0) {
        nvme_active_.erase(std::find(nvme_active_.begin(),
                                     nvme_active_.end(), ev.fraction));
        updateNvmeLatency();
    }
    if (!r.rids.empty())
        tm_.notifyCapacityChange();

    inform("fault cleared: %s at t=%s", ev.str().c_str(),
           formatTime(now).c_str());
}

void
FaultInjector::restoreHard(std::size_t i)
{
    const FaultEvent &ev = plan_.events[i];
    DSTRAIN_ASSERT(isHardFault(ev.kind),
                   "restoreHard on soft fault '%s'", ev.str().c_str());
    DSTRAIN_ASSERT(!impacts_[i].restored, "hard fault restored twice");
    const Resolved &r = resolved_[i];
    const SimTime now = sim_.now();

    impacts_[i].restored_at = now;
    impacts_[i].restored = true;
    const Topology &topo = cluster_.topology();
    for (Snapshot &s : snaps_[i])
        s.at_restore = topo.resource(s.rid).log.bytesThrough(now);
    for (ResourceId rid : r.rids)
        popFraction(rid, 0.0);
    updateCapacities(r.rids);

    inform("hardware replaced: %s healthy at t=%s", ev.target.c_str(),
           formatTime(now).c_str());
}

void
FaultInjector::pushFraction(ResourceId rid, double fraction)
{
    active_[static_cast<std::size_t>(rid)].push_back(fraction);
}

void
FaultInjector::popFraction(ResourceId rid, double fraction)
{
    auto &v = active_[static_cast<std::size_t>(rid)];
    auto it = std::find(v.begin(), v.end(), fraction);
    DSTRAIN_ASSERT(it != v.end(), "restore without matching apply");
    v.erase(it);
}

void
FaultInjector::updateCapacities(const std::vector<ResourceId> &rids)
{
    if (rids.empty())
        return;
    // Re-derive each target capacity from the active fault fractions
    // (min across overlapping windows), then hand the whole set to
    // the scheduler in one call: one capacity_updates count, one
    // fair-share solve.
    cap_batch_.clear();
    const Topology &topo = cluster_.topology();
    for (ResourceId rid : rids) {
        double fraction = 1.0;
        for (double f : active_[static_cast<std::size_t>(rid)])
            fraction = std::min(fraction, f);
        cap_batch_.emplace_back(
            rid, topo.resource(rid).nominal_capacity * fraction);
    }
    flows_.setCapacities(cap_batch_);
    if (resilience_ != nullptr)
        resilience_->onTopologyChange();
}

void
FaultInjector::updateGpu(int rank)
{
    double fraction = 1.0;
    for (double f : gpu_active_[static_cast<std::size_t>(rank)])
        fraction = std::min(fraction, f);
    executor_.setGpuSpeedFactor(rank, fraction);
}

void
FaultInjector::updateNvmeLatency()
{
    double fraction = 1.0;
    for (double f : nvme_active_)
        fraction = std::min(fraction, f);
    aio_.setLatencyFactor(1.0 / fraction);
}

void
FaultInjector::finalize(SimTime measured_begin, SimTime measured_end)
{
    const Topology &topo = cluster_.topology();
    for (std::size_t i = 0; i < impacts_.size(); ++i) {
        FaultImpact &im = impacts_[i];
        // Warm-up truncation resets the byte counters at the
        // measurement boundary, so baselines taken before it are
        // meaningless: report averages only for in-window faults.
        if (im.applied_at < measured_begin ||
            im.applied_at >= measured_end) {
            continue;
        }
        const SimTime t0 = im.applied_at;
        const SimTime t1 = im.restored
                               ? std::min(im.restored_at, measured_end)
                               : measured_end;
        for (std::size_t k = 0; k < snaps_[i].size(); ++k) {
            const Snapshot &s = snaps_[i][k];
            LinkImpact &li = im.links[k];
            const Bytes total = topo.resource(s.rid).log.totalBytes();
            if (t0 > measured_begin)
                li.avg_before = s.at_apply / (t0 - measured_begin);
            const Bytes during_end =
                im.restored ? s.at_restore : total;
            if (t1 > t0)
                li.avg_during = (during_end - s.at_apply) / (t1 - t0);
            if (im.restored && im.restored_at < measured_end) {
                li.avg_after = (total - s.at_restore) /
                               (measured_end - im.restored_at);
            }
        }
    }
}

} // namespace dstrain
