/**
 * @file
 * Implementation of the collective engine: algorithm resolution,
 * channel splitting and round-by-round flow execution.
 */

#include "collectives/communicator.hh"

#include <algorithm>
#include <memory>
#include <numeric>

#include "collectives/algorithms.hh"
#include "collectives/topology_view.hh"
#include "collectives/volume.hh"
#include "net/resilience.hh"
#include "util/logging.hh"

namespace dstrain {

CommGroup
CommGroup::worldOf(int n)
{
    CommGroup g;
    g.ranks.resize(static_cast<std::size_t>(n));
    std::iota(g.ranks.begin(), g.ranks.end(), 0);
    return g;
}

const char *
collectiveOpName(CollectiveOp op)
{
    switch (op) {
      case CollectiveOp::AllReduce:
        return "all-reduce";
      case CollectiveOp::ReduceScatter:
        return "reduce-scatter";
      case CollectiveOp::AllGather:
        return "all-gather";
      case CollectiveOp::Broadcast:
        return "broadcast";
      case CollectiveOp::Reduce:
        return "reduce";
      case CollectiveOp::AllToAll:
        return "all-to-all";
    }
    panic("unknown CollectiveOp %d", static_cast<int>(op));
}

const char *
collectiveAlgoName(CollectiveAlgo algo)
{
    switch (algo) {
      case CollectiveAlgo::Auto:
        return "auto";
      case CollectiveAlgo::Ring:
        return "ring";
      case CollectiveAlgo::Pairwise:
        return "pairwise";
      case CollectiveAlgo::Tree:
        return "tree";
      case CollectiveAlgo::Hierarchical:
        return "hierarchical";
    }
    panic("unknown CollectiveAlgo %d", static_cast<int>(algo));
}

CollectiveEngine::CollectiveEngine(TransferManager &tm)
    : tm_(tm)
{
}

HopEdge
CollectiveEngine::edge(int src_rank, int dst_rank, std::size_t channel,
                       bool pin) const
{
    Cluster &cl = tm_.cluster();
    HopEdge e;
    e.src = cl.gpuByRank(src_rank);
    e.dst = cl.gpuByRank(dst_rank);
    const int src_node = cl.nodeOfRank(src_rank);
    const int dst_node = cl.nodeOfRank(dst_rank);
    if (pin && src_node != dst_node) {  // intra-node hops take NVLink
        const auto &src_nics = cl.node(src_node).nics;
        const auto &dst_nics = cl.node(dst_node).nics;
        DSTRAIN_ASSERT(!src_nics.empty() && !dst_nics.empty(),
                       "nodes %d/%d lack NICs", src_node, dst_node);
        e.via = {src_nics[channel % src_nics.size()],
                 dst_nics[channel % dst_nics.size()]};
        e.vias = 2;
    }
    e.route =
        &cl.router().routeThrough(e.src, e.waypoints(), e.dst, channel);
    return e;
}

/**
 * One collective invocation in flight. Every channel walks the same
 * schedule (it is pure and takes no channel) with its own cursor:
 * round i is produced on demand and launches when all of round i-1's
 * hops on that channel land, and the caller's callback fires when the
 * last channel finishes its last round.
 *
 * A ring reuses the same n edges in every round, so each channel
 * remembers per hop index the edge with its pinned route (the edge
 * table): a ring's edge resolves once per invocation, and again after
 * the router flushes its route caches.
 *
 * A round starts with one TransferManager::startHops() call, which
 * gives each distinct launch time one launch event. On the fault-free
 * path the hops of one launch time are a hop set, whose equal,
 * resource-disjoint hops the scheduler runs as one hop class; hopDone(c,
 * k) takes the k hops that landed at once. With retries enabled (the
 * fault path) every hop is a transfer with an id, and with
 * resilience attached a per-round progress watchdog (the
 * NCCL-watchdog model) rescues rounds stranded on a dead route:
 * stalled hops are cancelled byte-conservingly and relaunched, by a
 * one-hop startHops() call, with the undelivered remainder once
 * routing has reconverged — completed rounds never re-run. Without
 * retries no hop has an id to rescue, so no watchdog is armed.
 *
 * Every hop's completion is a copy of one callable capturing only
 * (this, channel), so it allocates nothing; the hop's transfer holds
 * the runner through its keepalive.
 *
 * Ownership: each transfer in flight (through its keepalive) and
 * each scheduled callback (armed watchdogs, deferred settles,
 * reconvergence relaunches) holds a shared_ptr to the runner, and
 * nothing else does, so the runner is freed with its last holder —
 * after completion, or once abortAll() releases the transfers and
 * their keepalives mid-operation.
 */
class CollectiveEngine::RoundRunner
    : public std::enable_shared_from_this<RoundRunner>
{
  public:
    RoundRunner(CollectiveEngine &eng, CollectiveSchedule schedule,
                int channels, bool pin, double bw_factor, TagId tag,
                Callback on_done)
        : eng_(eng), schedule_(std::move(schedule)),
          cursors_(static_cast<std::size_t>(channels)), pin_(pin),
          bw_factor_(bw_factor), tag_(tag),
          on_done_(std::move(on_done)), channels_left_(channels)
    {
        ResilienceCoordinator *rc = eng.resilience_;
        if (rc != nullptr && rc->config().collective_timeout > 0.0 &&
            eng.tm_.retriesEnabled())
            rc_ = rc;
    }

    RoundRunner(const RoundRunner &) = delete;
    RoundRunner &operator=(const RoundRunner &) = delete;

    /** Launch round 0 on each channel in turn. */
    void
    start()
    {
        for (std::size_t c = 0; c < cursors_.size(); ++c)
            startRound(c);
    }

  private:
    /** Watchdog rescues per channel before the watchdog gives up and
     * lets the remaining flows park (they resume if the fault
     * restores): bounds watchdog work on a partitioned fabric. */
    static constexpr int kMaxResumes = 16;

    /** One channel's position in the shared schedule. */
    struct Cursor {
        std::size_t next_round = 0;
        int outstanding = 0;
        /** The round in flight (produced on demand). */
        CollectiveRound hops;
        /** The edge table: per hop index, the edge it had last round.
         * A ring repeats its round, so every edge resolves once per
         * invocation; a schedule whose edges move (pairwise) resolves
         * through the router's route cache. */
        std::vector<HopEdge> edges;
        /** Transfer ids of the current round (retry path; 0 once a
         * watchdog cancelled the hop). */
        std::vector<std::uint64_t> xids;
        /** Bumped per round launch: stale watchdog events bail. */
        std::uint64_t round_gen = 0;
        /** Watchdog rescues performed on this channel. */
        int resumes = 0;
    };

    /** Launch channel @p c's next round, or finish the channel. */
    void
    startRound(std::size_t c)
    {
        Cursor &cur = cursors_[c];
        if (cur.next_round >= schedule_.size()) {
            if (--channels_left_ == 0) {
                ++eng_.completed_;
                if (on_done_)
                    on_done_();
            }
            return;
        }
        schedule_.round(cur.next_round++, cur.hops);
        cur.outstanding = static_cast<int>(cur.hops.size());
        ++cur.round_gen;
        const Cluster &cl = eng_.tm_.cluster();
        // A route-cache flush may move any edge: resolve afresh.
        const std::uint64_t flushes = cl.router().cacheInvalidations();
        if (flushes != edge_flushes_) {
            for (Cursor &other : cursors_)
                other.edges.clear();
            edge_flushes_ = flushes;
        }
        if (cur.edges.size() < cur.hops.size())
            cur.edges.resize(cur.hops.size());
        for (std::size_t i = 0; i < cur.hops.size(); ++i) {
            const CollectiveHop &hop = cur.hops[i];
            HopEdge &e = cur.edges[i];
            if (e.src != cl.gpuByRank(hop.src_rank) ||
                e.dst != cl.gpuByRank(hop.dst_rank))
                e = eng_.edge(hop.src_rank, hop.dst_rank, c, pin_);
        }
        cur.xids.resize(cur.hops.size());
        // Every hop of a round carries the same bytes.
        launch(c, std::span(cur.edges).first(cur.hops.size()),
               cur.hops.front().bytes, cur.xids);
        if (rc_ != nullptr)
            armWatchdog(c);
    }

    /** Start @p edges of channel @p c's round, @p bytes each. */
    void
    launch(std::size_t c, std::span<const HopEdge> edges, Bytes bytes,
           std::span<std::uint64_t> xids)
    {
        TransferOptions opts;
        opts.rate_factor = bw_factor_;
        // On multipath fabrics, ECMP spreads the channels over the
        // equal-cost trunks (deterministically); reroutes keep it.
        opts.flow_key = c;
        opts.tag = tag_;
        opts.keepalive = shared_from_this();
        eng_.tm_.startHops(edges, bytes,
                           [this, c](std::uint32_t n) { hopDone(c, n); },
                           std::move(opts), xids);
    }

    /** @p n hops of channel @p c's current round landed. */
    void
    hopDone(std::size_t c, std::uint32_t n)
    {
        cursors_[c].outstanding -= static_cast<int>(n);
        if (cursors_[c].outstanding == 0)
            startRound(c);
    }

    /** Check channel @p c's current round after the timeout. */
    void
    armWatchdog(std::size_t c)
    {
        TransferManager &tm = eng_.tm_;
        tm.sim().events().scheduleAfter(
            rc_->config().collective_timeout,
            [self = shared_from_this(), c,
             gen = cursors_[c].round_gen, epoch = tm.abortEpoch()] {
                self->watchdog(c, gen, epoch);
            });
    }

    /** The watchdog body for the (round, abort epoch) it was armed for. */
    void
    watchdog(std::size_t c, std::uint64_t gen, std::uint64_t epoch)
    {
        TransferManager &tm = eng_.tm_;
        Cursor &cur = cursors_[c];
        if (epoch != tm.abortEpoch())
            return;  // hard-fault abort killed this attempt
        if (gen != cur.round_gen || cur.outstanding == 0)
            return;  // the round completed; a new watchdog owns the next
        bool rescued = false;
        if (cur.resumes < kMaxResumes) {
            for (std::size_t i = 0; i < cur.xids.size(); ++i) {
                if (cur.xids[i] == 0 || !tm.transferStalled(cur.xids[i]))
                    continue;
                // Byte-conserving round resume: the stalled hop's
                // delivered bytes stay delivered, only the remainder
                // relaunches — after routing has reconverged, so the
                // fresh transfer resolves around the cut.
                const Bytes rem = tm.cancelTransfer(cur.xids[i]);
                cur.xids[i] = 0;
                rescued = true;
                if (rem <= 0.0) {
                    // Everything had landed; the cancelled callback
                    // never fires, so settle the hop as a completion
                    // (deferred: advancing mid-loop would launch the
                    // next round while hops are still under review).
                    tm.sim().events().scheduleAfter(
                        0.0, [self = shared_from_this(), c] {
                            self->hopDone(c, 1);
                        });
                    continue;
                }
                tm.sim().events().schedule(
                    rc_->reconvergedAt(),
                    [self = shared_from_this(), c, i, gen, epoch, rem] {
                        if (epoch == self->eng_.tm_.abortEpoch() &&
                            gen == self->cursors_[c].round_gen)
                            self->relaunchHop(c, i, rem);
                    });
            }
        }
        if (rescued) {
            ++rc_->stats().collective_timeouts;
            ++cur.resumes;
        }
        if (cur.outstanding > 0 && cur.resumes < kMaxResumes)
            armWatchdog(c);
    }

    /**
     * Relaunch hop @p i of channel @p c's round with the @p bytes it
     * has left, on its edge resolved afresh: routing has reconverged
     * since the round resolved it.
     */
    void
    relaunchHop(std::size_t c, std::size_t i, Bytes bytes)
    {
        Cursor &cur = cursors_[c];
        const CollectiveHop &hop = cur.hops[i];
        const HopEdge e = eng_.edge(hop.src_rank, hop.dst_rank, c, pin_);
        launch(c, {&e, 1}, bytes, {&cur.xids[i], 1});
    }

    CollectiveEngine &eng_;
    /** The invocation's schedule, shared by every channel. */
    const CollectiveSchedule schedule_;
    std::vector<Cursor> cursors_;
    bool pin_;
    double bw_factor_;
    TagId tag_;  ///< interned once per invocation
    Callback on_done_;
    int channels_left_;
    /** Watchdog coordinator; nullptr while the watchdog is off (no
     * resilience, no timeout, or no retries). */
    ResilienceCoordinator *rc_ = nullptr;
    /** Router cache flushes the edge tables were resolved under. */
    std::uint64_t edge_flushes_ = 0;
};

void
CollectiveEngine::markRanksDead(const std::vector<int> &ranks)
{
    if (ranks.empty())
        return;
    dead_ranks_.insert(dead_ranks_.end(), ranks.begin(), ranks.end());
    std::sort(dead_ranks_.begin(), dead_ranks_.end());
    dead_ranks_.erase(
        std::unique(dead_ranks_.begin(), dead_ranks_.end()),
        dead_ranks_.end());
    // One elastic communicator-shrink event; per-group reforms are
    // counted again as they happen in runOp.
    if (resilience_ != nullptr)
        ++resilience_->stats().comm_shrinks;
}

bool
CollectiveEngine::rankDead(int rank) const
{
    return std::binary_search(dead_ranks_.begin(), dead_ranks_.end(),
                              rank);
}

bool
CollectiveEngine::hierarchicalDomainCut(const CommGroup &group) const
{
    Cluster &cl = tm_.cluster();
    const Topology &topo = cl.topology();
    std::vector<std::uint8_t> involved(
        static_cast<std::size_t>(cl.nodeCount()), 0);
    for (const int r : group.ranks)
        involved[static_cast<std::size_t>(cl.nodeOfRank(r))] = 1;
    for (const Resource &res : topo.resources()) {
        if (res.cls != LinkClass::NvLink || res.node < 0)
            continue;
        if (involved[static_cast<std::size_t>(res.node)] &&
            res.capacity <= 0.0)
            return true;
    }
    return false;
}

void
CollectiveEngine::recordUsage(CollectiveOp op, CollectiveAlgo algo,
                              int n, Bytes bytes)
{
    for (CollectiveUsage &u : usage_) {
        if (u.op == op && u.algo == algo) {
            ++u.invocations;
            u.payload_bytes += bytes;
            u.fabric_bytes += collectiveTotalVolume(op, n, bytes);
            return;
        }
    }
    CollectiveUsage u;
    u.op = op;
    u.algo = algo;
    u.invocations = 1;
    u.payload_bytes = bytes;
    u.fabric_bytes = collectiveTotalVolume(op, n, bytes);
    usage_.push_back(u);
}

void
CollectiveEngine::runOp(CollectiveOp op, const CommGroup &group,
                        int root, Bytes bytes, CollectiveOptions opts,
                        Callback on_done)
{
    const std::string kind = collectiveOpName(op);
    DSTRAIN_ASSERT(group.size() >= 2, "%s needs >= 2 ranks (got %d)",
                   kind.c_str(), group.size());
    const TopologyView view(tm_.cluster());

    // Elastic communicator shrink: reform the group over survivors
    // before the algorithm resolves, so a strategy that still names
    // a lost rank degrades instead of panicking inside the schedule.
    CommGroup live = group;
    if (resilience_ != nullptr && !dead_ranks_.empty()) {
        std::vector<int> alive;
        alive.reserve(live.ranks.size());
        for (const int r : live.ranks)
            if (!rankDead(r))
                alive.push_back(r);
        if (alive.size() != live.ranks.size()) {
            ++resilience_->stats().comm_shrinks;
            live.ranks = std::move(alive);
        }
    }
    if (live.size() < 2) {
        // Degenerate post-shrink group: a lone survivor has nothing
        // to exchange. Complete asynchronously (callers expect the
        // callback after, not during, the invocation).
        if (on_done)
            tm_.sim().events().scheduleAfter(0.0, std::move(on_done));
        return;
    }
    if (root >= 0 && rankDead(root))
        root = live.ranks.front();

    const int channels = resolveChannels(live, opts.channels, view);

    const CollectiveAlgo requested =
        opts.algorithm != CollectiveAlgo::Auto ? opts.algorithm
                                               : spec_.requestedFor(op);
    CollectiveAlgo algo =
        resolveCollectiveAlgorithm(op, live, bytes, requested, view);
    if (resilience_ != nullptr) {
        // Degraded-schedule fallback: an algorithm whose structural
        // assumption is cut re-resolves deterministically through
        // the Auto policy's universal fallbacks (all-to-all ->
        // pairwise, everything else -> ring). Tree's pow2 assumption
        // after rank loss resolves inside resolveCollectiveAlgorithm
        // (the shrunk group fails supports()); hierarchical's
        // intra-node NVLink domain is checked here because the
        // schedule, not the group shape, depends on it.
        CollectiveAlgo degraded = algo;
        if (degraded == CollectiveAlgo::Hierarchical &&
            hierarchicalDomainCut(live)) {
            degraded = op == CollectiveOp::AllToAll
                           ? CollectiveAlgo::Pairwise
                           : CollectiveAlgo::Ring;
        }
        const bool shrunk = live.size() != group.size();
        const CollectiveAlgo healthy =
            shrunk ? resolveCollectiveAlgorithm(op, group, bytes,
                                                requested, view)
                   : algo;
        if (degraded != healthy)
            ++resilience_->stats().collective_fallbacks;
        algo = degraded;
    }
    const CollectiveAlgorithm &impl = collectiveAlgorithm(algo);
    recordUsage(op, algo, live.size(), bytes);

    std::make_shared<RoundRunner>(
        *this, impl.schedule(op, live, bytes / channels, root, view),
        channels, opts.pin_channels_to_nics, opts.bandwidth_factor,
        tm_.internTag(opts.tag.empty() ? kind : opts.tag + "/" + kind),
        std::move(on_done))
        ->start();
}

void
CollectiveEngine::reduceScatter(const CommGroup &group, Bytes bytes,
                                Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::ReduceScatter, group, -1, bytes,
          std::move(opts), std::move(on_done));
}

void
CollectiveEngine::allGather(const CommGroup &group, Bytes bytes,
                            Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::AllGather, group, -1, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::allReduce(const CommGroup &group, Bytes bytes,
                            Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::AllReduce, group, -1, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::broadcast(const CommGroup &group, int root, Bytes bytes,
                            Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::Broadcast, group, root, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::reduce(const CommGroup &group, int root, Bytes bytes,
                         Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::Reduce, group, root, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::allToAll(const CommGroup &group, Bytes bytes,
                           Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::AllToAll, group, -1, bytes, std::move(opts),
          std::move(on_done));
}

} // namespace dstrain
