/**
 * @file
 * Workload generators. See workloads.hh and perfbench/README.md.
 */

#include "workloads.hh"

#include <algorithm>

#include "core/config_args.hh"
#include "core/presets.hh"
#include "strategies/strategy.hh"
#include "util/logging.hh"

using namespace dstrain;

namespace perfbench {

namespace {

/** splitmix64: a small, fully specified generator, so a seed means the
 * same batch on every platform and standard library. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

std::string
fmt(double v)
{
    return csprintf("%g", v);
}

// --- testbed_sweep ------------------------------------------------------

/** Iterations per testbed point: warm-up 2, measured 2. */
constexpr int kTestbedIterations = 4;

/** Fixed ladder sizes run beside the largest fit (0). */
const std::vector<double> kTestbedSizes = {0.0, 1.4, 6.6};

const std::vector<std::string> kNvmeStrategies = {"zero3-nvme",
                                                  "zero3-nvme-params"};

/** Soft-fault variants drawn per 2-node base point. */
constexpr std::size_t kSoftVariantsPerBase = 3;

Point
testbedPoint(int nodes, const std::string &name, double billions)
{
    Point p;
    p.key = csprintf("n%d/%s/%s", nodes, name.c_str(),
                     billions > 0.0 ? fmt(billions).c_str() : "fit");
    p.config = paperExperiment(nodes, *parseStrategyName(name), billions);
    p.config.iterations = kTestbedIterations;
    return p;
}

/** Every clean testbed point: strategies x nodes x sizes, then the
 * ZeRO-Infinity NVMe placements A-H on one node. */
std::vector<Point>
testbedCleanPoints()
{
    std::vector<Point> points;
    for (int nodes : {1, 2})
        for (const std::string &name : Strategy::names())
            for (double billions : kTestbedSizes)
                points.push_back(testbedPoint(nodes, name, billions));
    for (const std::string &name : kNvmeStrategies) {
        for (char letter = 'A'; letter <= 'H'; ++letter) {
            Point p = testbedPoint(1, name, 0.0);
            p.key += csprintf("/pl=%c", letter);
            p.config.placement = nvmePlacementConfig(letter);
            points.push_back(std::move(p));
        }
    }
    return points;
}

/** The 2-node largest-fit points: the bases fault variants aim at. */
std::vector<Point>
testbedBases()
{
    std::vector<Point> bases;
    for (const std::string &name : Strategy::names())
        bases.push_back(testbedPoint(2, name, 0.0));
    return bases;
}

/**
 * The soft-fault menu of one 2-node base: on either node, a RoCE
 * degrade, a RoCE flap, one NIC down (its twin carries the traffic) or
 * a straggler GPU, each at two begin times and two lengths inside the
 * measured window.
 */
std::vector<Point>
softVariants(const Point &base)
{
    std::vector<Point> out;
    for (int node : {0, 1}) {
        const std::vector<WindowFault> kinds = {
            {FaultKind::LinkDegrade, csprintf("roce/n%d", node), 0, 0, 0.25},
            {FaultKind::LinkFlap, csprintf("roce/n%d", node), 0, 0, 0.0},
            {FaultKind::NicFailover, csprintf("n%d.nic1", node), 0, 0, 0.0},
            {FaultKind::GpuStraggler, csprintf("rank%d", 4 * node + 1), 0,
             0, 0.5},
        };
        for (const WindowFault &kind : kinds) {
            for (double begin : {0.2, 0.5}) {
                for (double duration : {0.2, 0.4}) {
                    Point p = base;
                    WindowFault f = kind;
                    f.begin = begin;
                    f.duration = duration;
                    p.faults = {f};
                    p.base = base.key;
                    p.key = base.key + " | " + f.str();
                    out.push_back(std::move(p));
                }
            }
        }
    }
    return out;
}

/** Strategies elastic recovery can re-plan onto one surviving node. */
bool
elasticCapable(const StrategyConfig &s)
{
    return s.modelParallelSize() <= 4;
}

/**
 * The recovery menu of one 2-node base: checkpoint every iteration,
 * then either node dies at one of two points of the window, under
 * restart or (where the strategy fits one node) elastic recovery.
 */
std::vector<Point>
recoveryVariants(const Point &base)
{
    std::vector<Point> out;
    std::vector<RecoveryPolicyKind> policies = {RecoveryPolicyKind::Restart};
    if (elasticCapable(base.config.strategy))
        policies.push_back(RecoveryPolicyKind::Elastic);
    for (RecoveryPolicyKind policy : policies) {
        for (int node : {0, 1}) {
            for (double begin : {0.3, 0.6}) {
                Point p = base;
                std::vector<ConfigError> errors;
                p.config.recovery.checkpoint =
                    parseCheckpointSpec("1i", &errors);
                p.config.recovery.policy = policy;
                WindowFault f{FaultKind::NodeDown, csprintf("n%d", node),
                              begin, 0.0, 0.0};
                p.faults = {f};
                p.base = base.key;
                p.key = base.key + csprintf(" | ckpt=1i %s ",
                                            recoveryPolicyName(policy)) +
                        f.str();
                out.push_back(std::move(p));
            }
        }
    }
    return out;
}

/** Draw @p k distinct entries of @p menu. */
std::vector<Point>
draw(std::vector<Point> menu, std::size_t k, Rng &rng)
{
    rng.shuffle(menu);
    menu.resize(std::min(k, menu.size()));
    return menu;
}

Workload
testbedSweep(std::uint64_t seed, bool menu)
{
    Workload w;
    w.name = "testbed_sweep";
    w.probe_cluster = xe8545Cluster(2);
    const int ranks = w.probe_cluster.totalGpus();
    for (int a = 0; a < ranks; ++a)
        for (int b = 0; b < ranks; ++b)
            if (a != b)
                w.hop_pairs.emplace_back(a, b);

    Rng rng(seed);
    std::vector<Point> clean = testbedCleanPoints();
    std::vector<Point> variants;
    for (const Point &base : testbedBases()) {
        std::vector<Point> soft = softVariants(base);
        std::vector<Point> recovery = recoveryVariants(base);
        if (!menu) {
            soft = draw(std::move(soft), kSoftVariantsPerBase, rng);
            recovery = draw(std::move(recovery), 1, rng);
        }
        for (Point &p : soft)
            variants.push_back(std::move(p));
        for (Point &p : recovery)
            variants.push_back(std::move(p));
    }
    if (!menu) {
        rng.shuffle(clean);
        rng.shuffle(variants);
    }
    // Variants aim at their base's measured window, so every clean
    // point runs first.
    w.points = std::move(clean);
    for (Point &p : variants)
        w.points.push_back(std::move(p));
    return w;
}

// --- fabric workloads ---------------------------------------------------

ExperimentConfig
fabricConfig(int nodes, const std::string &strategy,
             const std::string &fabric)
{
    ExperimentConfig cfg =
        paperExperiment(nodes, *parseStrategyName(strategy), 6.6);
    std::vector<ConfigError> errors;
    cfg.cluster.fabric = parseFabricSpec(fabric, &errors);
    if (!errors.empty())
        fatal("%s", formatConfigErrors(errors).c_str());
    cfg.iterations = 3;
    return cfg;
}

/**
 * FSDP on 32 ranks of a three-tier fat-tree (k=4: 4 pods, 4 cores; the
 * 8 nodes fill two pods, so ring hops cross the core). 64 and 128 ranks
 * show the same regime (2-flow regions, per-flow cost) but take 2-14 s
 * a run, and on a shared host a run that long is rarely free of other
 * tenants' load, so its fastest passes still drift (perfbench/README.md).
 */
Workload
fabricRing()
{
    Workload w;
    w.name = "fabric_ring";
    Point p;
    p.key = "n8/fsdp/6.6/fat-tree:k=4";
    p.config = fabricConfig(8, "fsdp", "fat-tree:k=4");
    w.probe_cluster = p.config.cluster;
    const int ranks = w.probe_cluster.totalGpus();
    for (int r = 0; r < ranks; ++r)
        w.hop_pairs.emplace_back(r, (r + 1) % ranks);
    w.points.push_back(std::move(p));
    return w;
}

/** Nodes of the contended point: both edge switches of one pod. */
constexpr int kContendedNodes = 4;

/**
 * The clean measured window of the contended point (iterations 3,
 * warm-up 2): the faults land inside it.
 */
constexpr double kContendedWindowBegin = 6.3457;
constexpr double kContendedWindowEnd = 9.5186;

/**
 * One contended plan: rail @p rail dies for good (its twin rail
 * survives), node @p node's RoCE degrades to a quarter, and the node
 * opposite it flaps, all inside the measured window.
 */
Point
contendedPoint(int rail, int node)
{
    Point p;
    p.config = fabricConfig(kContendedNodes, "moe",
                            "fat-tree:k=4,oversub=4");
    p.config.resilience.enabled = true;
    const int opposite = (node + kContendedNodes / 2) % kContendedNodes;
    p.faults = {
        {FaultKind::LinkDown, csprintf("rail%d", rail), 0.15, 0.0, 0.0},
        {FaultKind::LinkDegrade, csprintf("roce/n%d", node), 0.25, 0.3,
         0.25},
        {FaultKind::LinkFlap, csprintf("roce/n%d", opposite), 0.5, 0.1,
         0.0},
    };
    p.window = {kContendedWindowBegin, kContendedWindowEnd};
    p.key = csprintf("n%d/moe/6.6/fat-tree:k=4,oversub=4/resilience",
                     kContendedNodes);
    for (const WindowFault &f : p.faults)
        p.key += " | " + f.str();
    return p;
}

Workload
fabricContended(std::uint64_t seed, bool menu)
{
    Workload w;
    w.name = "fabric_contended";
    Rng rng(seed);
    if (menu) {
        for (int rail : {0, 1})
            for (int node = 0; node < kContendedNodes; ++node)
                w.points.push_back(contendedPoint(rail, node));
    } else {
        const int rail = static_cast<int>(rng.below(2));
        const int node = static_cast<int>(rng.below(kContendedNodes));
        w.points.push_back(contendedPoint(rail, node));
    }
    w.probe_cluster = w.points.front().config.cluster;
    const int ranks = w.probe_cluster.totalGpus();
    for (int a = 0; a < ranks; ++a)
        for (int b = 0; b < ranks; ++b)
            if (a != b)
                w.hop_pairs.emplace_back(a, b);
    return w;
}

Workload
generate(const std::string &name, std::uint64_t seed, bool menu)
{
    if (name == "testbed_sweep")
        return testbedSweep(seed, menu);
    if (name == "fabric_ring")
        return fabricRing();
    if (name == "fabric_contended")
        return fabricContended(seed, menu);
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace

std::string
WindowFault::str() const
{
    std::string out = csprintf("%s:%s", faultKindName(kind), target.c_str());
    if (kind == FaultKind::LinkDegrade || kind == FaultKind::GpuStraggler)
        out += ":" + fmt(fraction);
    out += "@" + fmt(begin);
    if (duration > 0.0)
        out += "+" + fmt(duration);
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "testbed_sweep", "fabric_ring", "fabric_contended"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    return generate(name, seed, false);
}

Workload
menuOf(const std::string &name)
{
    return generate(name, 0, true);
}

FaultPlan
placeFaults(const std::vector<WindowFault> &faults, double begin,
            double end)
{
    FaultPlan plan;
    const double width = end - begin;
    for (const WindowFault &f : faults) {
        FaultEvent e;
        e.kind = f.kind;
        e.target = f.target;
        e.begin = begin + f.begin * width;
        e.duration = f.duration * width;
        e.fraction = f.fraction;
        plan.events.push_back(std::move(e));
    }
    return plan;
}

} // namespace perfbench
