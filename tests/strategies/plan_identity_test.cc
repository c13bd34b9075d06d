/**
 * @file
 * Plan-identity oracle: every strategy must emit exactly the task
 * graph pinned below, field for field.
 *
 * Each constant is the FNV-1a-64 hash (as the report goldens use) of
 * a canonical dump of every PlanTask field — doubles printed with %a,
 * so the dump is bit-exact — over one sweep of plan contexts: 1- and
 * 2-node clusters, 3 and 26 layers, NVMe placements B and H, and five
 * PlanTuning variants. A mismatch means a builder moved a task, a
 * dependency, a label or a byte; a refactor of the builders must keep
 * every constant.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "strategies/strategy.hh"

namespace dstrain {
namespace {

/** Incremental FNV-1a-64 over the canonical dump. */
class PlanHasher
{
  public:
    void
    text(const std::string &s)
    {
        for (const unsigned char c : s) {
            h_ ^= c;
            h_ *= 1099511628211ull;
        }
        h_ ^= '|';
        h_ *= 1099511628211ull;
    }

    void integer(long long v) { text(std::to_string(v)); }

    void
    real(double v)
    {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%a", v);
        text(buf);
    }

    void
    task(const PlanTask &t)
    {
        integer(t.id);
        integer(static_cast<int>(t.kind));
        integer(static_cast<int>(t.phase));
        text(t.label);
        integer(static_cast<long long>(t.deps.size()));
        for (int d : t.deps)
            integer(d);
        integer(t.rank);
        real(t.flops);
        integer(static_cast<int>(t.op));
        integer(t.group.size());
        for (int r : t.group.ranks)
            integer(r);
        real(t.bytes);
        integer(t.root);
        integer(t.pin_channels);
        real(t.comm_bw_factor);
        integer(static_cast<int>(t.algo));
        integer(t.to_host);
        real(t.cpu_params);
        integer(t.node);
        integer(t.socket);
        integer(t.volume);
        integer(t.io_write);
        real(t.extra_latency);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** The PlanTuning variants each configuration is built under. */
std::vector<PlanTuning>
tunings()
{
    std::vector<PlanTuning> out(5);
    out[1].overlap_grad_reduction = true;
    out[2].fsdp_prefetch = 1;
    out[3].fsdp_prefetch = 5;
    out[4].max_blocks = 5;
    out[4].grad_buckets = 8;
    out[4].nvme_chunks = 3;
    return out;
}

/**
 * Hash every plan of @p cfg over the context sweep; shapes whose
 * model-parallel size does not divide the cluster are skipped, as the
 * CLI rejects them.
 */
std::uint64_t
sweepHash(const StrategyConfig &cfg)
{
    PlanHasher h;
    const auto strategy = Strategy::create(cfg);
    for (int nodes : {1, 2}) {
        ClusterSpec spec;
        spec.nodes = nodes;
        const Cluster cluster(spec);
        const int n = spec.totalGpus();
        if (n % cfg.modelParallelSize() != 0)
            continue;
        for (int layers : {3, 26}) {
            for (char placement : {'B', 'H'}) {
                for (const PlanTuning &tuning : tunings()) {
                    const PlanContext ctx{cluster,
                                          TransformerConfig::gpt2Like(layers),
                                          16, nvmePlacementConfig(placement),
                                          tuning};
                    const IterationPlan plan = strategy->buildIteration(ctx);
                    h.integer(plan.modelLayers());
                    h.integer(static_cast<long long>(plan.size()));
                    for (const PlanTask &t : plan.tasks())
                        h.task(t);
                }
            }
        }
    }
    return h.value();
}

/** One CLI-spelled configuration and its pinned hash. */
struct Pinned {
    const char *name;
    int tp;
    int pp;
    std::uint64_t hash;
};

TEST(PlanIdentity, EveryStrategyEmitsThePinnedPlans)
{
    const std::vector<Pinned> pinned = {
        {"ddp", 0, 0, 0x53e62a36c7db4745ull},
        {"megatron", 0, 0, 0xa2a765f5973f87e9ull},
        {"zero1", 0, 0, 0x172c13530c7b1c5bull},
        {"zero2", 0, 0, 0xc6e3af45ed69929bull},
        {"zero3", 0, 0, 0xbb26d289cc009b97ull},
        {"zero1-cpu", 0, 0, 0xe60d893adedd623full},
        {"zero2-cpu", 0, 0, 0x9f05e88804b82abfull},
        {"zero3-cpu", 0, 0, 0xa9b66b1c02388d1dull},
        {"zero3-nvme", 0, 0, 0xbf8e358dd4fea359ull},
        {"zero3-nvme-params", 0, 0, 0xf76624c4b4c9ee35ull},
        {"fsdp", 0, 0, 0x7daf6ba0fe4a67e7ull},
        {"moe", 0, 0, 0x6516a0d302bebe8full},
        {"hybrid3d", 0, 0, 0xc79c21cab96eb6b1ull},
        // Hybrid ZeRO-2 is the 3D hybrid at pp = 1: same plans, same
        // hashes.
        {"zero1", 2, 0, 0x48cde97c9b87f4b3ull},
        {"zero1", 4, 0, 0xab49cfee71a623d9ull},
        {"zero2", 2, 0, 0xe7bd4c2277c8c95dull},
        {"zero2", 4, 0, 0xd7e76521c7e31c75ull},
        {"megatron", 1, 1, 0x366cf9713c170393ull},
        {"megatron", 2, 1, 0xcb7203d8e2cf3bafull},
        {"megatron", 4, 1, 0xa2a765f5973f87e9ull},
        {"megatron", 2, 2, 0x22d011e6aade6b15ull},
        {"megatron", 4, 2, 0x17b28d60133e33d1ull},
        {"hybrid3d", 1, 1, 0x473b31d88a6c50cdull},
        {"hybrid3d", 2, 1, 0xe7bd4c2277c8c95dull},
        {"hybrid3d", 4, 1, 0xd7e76521c7e31c75ull},
        {"hybrid3d", 2, 2, 0xc79c21cab96eb6b1ull},
        {"hybrid3d", 4, 2, 0xbbe6f242816937afull},
    };

    // Every registered name is pinned at its default degrees.
    for (const std::string &name : Strategy::names()) {
        bool found = false;
        for (const Pinned &p : pinned)
            found |= p.name == name && p.tp == 0 && p.pp == 0;
        EXPECT_TRUE(found) << "unpinned strategy " << name;
    }

    for (const Pinned &p : pinned) {
        const StrategyFactory *f = Strategy::find(p.name);
        ASSERT_NE(f, nullptr) << p.name;
        const std::uint64_t got = sweepHash(f->configure(p.tp, p.pp));
        EXPECT_EQ(got, p.hash) << p.name << " --tp " << p.tp << " --pp "
                               << p.pp << ": 0x" << std::hex << got;
    }
}

} // namespace
} // namespace dstrain
