/**
 * @file
 * Implementation of the async-IO engine.
 */

#include "storage/aio_engine.hh"

#include "util/join.hh"
#include "util/logging.hh"

namespace dstrain {

AioEngine::AioEngine(TransferManager &tm, AioConfig cfg)
    : tm_(tm), cfg_(cfg)
{
}

NvmeDevice &
AioEngine::device(int node, int drive_index)
{
    auto key = std::make_pair(node, drive_index);
    auto it = devices_.find(key);
    if (it == devices_.end()) {
        it = devices_
                 .emplace(key, std::make_unique<NvmeDevice>(
                                   tm_.cluster(), node, drive_index,
                                   cfg_.cache))
                 .first;
    }
    return *it->second;
}

void
AioEngine::submit(int drive_index, StorageIo io)
{
    DSTRAIN_ASSERT(io.bytes >= 0.0, "negative IO size");
    NvmeDevice &dev = device(io.node, drive_index);
    const ComponentId dram = tm_.cluster()
                                 .node(io.node)
                                 .drams[static_cast<std::size_t>(io.socket)];

    Simulation &sim = tm_.sim();
    auto launch = [this, &dev, dram, io = std::move(io),
                   epoch = epoch_]() mutable {
        if (epoch != epoch_)
            return;  // aborted before the submit latency elapsed
        const SimTime now = tm_.sim().now();

        Bytes burst = 0.0;
        Bytes sustained = io.bytes;
        if (io.write) {
            burst = dev.absorbWrite(now, io.bytes);
            sustained = io.bytes - burst;
        }

        // The request completes when both portions land.
        const Join join([this, on_done = std::move(io.on_done)] {
            ++completed_;
            if (on_done)
                on_done();
        });

        TransferOptions opts;
        opts.tag = tm_.internTag(io.tag);
        // model_serdes_contention is a whole-experiment ablation
        // toggle, so the template spec is authoritative even on
        // heterogeneous clusters.
        if (dev.socket() != io.socket &&
            tm_.cluster().spec().node.model_serdes_contention) {
            // Cross-socket storage stream: consumes the shared IOD
            // crossbar path (paper Sec. III-C4 / Table VI).
            opts.extra_resources.push_back(
                tm_.cluster().node(io.node).iod_crossing);
        }
        if (burst > 0.0)
            tm_.start(dram, dev.controller(), burst, join.part(), opts);
        if (sustained > 0.0) {
            if (io.write)
                tm_.start(dram, dev.media(), sustained, join.part(), opts);
            else
                tm_.start(dev.media(), dram, sustained, join.part(), opts);
        }
        if (burst <= 0.0 && sustained <= 0.0) {
            // Zero-byte IO: its one part arrives asynchronously.
            tm_.sim().events().scheduleAfter(
                0.0, [this, part = join.part(), epoch] {
                    if (epoch == epoch_)
                        part();
                });
        }
    };
    sim.events().scheduleAfter(cfg_.submit_latency * latency_factor_,
                               std::move(launch));
}

void
AioEngine::setLatencyFactor(double factor)
{
    DSTRAIN_ASSERT(factor >= 1.0, "latency factor %g < 1", factor);
    latency_factor_ = factor;
}

} // namespace dstrain
