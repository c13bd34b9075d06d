/**
 * @file
 * Implementation of storage volumes.
 */

#include "storage/volume.hh"

#include "util/join.hh"
#include "util/logging.hh"

namespace dstrain {

StorageVolume::StorageVolume(AioEngine &engine, int node, VolumeSpec spec)
    : engine_(engine), node_(node), spec_(std::move(spec))
{
    DSTRAIN_ASSERT(!spec_.drives.empty(), "volume '%s' has no drives",
                   spec_.name.c_str());
}

void
StorageVolume::io(StorageIo io)
{
    DSTRAIN_ASSERT(io.node == node_,
                   "IO for node %d issued against volume on node %d",
                   io.node, node_);

    const std::size_t n = spec_.drives.size();
    if (n == 1) {
        engine_.submit(spec_.drives.front(), std::move(io));
        return;
    }

    // RAID0: even striping; completion = join over members.
    const Join join(std::move(io.on_done));
    for (int drive : spec_.drives) {
        StorageIo part;
        part.write = io.write;
        part.bytes = io.bytes / static_cast<double>(n);
        part.node = io.node;
        part.socket = io.socket;
        part.tag = io.tag + "/" + spec_.name;
        part.on_done = join.part();
        engine_.submit(drive, std::move(part));
    }
}

Bps
StorageVolume::aggregateMediaRate()
{
    Bps total = 0.0;
    for (int drive : spec_.drives)
        total += engine_.device(node_, drive).mediaRate();
    return total;
}

} // namespace dstrain
