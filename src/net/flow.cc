/**
 * @file
 * Implementation of the tag table.
 */

#include "net/flow.hh"

#include "util/logging.hh"

namespace dstrain {

TagTable::TagTable()
{
    labels_.emplace_back();
    ids_.emplace(labels_.back(), kNoTag);
}

TagId
TagTable::intern(std::string_view label)
{
    const auto it = ids_.find(label);
    if (it != ids_.end())
        return it->second;
    const TagId id = static_cast<TagId>(labels_.size());
    ids_.emplace(labels_.emplace_back(label), id);
    return id;
}

const std::string &
TagTable::label(TagId id) const
{
    DSTRAIN_ASSERT(id < labels_.size(), "unknown tag id %u", id);
    return labels_[id];
}

} // namespace dstrain
