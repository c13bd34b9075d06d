/**
 * @file
 * Implementation of the discrete-event queue.
 */

#include "sim/event_queue.hh"

#include "util/logging.hh"

namespace dstrain {

EventId
EventQueue::schedule(SimTime when, Callback cb)
{
    DSTRAIN_ASSERT(when >= now_,
                   "cannot schedule in the past (when=%g, now=%g)",
                   when, now_);
    DSTRAIN_ASSERT(cb != nullptr, "null event callback");

    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].live = true;
    slots_[slot].cb = std::move(cb);
    const EventId id = encodeId(slots_[slot].gen, slot);
    heap_.push(Entry{when, next_seq_++, id});
    ++live_;
    return id;
}

EventId
EventQueue::scheduleAfter(SimTime delay, Callback cb)
{
    DSTRAIN_ASSERT(delay >= 0.0, "negative delay %g", delay);
    return schedule(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = slotOf(id);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (s.gen != genOf(id) || !s.live)
        return false;
    s.live = false;
    s.cb = nullptr;  // release captured state eagerly
    --live_;
    return true;
}

EventId
EventQueue::reschedule(EventId id, SimTime when)
{
    DSTRAIN_ASSERT(when >= now_,
                   "cannot reschedule into the past (when=%g, now=%g)",
                   when, now_);
    const std::uint32_t slot = slotOf(id);
    DSTRAIN_ASSERT(slot < slots_.size(), "reschedule of unknown event");
    Slot &s = slots_[slot];
    DSTRAIN_ASSERT(s.gen == genOf(id) && s.live,
                   "reschedule of executed or cancelled event");
    // Bump the generation: the old heap entry goes stale (skimmed on
    // pop without recycling the slot, which the new id still owns).
    ++s.gen;
    const EventId fresh = encodeId(s.gen, slot);
    heap_.push(Entry{when, next_seq_++, fresh});
    return fresh;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    ++slots_[slot].gen;
    slots_[slot].live = false;
    slots_[slot].cb = nullptr;
    free_slots_.push_back(slot);
}

void
EventQueue::skimCancelled()
{
    while (!heap_.empty()) {
        const Entry &top = heap_.top();
        const std::uint32_t slot = slotOf(top.id);
        const Slot &s = slots_[slot];
        if (s.gen == genOf(top.id) && s.live)
            break;
        // Cancelled (generation still matches) or stale: recycle the
        // slot only if this entry still owns it.
        if (s.gen == genOf(top.id))
            releaseSlot(slot);
        heap_.pop();
    }
}

void
EventQueue::popAndRun()
{
    skimCancelled();
    DSTRAIN_ASSERT(!heap_.empty(), "popAndRun on empty queue");
    const Entry top = heap_.top();
    heap_.pop();
    // The callback lives in the slot; move it out, then release the
    // slot before invoking so a cancel() of this id from inside the
    // callback is correctly rejected as "already executed".
    Callback cb = std::move(slots_[slotOf(top.id)].cb);
    releaseSlot(slotOf(top.id));
    --live_;
    DSTRAIN_ASSERT(top.when >= now_, "time went backwards");
    if (top.when > kSimHorizon) {
        fatal("simulated time reached %g s, past the %g s horizon: a "
              "fault time or window, a near-zero link rate or a "
              "near-zero slowdown fraction stalls the run",
              top.when, kSimHorizon);
    }
    now_ = top.when;
    ++executed_;
    cb();
}

bool
EventQueue::step()
{
    if (empty())
        return false;
    popAndRun();
    return true;
}

SimTime
EventQueue::run()
{
    while (!empty())
        popAndRun();
    return now_;
}

SimTime
EventQueue::runUntil(SimTime until)
{
    DSTRAIN_ASSERT(until >= now_, "runUntil target in the past");
    while (!empty()) {
        skimCancelled();
        if (heap_.empty() || heap_.top().when > until)
            break;
        popAndRun();
    }
    now_ = until;
    return now_;
}

} // namespace dstrain
