/**
 * @file
 * The discrete-event queue at the heart of the dstrain simulator.
 *
 * Events are (time, sequence, callback) triples ordered by time and,
 * for equal times, by insertion order; the sequence number makes the
 * simulation fully deterministic regardless of the container's
 * tie-breaking behavior.
 */

#ifndef DSTRAIN_SIM_EVENT_QUEUE_HH
#define DSTRAIN_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/units.hh"

namespace dstrain {

/** Identifies a scheduled event so it can be cancelled. */
using EventId = std::uint64_t;

/**
 * Latest simulated time an event may run at (~32 years). Beyond it one
 * step of the double clock exceeds 0.1 us, so the model's microsecond
 * delays stop advancing time; a run that gets there was stalled by its
 * configuration (a fault time or window, a near-zero link rate or
 * slowdown), and running the event is a fatal() user error.
 */
inline constexpr SimTime kSimHorizon = 1e9;

/**
 * A time-ordered queue of callbacks with deterministic FIFO
 * tie-breaking and O(log n) scheduling.
 *
 * Cancellation is lazy: a cancelled event's heap entry remains and is
 * skipped on pop. Liveness is tracked through a slot/generation
 * scheme instead of a hash set: an EventId encodes (slot index,
 * generation); a slot is released (generation bumped) when its entry
 * leaves the heap, so cancelling an executed, already-cancelled, or
 * unknown id is an O(1) safe no-op and the schedule/cancel/pop hot
 * paths perform no hashing and no per-event allocation beyond the
 * heap entry itself (slots are recycled through a free list).
 *
 * EventId 0 is never issued, so callers may use 0 as a "no pending
 * event" sentinel; cancel(0) is always a no-op returning false.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (the time of the last executed event). */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when.
     *
     * @p when must not be in the past; scheduling at exactly now()
     * is allowed and runs after all currently pending events at the
     * same timestamp (FIFO order).
     * @return an id usable with cancel().
     */
    EventId schedule(SimTime when, Callback cb);

    /** Schedule @p cb @p delay seconds after now(). */
    EventId scheduleAfter(SimTime delay, Callback cb);

    /**
     * Cancel a pending event.
     * @return true if the event was pending and is now cancelled;
     *         false for executed, already-cancelled, or unknown ids.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to a new time, keeping its callback.
     *
     * Equivalent to cancel(id) + schedule(when, same-callback) — the
     * event is assigned a fresh sequence number, so it runs after
     * events already pending at @p when — but without re-copying the
     * callback. @p id must be pending (not executed or cancelled);
     * the returned id replaces it.
     */
    EventId reschedule(EventId id, SimTime when);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, pending) events. */
    std::size_t size() const { return live_; }

    /**
     * Execute events until the queue drains.
     * @return the time of the last executed event.
     */
    SimTime run();

    /**
     * Execute events with time <= @p until, then advance the clock
     * to exactly @p until.
     * @return the new current time (== @p until).
     */
    SimTime runUntil(SimTime until);

    /**
     * Execute at most one event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool step();

    /** Total number of events executed since construction. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    struct Entry {
        SimTime when;
        std::uint64_t seq;  ///< FIFO tie-break for equal times
        EventId id;         ///< encodeId(generation, slot)
    };

    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * Liveness record for one event slot. The callback lives here,
     * not in the heap entry, so heap operations shuffle only small
     * trivially-copyable entries and popping never has to move from
     * the priority_queue's const top().
     */
    struct Slot {
        Callback cb;            ///< pending callback (null once released)
        std::uint32_t gen = 0;  ///< bumped when the entry leaves the heap
        bool live = false;      ///< pending and not cancelled
    };

    // Ids are biased by +1 so that id 0 is never issued (callers use
    // 0 as a "no pending event" sentinel). slotOf(0) deliberately
    // decodes to 0xFFFFFFFF, an out-of-range slot that cancel()
    // rejects.
    static EventId encodeId(std::uint32_t gen, std::uint32_t slot)
    {
        return ((static_cast<EventId>(gen) << 32) | slot) + 1;
    }
    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id - 1);
    }
    static std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>((id - 1) >> 32);
    }

    /** Bump the generation and recycle the slot. */
    void releaseSlot(std::uint32_t slot);

    /** Pop and run the earliest live event; caller checked non-empty. */
    void popAndRun();

    /** Drop cancelled entries from the top of the heap. */
    void skimCancelled();

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t live_ = 0;
    SimTime now_ = 0.0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
};

} // namespace dstrain

#endif // DSTRAIN_SIM_EVENT_QUEUE_HH
