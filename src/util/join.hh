/**
 * @file
 * Join: one completion for a fan-out of asynchronous parts.
 *
 * A fan-out (a RAID stripe, a burst plus its sustained tail, a
 * checkpoint restore) hands each part a callable from part() and runs
 * its completion once every part it handed out has arrived. The
 * pending count and the completion live together in one shared
 * object, which each outstanding part holds.
 *
 * An issuer whose parts may arrive before it has handed out the last
 * one holds a part of its own while it fans out and calls it at the
 * end; the completion then runs exactly once, after the last part.
 */

#ifndef DSTRAIN_UTIL_JOIN_HH
#define DSTRAIN_UTIL_JOIN_HH

#include <functional>
#include <memory>
#include <utility>

#include "util/logging.hh"

namespace dstrain {

class Join
{
  public:
    /** A join that runs @p done (may be empty) after its last part. */
    explicit Join(std::function<void()> done)
        : state_(std::make_shared<State>())
    {
        state_->done = std::move(done);
    }

    /** One more pending part: call the result exactly once. */
    std::function<void()> part() const
    {
        ++state_->pending;
        return [state = state_] {
            DSTRAIN_ASSERT(state->pending > 0,
                           "more join parts arrived than were handed out");
            if (--state->pending == 0 && state->done)
                state->done();
        };
    }

  private:
    struct State {
        int pending = 0;
        std::function<void()> done;
    };

    std::shared_ptr<State> state_;
};

} // namespace dstrain

#endif // DSTRAIN_UTIL_JOIN_HH
