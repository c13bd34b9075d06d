/**
 * @file
 * In-memory spans around the benchmark's calls into dstrain: name,
 * start, end and parent, written at the end as Chrome-trace JSON. A
 * disabled tracer records nothing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer
{
  public:
    /** One recorded span; times are seconds since the tracer began. */
    struct Record {
        const char *name;
        double start;
        double end;
        int parent;  ///< index of the enclosing span, -1 at the top
    };

    /** Closes its span when destroyed. */
    class Span
    {
      public:
        Span(Tracer &t, const char *name) : t_(t), index_(t.open(name)) {}
        ~Span() { t_.close(index_); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &t_;
        int index_;
    };

    void setEnabled(bool on) { enabled_ = on; }

    std::size_t size() const { return spans_.size(); }

    /** Summed duration of every span named @p name from index @p from. */
    std::map<std::string, double> totals(std::size_t from) const
    {
        std::map<std::string, double> out;
        for (std::size_t i = from; i < spans_.size(); ++i)
            out[spans_[i].name] += spans_[i].end - spans_[i].start;
        return out;
    }

    /** Write every span as a Chrome-trace "X" event; false on I/O error. */
    bool writeChrome(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Record &r = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}",
                         i ? "," : "", r.name, r.start * 1e6,
                         (r.end - r.start) * 1e6, i, r.parent);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    int open(const char *name)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, secondsSince(t0_), 0.0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void close(int index)
    {
        if (index < 0)
            return;
        Record &r = spans_[static_cast<std::size_t>(index)];
        r.end = secondsSince(t0_);
        current_ = r.parent;
    }

    bool enabled_ = false;
    Clock::time_point t0_ = Clock::now();
    std::vector<Record> spans_;
    int current_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
