/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library's public functions (one layer per module).  Each span has a
 * name, start, end, the span that caused it and an optional request
 * id shared by the spans of one served request.  Nothing is written
 * until the run ends (writeChrome).
 *
 * A layer's self time is its duration minus the part of that interval
 * its child spans cover (selfTimes), so the self times of a properly
 * nested tree sum to the root's duration.
 */
#ifndef SMBENCH_TRACE_H
#define SMBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace smbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int id = -1;
    int parent = -1;       ///< causing span, -1 for a root
    double startMs = 0;    ///< relative to the tracer's epoch
    double endMs = 0;
    std::int64_t request = -1; ///< served-request id, -1 if none
    int lane = 0;          ///< display row in the trace file
};

/** Aggregated self time of all spans sharing one name. */
struct SelfTime
{
    double selfMs = 0;
    double totalMs = 0;
    std::int64_t count = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /**
     * Times a block.  stop() (or the destructor) ends it and returns
     * its duration in ms; when tracing is on it is also recorded as a
     * span whose parent is the innermost open Scope on this thread.
     */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        double stop();

      private:
        Tracer &tracer_;
        const char *name_;
        Clock::time_point start_;
        int id_ = -1;
        int savedCurrent_ = -1;
        bool open_ = true;
        double ms_ = 0;
    };

    /** Record a finished span (for intervals measured elsewhere, e.g.
     *  a served request); returns its id, or -1 when disabled. */
    int record(const std::string &name, Clock::time_point start,
               Clock::time_point end, int parent,
               std::int64_t request = -1, int lane = 0);

    /** Innermost open Scope on the calling thread, -1 if none. */
    static int current();

    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    int open(const char *name, Clock::time_point start, int parent);
    void close(int id, Clock::time_point end);

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_; index == id
};

/**
 * Self time per span name: each span's duration minus the union of
 * its children's intervals clipped to it.
 */
std::map<std::string, SelfTime> selfTimes(const std::vector<Span> &spans);

} // namespace smbench

#endif // SMBENCH_TRACE_H
