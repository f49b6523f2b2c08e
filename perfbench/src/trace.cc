#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace smbench {

namespace {

thread_local int tCurrent = -1;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer), name_(name), start_(Clock::now())
{
    if (tracer_.enabled_) {
        savedCurrent_ = tCurrent;
        id_ = tracer_.open(name_, start_, savedCurrent_);
        tCurrent = id_;
    }
}

Tracer::Scope::~Scope() { stop(); }

double
Tracer::Scope::stop()
{
    if (!open_)
        return ms_;
    open_ = false;
    const Clock::time_point end = Clock::now();
    ms_ = msBetween(start_, end);
    if (id_ >= 0) {
        tracer_.close(id_, end);
        tCurrent = savedCurrent_;
    }
    return ms_;
}

int
Tracer::open(const char *name, Clock::time_point start, int parent)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.startMs = msBetween(epoch_, start);
    s.endMs = s.startMs;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::close(int id, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endMs = msBetween(epoch_, end);
}

int
Tracer::record(const std::string &name, Clock::time_point start,
               Clock::time_point end, int parent, std::int64_t request,
               int lane)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.startMs = msBetween(epoch_, start);
    s.endMs = msBetween(epoch_, end);
    s.request = request;
    s.lane = lane;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

int
Tracer::current()
{
    return tCurrent;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\": [\n", f);
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %d, \"parent\": %d, "
                     "\"request\": %lld}}%s\n",
                     s.name.c_str(), s.lane, s.startMs * 1e3,
                     (s.endMs - s.startMs) * 1e3, s.id, s.parent,
                     static_cast<long long>(s.request),
                     i + 1 < all.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

std::map<std::string, SelfTime>
selfTimes(const std::vector<Span> &spans)
{
    std::map<int, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[s.parent].push_back({s.startMs, s.endMs});

    std::map<std::string, SelfTime> out;
    for (const Span &s : spans) {
        const double dur = s.endMs - s.startMs;
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the span.
            std::vector<std::pair<double, double>> iv = it->second;
            std::sort(iv.begin(), iv.end());
            double curStart = 0, curEnd = 0;
            bool have = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startMs);
                b = std::min(b, s.endMs);
                if (b <= a)
                    continue;
                if (have && a <= curEnd) {
                    curEnd = std::max(curEnd, b);
                    continue;
                }
                if (have)
                    covered += curEnd - curStart;
                curStart = a;
                curEnd = b;
                have = true;
            }
            if (have)
                covered += curEnd - curStart;
        }
        SelfTime &t = out[s.name];
        t.selfMs += dur - covered;
        t.totalMs += dur;
        ++t.count;
    }
    return out;
}

} // namespace smbench
