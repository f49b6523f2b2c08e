#include "probe.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <numeric>

#include "report.h"

namespace smbench {

namespace {

/** Floats each lane streams over: 4 MiB, past a core's L2. */
constexpr std::size_t kLaneFloats = std::size_t{1} << 20;

constexpr int kTile = 48;
constexpr int kTileReps = 800;
constexpr int kStreamPasses = 64;

double
threadCpuMs()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_nsec) / 1e6;
}

int
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(CPU_COUNT(&set), 1);
}

} // namespace

HostProbe::HostProbe()
    : buffers_(static_cast<std::size_t>(allowedCpus()),
               std::vector<float>(kLaneFloats, 1.0f)),
      laneCpuMs_(buffers_.size(), 0.0)
{
    for (std::size_t lane = 1; lane < buffers_.size(); ++lane)
        workers_.emplace_back([this, lane] { workerLoop(lane); });
}

HostProbe::~HostProbe()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

/**
 * The fixed kernel: a small dense matrix product that stays in L1,
 * then streaming passes over the lane's buffer.  Its inputs come from
 * the buffer, so the compiler cannot fold it away.
 */
void
HostProbe::work(std::size_t lane)
{
    const double cpu0 = threadCpuMs();
    std::vector<float> &buf = buffers_[lane];
    float a[kTile * kTile], b[kTile * kTile], c[kTile * kTile] = {};
    for (int i = 0; i < kTile * kTile; ++i) {
        a[i] = buf[static_cast<std::size_t>(i)] * 0.5f;
        b[i] = buf[static_cast<std::size_t>(i) + kTile] * 0.25f;
    }
    for (int r = 0; r < kTileReps; ++r)
        for (int i = 0; i < kTile; ++i)
            for (int k = 0; k < kTile; ++k) {
                const float s = a[i * kTile + k];
                for (int j = 0; j < kTile; ++j)
                    c[i * kTile + j] += s * b[k * kTile + j];
            }
    for (int r = 0; r < kStreamPasses; ++r)
        for (std::size_t i = 0; i < buf.size(); i += 8)
            buf[i] = buf[i] * 0.5f + c[i % (kTile * kTile)] * 1e-9f;
    laneCpuMs_[lane] = threadCpuMs() - cpu0;
}

void
HostProbe::workerLoop(std::size_t lane)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_.wait(lock, [&] { return stop_ || round_ != seen; });
            if (stop_)
                return;
            seen = round_;
        }
        work(lane);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
        }
        finished_.notify_one();
    }
}

double
HostProbe::run(Tracer &tracer)
{
    Tracer::Scope span(tracer, "host.probe");
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++round_;
        pending_ = workers_.size();
    }
    start_.notify_all();
    work(0);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        finished_.wait(lock, [&] { return pending_ == 0; });
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    rounds_.push_back(ms);
    lanes_.push_back(
        std::accumulate(laneCpuMs_.begin(), laneCpuMs_.end(), 0.0) /
        static_cast<double>(laneCpuMs_.size()));
    return ms;
}

double
hostScale(double refMs, const std::vector<double> &probeMs)
{
    const double m = median(probeMs);
    return m > 0 ? refMs / m : 1.0;
}

void
printScales(const HostProbe &probe)
{
    std::printf("host probe, %zu rounds on %d threads: round median "
                "%.3f ms (reference %.1f, scale %.4f), lane CPU median "
                "%.3f ms (reference %.1f, scale %.4f)\n",
                probe.rounds().size(), probe.threads(),
                median(probe.rounds()), kRoundRefMs, probe.roundScale(),
                median(probe.lanes()), kLaneRefMs, probe.laneScale());
}

} // namespace smbench
