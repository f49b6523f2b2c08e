/**
 * @file
 * Host-speed probe: a fixed piece of work the benchmark times between
 * its own samples, to tell how fast the host was running at the time.
 *
 * The benchmark host is a VM that shares its cores with other tenants.
 * Their load moves the speed of everything on it, the library and the
 * probe alike, by up to 3.5x within minutes.  The probe is the
 * benchmark's own code, independent of the library, so a change to
 * the library cannot move it; only the host can.  The end-to-end
 * timings are scaled by (reference time) / (the run's median probe
 * time), which cancels the host's speed of the moment to first order.
 *
 * One round runs the same kernel on one thread per CPU and waits for
 * all of them.  Its threads are its own: the library's thread pools
 * are not involved.  A round gives two times, for the two ways a slow
 * vCPU shows:
 *  - its wall time waits for the slowest lane, as the executor's
 *    static fork-join partition does (roundScale);
 *  - the mean CPU time of its lanes is the average vCPU's speed, which
 *    is what a single thread moved over all CPUs, or the CPU time of
 *    a whole process, sees (laneScale).
 */
#ifndef SMBENCH_PROBE_H
#define SMBENCH_PROBE_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "trace.h"

namespace smbench {

/** `refMs` over the median of `probeMs`; 1 when it is empty. */
double hostScale(double refMs, const std::vector<double> &probeMs);

/**
 * The probe's medians on the benchmark host while it was otherwise
 * idle (4-vCPU x86-64 KVM guest, AVX-512), ms: a round's wall time and
 * a lane's CPU time.  Scaled timings read as if the host had run at
 * that speed.
 */
constexpr double kRoundRefMs = 17.0;
constexpr double kLaneRefMs = 15.0;

class HostProbe
{
  public:
    /** One thread per CPU the calling thread may run on. */
    HostProbe();
    ~HostProbe();

    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Run one round under a "host.probe" span; returns its wall
     *  time, ms. */
    double run(Tracer &tracer);

    int threads() const { return static_cast<int>(buffers_.size()); }
    /** Wall time of each round, ms. */
    const std::vector<double> &rounds() const { return rounds_; }
    /** Mean lane CPU time of each round, ms. */
    const std::vector<double> &lanes() const { return lanes_; }

    /** Scale for a wall time of a fork-join over all CPUs. */
    double roundScale() const { return hostScale(kRoundRefMs, rounds_); }
    /** Scale for a single-thread time or a CPU time. */
    double laneScale() const { return hostScale(kLaneRefMs, lanes_); }

  private:
    void work(std::size_t lane);
    void workerLoop(std::size_t lane);

    std::vector<std::vector<float>> buffers_; ///< one per thread
    std::vector<double> laneCpuMs_;           ///< this round's, per lane
    std::vector<std::thread> workers_;        ///< lanes 1..n-1
    std::vector<double> rounds_, lanes_;

    std::mutex mutex_;
    std::condition_variable start_;
    std::condition_variable finished_;
    std::uint64_t round_ = 0;
    std::size_t pending_ = 0;
    bool stop_ = false;
};

/** Print the probe's medians and the scales they give. */
void printScales(const HostProbe &probe);

} // namespace smbench

#endif // SMBENCH_PROBE_H
