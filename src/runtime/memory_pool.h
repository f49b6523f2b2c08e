/**
 * @file
 * Memory pool: liveness-based reuse of intermediate buffers, both as a
 * *simulation* (peak-footprint tracking and the redundant-copy
 * accounting of Section 4.6, e.g. Swin's 3.0 MB maximum active
 * redundant copies) and as a *real allocator* (BufferPool) backing the
 * CPU execution backend.
 *
 * Mirrors the paper's allocator: intermediates come from a pool and are
 * released back when no remaining consumer needs them.  Weights are not
 * pooled: they stay resident across runs in exec::WeightStore, pinned
 * by each prepared plan.
 */
#ifndef SMARTMEM_RUNTIME_MEMORY_POOL_H
#define SMARTMEM_RUNTIME_MEMORY_POOL_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "runtime/plan.h"

namespace smartmem::runtime {

/** Result of simulating plan memory behaviour. */
struct MemoryStats
{
    /** Peak bytes of live intermediates (pool high-water mark). */
    std::int64_t peakIntermediateBytes = 0;

    /** Sum of all intermediate allocations (no reuse). */
    std::int64_t totalAllocatedBytes = 0;

    /** Resident weight/constant bytes. */
    std::int64_t constantBytes = 0;

    /** Maximum bytes of redundant layout copies (copyIndex > 0) live at
     *  any point -- the Section 4.6 metric. */
    std::int64_t maxActiveRedundantCopyBytes = 0;

    /** peakIntermediateBytes + constantBytes. */
    std::int64_t peakTotalBytes() const
    {
        return peakIntermediateBytes + constantBytes;
    }
};

/** Simulate the pool over the kernel sequence. */
MemoryStats simulateMemory(const ExecutionPlan &plan);

/**
 * Index of the last kernel reading each stored (value, copy), the
 * liveness boundary both the simulation and the real executor release
 * buffers at.  Graph outputs map to plan.kernels.size() (live to the
 * end).  Stored values never read again do not appear; their producer
 * kernel's index is the release point.
 */
std::map<std::pair<ir::ValueId, int>, std::size_t>
lastUses(const ExecutionPlan &plan);

/**
 * Real buffer allocator for the CPU execution backend: every
 * allocation is 64-byte aligned (a full cache line, so buffers handed
 * to different pool workers can never false-share) and released
 * buffers are recycled by exact storage size, mirroring the
 * simulateMemory() liveness model.
 *
 * Not thread-safe: allocate/release are called from the coordinating
 * thread only; workers merely read/write the handed-out memory.
 */
class BufferPool
{
  public:
    /** Cache-line alignment of every allocation, in bytes. */
    static constexpr std::size_t kAlignment = 64;

    BufferPool() = default;
    ~BufferPool();

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /** 64-byte-aligned storage for `elems` floats; recycles a
     *  released buffer of the same rounded size if one is free.
     *  Fresh allocations are zero-filled; RECYCLED buffers keep
     *  their previous contents (callers overwrite every element they
     *  read -- re-zeroing the hot path would cost a full extra
     *  memory pass per buffer).  Fatal on non-positive sizes. */
    float *allocateFloats(std::int64_t elems);

    /** Return a buffer to the pool for reuse.  Must have come from
     *  allocateFloats() on this pool; panics otherwise. */
    void release(float *p);

    /** Bytes currently handed out (not counting free-list buffers). */
    std::int64_t liveBytes() const { return liveBytes_; }

    /** Peak of liveBytes() over the pool's lifetime -- the high-water
     *  mark simulateMemory() predicts as peakIntermediateBytes. */
    std::int64_t highWaterBytes() const { return highWaterBytes_; }

    /** Allocations served from the free list instead of fresh memory. */
    std::int64_t reuseCount() const { return reuseCount_; }

  private:
    std::map<float *, std::int64_t> live_;               // ptr -> bytes
    std::map<std::int64_t, std::vector<float *>> free_;  // bytes -> ptrs
    std::int64_t liveBytes_ = 0;
    std::int64_t highWaterBytes_ = 0;
    std::int64_t reuseCount_ = 0;
};

/**
 * True if the plan fits a device with the given capacity, leaving
 * `headroom_fraction` of capacity for the runtime itself.  Drives the
 * OOM gaps in Figures 10 and 11.
 */
bool fitsDevice(const ExecutionPlan &plan, std::int64_t capacity_bytes,
                double headroom_fraction = 0.25);

} // namespace smartmem::runtime

#endif // SMARTMEM_RUNTIME_MEMORY_POOL_H
