/**
 * @file
 * Plan-driven high-performance CPU execution backend.
 *
 * Unlike the reference executor (which walks the original graph) and
 * the functional runner (which replays a plan with the naive kernels),
 * CpuBackend executes the ExecutionPlan the way a device runtime
 * would:
 *
 *  - it launches the plan's fused kernels, not raw graph nodes;
 *  - every stored buffer is materialized in the plan's *chosen*
 *    physical layout (Layout::strides semantics, including vec4
 *    packing and texture storage order), from 64-byte-aligned
 *    allocations of a runtime::BufferPool reused by liveness;
 *  - operators eliminated by Layout Transformation Elimination are
 *    never executed: the consuming kernel reads through the composed
 *    IndexMap (one materialization per surviving chain, instead of
 *    one copy per eliminated operator), lowered to a strided loop
 *    nest (strided_copy.h) so no per-element index math runs;
 *  - compute runs on cache-blocked/tiled kernels (kernels_blocked.h)
 *    with fused element-wise epilogues, parallelized over batch /
 *    output tiles on a fixed support::ThreadPool.
 *
 * Results are byte-identical at every thread count (static work
 * partitioning; each output element is produced by exactly one task
 * in a fixed arithmetic order) and match the reference executor
 * within 1e-4 relative tolerance (tests/cpu_backend_test.cc pins
 * both across the model zoo).
 */
#ifndef SMARTMEM_EXEC_CPU_BACKEND_H
#define SMARTMEM_EXEC_CPU_BACKEND_H

#include <cstdint>
#include <map>
#include <vector>

#include "exec/simd_dispatch.h"
#include "exec/tensor.h"
#include "runtime/plan.h"

namespace smartmem::device {
struct DeviceProfile;
}

namespace smartmem::exec {

/** Knobs for a CpuBackend instance. */
struct CpuBackendOptions
{
    /** Worker threads; 0 = SMARTMEM_THREADS env / hardware default,
     *  1 = fully serial. */
    int threads = 0;

    /** Seed for synthesized constants; must match the seed of the
     *  reference execution being compared against. */
    std::uint64_t seed = 1234;

    /** GEMM tile overrides, usually from exec::resolveTileParams() on
     *  a device profile (see cpuBackendOptionsFor); 0 = the kernels'
     *  built-in defaults. */
    std::int64_t gemmRowTile = 0;
    std::int64_t gemmKBlock = 0;
};

/** Options for running plans compiled for `dev`: the given threads
 *  and seed, GEMM tiles from resolveTileParams(dev). */
CpuBackendOptions
cpuBackendOptionsFor(const device::DeviceProfile &dev, int threads,
                     std::uint64_t seed = CpuBackendOptions().seed);

/** Counters from the most recent CpuBackend::run(). */
struct CpuBackendStats
{
    /** Kernels launched (= plan.operatorCount()). */
    int kernelsExecuted = 0;

    /** Explicit relayout kernels among them (data movement only). */
    int relayoutKernels = 0;

    /** Element-wise ops folded into a producer's fused epilogue pass
     *  instead of running as their own pass. */
    int fusedEpilogueOps = 0;

    /** Element-wise operands spanning two or more runs of output dims,
     *  broadcast to the output shape by a copy first. */
    int broadcastExpansions = 0;

    /** Eliminated-chain reads reproduced via composed IndexMaps, each
     *  one strided copy (exec/strided_copy.h). */
    int substitutesMaterialized = 0;

    /** Bytes moved by layout packing/unpacking and relayout copies --
     *  the transformation work the plan did NOT eliminate. */
    std::int64_t bytesRelayouted = 0;

    /** BufferPool high-water mark: intermediates only (constants stay
     *  in the tensors they were synthesized into). */
    std::int64_t poolHighWaterBytes = 0;

    /** BufferPool allocations served by reuse. */
    std::int64_t poolReuses = 0;

    /** Stored packed/texture operands consumed in place by GEMM/conv
     *  micro-kernels (no unpack copy). */
    int nativeLayoutViews = 0;

    /** Kernel outputs written directly in the plan's chosen layout
     *  (no pack copy in publishOutput). */
    int nativeLayoutStores = 0;

    /** FusedAttention launches that ran the streaming online-softmax
     *  kernel (Kernel::streamingAttention set). */
    int fusedAttentionKernels = 0;

    /** Score-matrix bytes those launches never materialized: the
     *  [batch, n, m] float panel a matmul+softmax+matmul chain would
     *  have written and re-read. */
    std::int64_t scoreBytesAvoided = 0;

    /** SIMD dispatch level the run executed at. */
    SimdLevel simdLevel = SimdLevel::Scalar;

    /** Resolved GEMM tile parameters the run used. */
    std::int64_t tileRowTile = 0;
    std::int64_t tileKBlock = 0;

    /** Worker threads the run resolved (options.threads, or the
     *  SMARTMEM_THREADS / hardware default when that is 0). */
    int threads = 1;
};

/** Plan-consuming blocked CPU executor (see file header). */
class CpuBackend
{
  public:
    explicit CpuBackend(CpuBackendOptions options = CpuBackendOptions());

    /**
     * Execute the plan on the given model inputs (keyed by input value
     * id, row-major).  Returns the graph outputs in declaration order,
     * row-major.  `stats`, when non-null, receives the run's counters.
     */
    std::vector<Tensor>
    run(const runtime::ExecutionPlan &plan,
        const std::map<ir::ValueId, Tensor> &inputs,
        CpuBackendStats *stats = nullptr) const;

    const CpuBackendOptions &options() const { return options_; }

  private:
    CpuBackendOptions options_;
};

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_CPU_BACKEND_H
