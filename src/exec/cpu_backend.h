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
 *    output tiles on a fixed support::ThreadPool;
 *  - what does not change between runs is done once, by prepare():
 *    the weights become resident in the process-wide WeightStore
 *    (weight_store.h), and every gather, pack, unpack and surviving
 *    transform gets its StridedCopy planned.  run(plan, ...) prepares
 *    and runs; a warm prepare finds every weight resident.
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
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/simd_dispatch.h"
#include "exec/strided_copy.h"
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
    /** Wall time of the prepare() that produced the plan run, ms (for
     *  run(plan, ...), this call's own prepare). */
    double prepareMs = 0;

    /** Constants that prepare synthesized; 0 when every weight was
     *  already resident (a warm run). */
    int weightsSynthesized = 0;

    /** Bytes of the weights the prepared plan pins in the store. */
    std::int64_t weightBytesResident = 0;

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

    /** BufferPool high-water mark: intermediates only (weights live
     *  in the WeightStore, counted by weightBytesResident). */
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

/**
 * A plan made ready to run by CpuBackend::prepare(): its weights
 * pinned in WeightStore::global() and every copy its kernels make
 * planned.  Immutable once built, so any number of threads may run one
 * prepared plan at once.  It borrows the plan, which must outlive it.
 */
struct PreparedPlan
{
    PreparedPlan() = default;
    PreparedPlan(const PreparedPlan &) = delete;
    PreparedPlan &operator=(const PreparedPlan &) = delete;
    /** Returns the pins to the store. */
    ~PreparedPlan();

    /** Copies of one kernel.  A compute kernel's `inputs` parallel
     *  Kernel::inputs: the read-map gather of a substituted input, or
     *  the unpack of one stored in a non-row-major layout.  `store`
     *  writes the kernel output into its chosen layout: from the
     *  stored source for a relayout kernel, from the row-major result
     *  for a compute kernel. */
    struct KernelCopies
    {
        std::vector<std::optional<StridedCopy>> inputs;
        StridedCopy store;
    };

    const runtime::ExecutionPlan *plan = nullptr;
    /** Seed the weights were synthesized at. */
    std::uint64_t seed = 0;

    /** Row-major contents of each constant the plan reads, by value id
     *  (null for every other value); `pins` keeps them resident. */
    std::vector<const float *> weights;
    std::vector<std::shared_ptr<const float>> pins;

    /** runtime::lastUses(plan): when each stored buffer dies. */
    std::map<std::pair<ir::ValueId, int>, std::size_t> lastUse;

    std::vector<KernelCopies> kernels; ///< parallel to plan->kernels
    /** Surviving transformation nodes, each one copy through its
     *  IndexMap, by node id. */
    std::map<ir::NodeId, StridedCopy> transforms;
    /** Unpack of each graph output to row-major, in declaration
     *  order. */
    std::vector<StridedCopy> outputs;

    double prepareMs = 0;
    int weightsSynthesized = 0;
    std::int64_t weightBytes = 0;
};

/** Plan-consuming blocked CPU executor (see file header). */
class CpuBackend
{
  public:
    explicit CpuBackend(CpuBackendOptions options = CpuBackendOptions());

    /**
     * Prepare `plan` at options().seed: pin its weights (synthesizing,
     * in parallel, those not resident yet) and plan its copies.  The
     * plan must outlive the result.
     */
    std::shared_ptr<const PreparedPlan>
    prepare(const runtime::ExecutionPlan &plan) const;

    /**
     * Execute a prepared plan on the given model inputs (keyed by
     * input value id, row-major).  Returns the graph outputs in
     * declaration order, row-major.  `stats`, when non-null, receives
     * the run's counters.  The plan must have been prepared at this
     * backend's seed.
     */
    std::vector<Tensor>
    run(const PreparedPlan &prepared,
        const std::map<ir::ValueId, Tensor> &inputs,
        CpuBackendStats *stats = nullptr) const;

    /** run(*prepare(plan), inputs, stats). */
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
