/**
 * @file
 * Backend selection for plan execution: one name-keyed factory over
 * every engine that can run an ExecutionPlan with real float math,
 * following the DeviceRegistry/CompilerRegistry idiom (unknown names
 * raise a FatalError listing what is registered).
 *
 * Registered backends:
 *   "reference"    -- the functional runner (runPlanFunctional):
 *                     naive scalar kernels, correctness baseline.
 *   "cpu-blocked"  -- exec::CpuBackend: layout-aware, cache-blocked,
 *                     thread-pooled kernels (docs/EXECUTION.md).
 *
 * Both backends compute the same function (tests pin parity to 1e-4
 * relative tolerance across the model zoo), so callers choose purely
 * on speed: FunctionalRunner-style verification uses "reference",
 * `smartmem_cli run` and bench_exec_throughput default to
 * "cpu-blocked".
 */
#ifndef SMARTMEM_RUNTIME_PLAN_EXECUTOR_H
#define SMARTMEM_RUNTIME_PLAN_EXECUTOR_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/cpu_backend.h"
#include "exec/tensor.h"
#include "runtime/plan.h"

namespace smartmem::runtime {

/** A plan execution engine. */
class PlanExecutor
{
  public:
    /**
     * A plan made ready to run on one backend (see prepare()).
     * Immutable and shareable: any thread may run it on any executor
     * of the same backend and seed.  It borrows the plan, which must
     * outlive it.  The reference backend's handle is just this.
     */
    class Prepared
    {
      public:
        explicit Prepared(const ExecutionPlan &plan) : plan_(&plan) {}
        virtual ~Prepared() = default;
        const ExecutionPlan &plan() const { return *plan_; }

      private:
        const ExecutionPlan *plan_;
    };

    virtual ~PlanExecutor() = default;

    /** Registry name of this backend. */
    virtual const std::string &name() const = 0;

    /** Do once what every run of `plan` would repeat (cpu-blocked:
     *  CpuBackend::prepare, resident weights and planned copies). */
    virtual std::shared_ptr<const Prepared>
    prepare(const ExecutionPlan &plan) const = 0;

    /** Execute a prepared plan; returns graph outputs in declaration
     *  order, row-major. */
    virtual std::vector<exec::Tensor>
    run(const Prepared &prepared,
        const std::map<ir::ValueId, exec::Tensor> &inputs) = 0;

    /** run(*prepare(plan), inputs). */
    std::vector<exec::Tensor>
    run(const ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs)
    {
        return run(*prepare(plan), inputs);
    }

    /** Counters of the most recent run() (each run overwrites the
     *  record).  The serial reference backend has no allocator, tiles
     *  or streaming kernels: it reports the default record (threads
     *  1, every counter 0). */
    virtual const exec::CpuBackendStats &stats() const = 0;
};

/** Registered backend names, in registry order. */
const std::vector<std::string> &executorNames();

/**
 * Construct a backend by name.  Throws FatalError for unknown names,
 * listing the registered backends -- the same contract as
 * DeviceRegistry::find().  The reference backend reads only
 * options.seed: it is serial and untiled.
 */
std::unique_ptr<PlanExecutor>
makeExecutor(const std::string &name,
             const exec::CpuBackendOptions &options = {});

} // namespace smartmem::runtime

#endif // SMARTMEM_RUNTIME_PLAN_EXECUTOR_H
