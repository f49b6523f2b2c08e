/**
 * @file
 * Shared pieces of the workloads: arguments, the plan device, timed
 * and split compiles, output checks against the reference executor,
 * and the per-layer counters a traced run reports.
 */
#ifndef SMBENCH_BENCH_H
#define SMBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/device_profile.h"
#include "exec/cpu_backend.h"
#include "exec/tensor.h"
#include "ir/graph.h"
#include "report.h"
#include "runtime/plan.h"
#include "trace.h"

namespace smbench {

namespace sm = smartmem;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string refDir = "perfbench/ref";
    std::string traceOut;   ///< Chrome trace file of a traced run
    bool recordRefs = false;
};

/** Everything a workload writes into. */
struct RunContext
{
    const Args &args;
    Tracer &tracer;
    Report &report;
    Outcome &outcome;
};

/** Relative tolerance of every output check (docs/EXECUTION.md). */
constexpr float kTolerance = 1e-4f;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** (seed, salt) of the recorded full-size reference outputs. */
constexpr std::uint64_t kRefSeed = 1234;
constexpr std::uint64_t kRefSalt = 0;

/** Registry name of the plan profile every workload compiles for. */
inline const char *const kPlanDevice = "adreno740";

/** The profile itself. */
const sm::device::DeviceProfile &planDevice();

/** cpu-blocked options: threads, constant seed, the device's tiles. */
sm::exec::CpuBackendOptions backendOptions(int threads,
                                           std::uint64_t seed);

/** The input salt a workload seed selects. */
std::uint64_t inputSaltFor(std::uint64_t seed);

/** Stage-3 compile through core::compileStage; *ms gets its time. */
sm::runtime::ExecutionPlan compileShipped(const sm::ir::Graph &raw,
                                          Tracer &tracer,
                                          double *ms = nullptr);

/** CPU time of the whole process so far, all threads, ms. */
double processCpuMs();

/**
 * One cold compileShipped() of every graph in `raws`; returns the CPU
 * time it took, ms, summed over all threads (compileStage spreads
 * layout selection and tuning over the global pool).  CPU time, not
 * wall time: time the host gives to other tenants does not count, so
 * the samples measure the compiler's work.  Take samples only while
 * no other thread of the process is busy.  compile_ms is the median
 * of such samples, taken between timed inferences or serving levels
 * so that they span the run rather than one short stretch of it.
 */
double timeCompile(const std::vector<sm::ir::Graph> &raws, Tracer &tracer);

/** Timings and counts of one split compile. */
struct CompileSplit
{
    double canonicalizeMs = 0;
    double planMs = 0;
    double layoutMs = 0;
    double tuneMs = 0;
    int opsBefore = 0;
    int opsAfter = 0;
    int attentionFused = 0;
};

/**
 * Stage-3 compile as its four public steps (canonicalizeGraph,
 * planGraph, assignLayouts, tunePlan), each in its own span.
 */
sm::runtime::ExecutionPlan compileSplit(const sm::ir::Graph &raw,
                                        Tracer &tracer,
                                        CompileSplit *split);

/** True when serializePlan(split) equals that of compileStage(raw, 3). */
bool splitMatchesShipped(const sm::ir::Graph &raw,
                         const sm::runtime::ExecutionPlan &split,
                         Tracer &tracer);

/** One cpu-blocked run under an "exec.run" span. */
std::vector<sm::exec::Tensor>
runPlan(const sm::exec::CpuBackend &backend,
        const sm::runtime::ExecutionPlan &plan,
        const std::map<sm::ir::ValueId, sm::exec::Tensor> &inputs,
        Tracer &tracer, double *ms,
        sm::exec::CpuBackendStats *stats = nullptr);

/** Outputs equal in shape and within kTolerance of the reference. */
bool outputsMatch(const std::vector<sm::exec::Tensor> &ref,
                  const std::vector<sm::exec::Tensor> &got);

/** Outputs equal byte for byte. */
bool outputsIdentical(const std::vector<sm::exec::Tensor> &a,
                      const std::vector<sm::exec::Tensor> &b);

/**
 * Stage-3 cpu-blocked run of the tiny variant of `model` against
 * exec::Executor on the raw graph, at the workload seed.  Adds the
 * reference executor's time to *referenceMs.
 */
bool checkTinyVariant(const std::string &model, int threads,
                      std::uint64_t seed, Tracer &tracer,
                      double *referenceMs);

/**
 * Full-size check: the stage-3 plan run at (kRefSeed, kRefSalt)
 * against the outputs recorded from exec::Executor.
 */
bool checkFullSize(const std::string &model,
                   const sm::runtime::ExecutionPlan &plan, int threads,
                   const std::string &refDir, Tracer &tracer);

/** Record the reference outputs of the full-size models (Swin and
 *  ResNext) with exec::Executor at (kRefSeed, kRefSalt). */
int recordReferences(const std::string &refDir);

/** Per-layer totals of a traced run, summed over its models. */
struct LayerTotals
{
    std::vector<double> buildMs, canonicalizeMs, planMs, layoutMs,
        tuneMs;
    double opsBefore = 0, opsAfter = 0, attentionFused = 0, kernels = 0;
    sm::exec::CpuBackendStats exec;
    double weightsMs = 0, weightsBytes = 0;
    double macs = 0, bytesMoved = 0;
    double stage0Ms = 0, stage3Ms = 0;
    double run1tMs = 0, run4tMs = 0;
    double referenceTinyMs = 0;

    /** Add one model's split compile in set-up `rep`: timings of one
     *  set-up are summed over its models, counts are taken once. */
    void addSplit(const CompileSplit &s, double buildMs, std::size_t rep);
    void addExecStats(const sm::exec::CpuBackendStats &s);
    /** Write every models./opt./core./exec./runtime./cost. metric. */
    void write(Report &report) const;
};

/**
 * Traced measurements of one stage-3 plan beyond its timed runs:
 * synthesized weights, the cost model, a stage-0 plan and a run at
 * the other thread count (1 vs 4).  `stage3Ms` is the measured
 * stage-3 run time at `threads`.
 */
void measurePlanLayers(const sm::ir::Graph &raw,
                       const sm::runtime::ExecutionPlan &plan,
                       int threads, std::uint64_t seed, double stage3Ms,
                       int reps, Tracer &tracer, LayerTotals *totals);

/** Process peak resident set, MiB. */
double peakRssMb();

void runClosedLoop(RunContext &ctx, const std::string &model, int threads);
void runServeMix(RunContext &ctx);

} // namespace smbench

#endif // SMBENCH_BENCH_H
