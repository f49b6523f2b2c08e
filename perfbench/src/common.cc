#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.h"
#include "core/layout_select.h"
#include "core/planner.h"
#include "core/smartmem_compiler.h"
#include "core/tuner.h"
#include "cost/kernel_cost.h"
#include "device/device_registry.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "models/models.h"
#include "serialize/plan_text.h"
#include "serve/request.h"

namespace smbench {

using namespace sm;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** The fusion policy compileStage uses at stage 3 (LTE and index-map
 *  simplification on). */
core::FusionPolicy
stage3Fusion()
{
    core::FusionPolicy p;
    p.fuseEltwiseChains = true;
    p.fuseEltwiseIntoIld = true;
    p.fusePreChains = true;
    p.fuseNormMatmulPrologue = true;
    p.maxPostOps = 64;
    p.fuseAttentionBlock = true;
    p.fuseTransformChains = true;
    p.eliminateTransforms = true;
    p.simplifyIndexMaps = true;
    return p;
}

/** Full-size models with recorded reference outputs. */
const std::vector<std::string> &
referenceModels()
{
    static const std::vector<std::string> models = {"Swin", "ResNext"};
    return models;
}

std::string
referencePath(const std::string &refDir, const std::string &model)
{
    return refDir + "/" + model + ".ref";
}

bool
writeReference(const std::string &path,
               const std::vector<exec::Tensor> &outputs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "smbench-ref v1\noutputs %zu\n", outputs.size());
    for (const exec::Tensor &t : outputs) {
        std::fprintf(f, "shape");
        for (int d = 0; d < t.shape().rank(); ++d)
            std::fprintf(f, " %lld",
                         static_cast<long long>(t.shape().dim(d)));
        std::fprintf(f, "\n");
        for (std::int64_t i = 0; i < t.numElements(); ++i)
            std::fprintf(f, "%a\n", static_cast<double>(t.at(i)));
    }
    return std::fclose(f) == 0;
}

bool
readReference(const std::string &path, std::vector<exec::Tensor> *outputs)
{
    std::ifstream in(path);
    std::string magic, version, word;
    std::size_t n = 0;
    if (!(in >> magic >> version) || magic != "smbench-ref" ||
        version != "v1" || !(in >> word >> n) || word != "outputs")
        return false;
    std::string line;
    std::getline(in, line);
    outputs->clear();
    for (std::size_t o = 0; o < n; ++o) {
        if (!std::getline(in, line))
            return false;
        std::istringstream ls(line);
        if (!(ls >> word) || word != "shape")
            return false;
        std::vector<std::int64_t> dims;
        long long d = 0;
        while (ls >> d)
            dims.push_back(d);
        exec::Tensor t{ir::Shape(dims)};
        for (std::int64_t i = 0; i < t.numElements(); ++i) {
            if (!std::getline(in, line))
                return false;
            char *end = nullptr;
            t.at(i) = std::strtof(line.c_str(), &end);
            if (end == line.c_str())
                return false;
        }
        outputs->push_back(std::move(t));
    }
    return true;
}

} // namespace

const device::DeviceProfile &
planDevice()
{
    return device::DeviceRegistry::builtins().find(kPlanDevice);
}

exec::CpuBackendOptions
backendOptions(int threads, std::uint64_t seed)
{
    exec::CpuBackendOptions o;
    o.threads = threads;
    o.seed = seed;
    const exec::TileParams tiles = exec::resolveTileParams(planDevice());
    o.gemmRowTile = tiles.rowTile;
    o.gemmKBlock = tiles.kBlock;
    return o;
}

std::uint64_t
inputSaltFor(std::uint64_t seed)
{
    return seed * 7919 + 17;
}

runtime::ExecutionPlan
compileShipped(const ir::Graph &raw, Tracer &tracer, double *ms)
{
    Tracer::Scope span(tracer, "core.compile_stage");
    runtime::ExecutionPlan plan = core::compileStage(raw, planDevice(), 3);
    const double t = span.stop();
    if (ms)
        *ms = t;
    return plan;
}

double
processCpuMs()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_nsec) / 1e6;
}

double
timeCompile(const std::vector<ir::Graph> &raws, Tracer &tracer)
{
    const double start = processCpuMs();
    for (const ir::Graph &raw : raws)
        compileShipped(raw, tracer);
    return processCpuMs() - start;
}

runtime::ExecutionPlan
compileSplit(const ir::Graph &raw, Tracer &tracer, CompileSplit *split)
{
    const device::DeviceProfile &dev = planDevice();
    opt::PipelineStats ps;
    ir::Graph g;
    {
        Tracer::Scope span(tracer, "opt.canonicalize");
        g = core::canonicalizeGraph(raw, &ps);
        split->canonicalizeMs = span.stop();
    }
    split->opsBefore = raw.operatorCount();
    split->opsAfter = g.operatorCount();
    split->attentionFused = g.countKind(ir::OpKind::FusedAttention);

    runtime::ExecutionPlan plan;
    {
        Tracer::Scope span(tracer, "core.plan");
        plan = core::planGraph(g, stage3Fusion());
        split->planMs = span.stop();
    }
    plan.compilerName = "SmartMem";
    {
        Tracer::Scope span(tracer, "core.layout_select");
        core::assignLayouts(plan,
                            dev.hasTexture
                                ? core::LayoutStrategy::SmartSelect
                                : core::LayoutStrategy::SmartSelectBufferOnly,
                            dev, true);
        split->layoutMs = span.stop();
    }
    {
        Tracer::Scope span(tracer, "core.tune");
        core::tunePlan(plan, dev);
        split->tuneMs = span.stop();
    }
    return plan;
}

bool
splitMatchesShipped(const ir::Graph &raw,
                    const runtime::ExecutionPlan &split, Tracer &tracer)
{
    const runtime::ExecutionPlan shipped = compileShipped(raw, tracer);
    return serialize::serializePlan(split) ==
           serialize::serializePlan(shipped);
}

std::vector<exec::Tensor>
runPlan(const exec::CpuBackend &backend,
        const runtime::ExecutionPlan &plan,
        const std::map<ir::ValueId, exec::Tensor> &inputs,
        Tracer &tracer, double *ms, exec::CpuBackendStats *stats)
{
    Tracer::Scope span(tracer, "exec.run");
    std::vector<exec::Tensor> out = backend.run(plan, inputs, stats);
    const double t = span.stop();
    if (ms)
        *ms = t;
    return out;
}

bool
outputsMatch(const std::vector<exec::Tensor> &ref,
             const std::vector<exec::Tensor> &got)
{
    if (ref.empty() || ref.size() != got.size())
        return false;
    for (std::size_t i = 0; i < ref.size(); ++i)
        if (!(ref[i].shape() == got[i].shape()))
            return false;
    return exec::maxRelDiff(ref, got) <= kTolerance;
}

bool
outputsIdentical(const std::vector<exec::Tensor> &a,
                 const std::vector<exec::Tensor> &b)
{
    if (a.empty() || a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].shape() == b[i].shape()))
            return false;
        const auto bytes =
            static_cast<std::size_t>(a[i].numElements()) * sizeof(float);
        if (std::memcmp(a[i].data(), b[i].data(), bytes) != 0)
            return false;
    }
    return true;
}

bool
checkTinyVariant(const std::string &model, int threads,
                 std::uint64_t seed, Tracer &tracer, double *referenceMs)
{
    const ir::Graph raw = models::buildTinyVariant(model, 1);
    const runtime::ExecutionPlan plan = compileShipped(raw, tracer);
    const std::uint64_t salt = inputSaltFor(seed);
    const exec::CpuBackend backend(backendOptions(threads, seed));
    const auto got = runPlan(backend, plan,
                             serve::makeRequestInputs(plan.graph, seed,
                                                      salt),
                             tracer, nullptr);
    std::vector<exec::Tensor> ref;
    {
        Tracer::Scope span(tracer, "exec.reference");
        ref = exec::Executor(seed).runOutputs(
            raw, serve::makeRequestInputs(raw, seed, salt));
        *referenceMs += span.stop();
    }
    const bool ok = outputsMatch(ref, got);
    if (!ok)
        std::fprintf(stderr, "smbench: tiny:%s differs from the "
                             "reference executor\n",
                     model.c_str());
    return ok;
}

bool
checkFullSize(const std::string &model, const runtime::ExecutionPlan &plan,
              int threads, const std::string &refDir, Tracer &tracer)
{
    std::vector<exec::Tensor> ref;
    if (!readReference(referencePath(refDir, model), &ref)) {
        std::fprintf(stderr, "smbench: no reference outputs at %s\n",
                     referencePath(refDir, model).c_str());
        return false;
    }
    const exec::CpuBackend backend(backendOptions(threads, kRefSeed));
    const auto got = runPlan(
        backend, plan,
        serve::makeRequestInputs(plan.graph, kRefSeed, kRefSalt), tracer,
        nullptr);
    const bool ok = outputsMatch(ref, got);
    if (!ok)
        std::fprintf(stderr, "smbench: %s differs from its recorded "
                             "reference outputs\n",
                     model.c_str());
    return ok;
}

int
recordReferences(const std::string &refDir)
{
    for (const std::string &model : referenceModels()) {
        const ir::Graph raw = models::buildModel(model, 1);
        std::fprintf(stderr, "recording %s reference outputs...\n",
                     model.c_str());
        const auto ref = exec::Executor(kRefSeed).runOutputs(
            raw, serve::makeRequestInputs(raw, kRefSeed, kRefSalt));
        if (!writeReference(referencePath(refDir, model), ref)) {
            std::fprintf(stderr, "cannot write %s\n",
                         referencePath(refDir, model).c_str());
            return 1;
        }
    }
    return 0;
}

void
LayerTotals::addSplit(const CompileSplit &s, double build, std::size_t rep)
{
    auto add = [rep](std::vector<double> &v, double x) {
        if (v.size() <= rep)
            v.resize(rep + 1, 0.0);
        v[rep] += x;
    };
    add(buildMs, build);
    add(canonicalizeMs, s.canonicalizeMs);
    add(planMs, s.planMs);
    add(layoutMs, s.layoutMs);
    add(tuneMs, s.tuneMs);
    if (rep == 0) {
        opsBefore += s.opsBefore;
        opsAfter += s.opsAfter;
        attentionFused += s.attentionFused;
    }
}

void
LayerTotals::addExecStats(const exec::CpuBackendStats &s)
{
    exec.substitutesMaterialized += s.substitutesMaterialized;
    exec.bytesRelayouted += s.bytesRelayouted;
    exec.fusedAttentionKernels += s.fusedAttentionKernels;
    exec.scoreBytesAvoided += s.scoreBytesAvoided;
    exec.fusedEpilogueOps += s.fusedEpilogueOps;
    exec.nativeLayoutViews += s.nativeLayoutViews;
    exec.nativeLayoutStores += s.nativeLayoutStores;
    exec.poolHighWaterBytes += s.poolHighWaterBytes;
    exec.poolReuses += s.poolReuses;
}

void
LayerTotals::write(Report &r) const
{
    // Compile steps: medians over set-ups of the per-set-up sums.
    const auto n = static_cast<std::int64_t>(buildMs.size());
    r.set("models.build_ms", median(buildMs), n);
    r.set("opt.canonicalize_ms", median(canonicalizeMs), n);
    r.set("core.plan_ms", median(planMs), n);
    r.set("core.layout_select_ms", median(layoutMs), n);
    r.set("core.tune_ms", median(tuneMs), n);
    r.set("opt.ops_before", opsBefore);
    r.set("opt.ops_after", opsAfter);
    r.set("opt.attention_fused", attentionFused);
    r.set("core.kernels", kernels);
    r.set("core.lte_gain", stage3Ms > 0 ? stage0Ms / stage3Ms : 0);
    r.set("exec.gathers", exec.substitutesMaterialized);
    r.set("exec.relayout_mb", exec.bytesRelayouted / kMiB);
    r.set("exec.attn_kernels", exec.fusedAttentionKernels);
    r.set("exec.score_mb_avoided", exec.scoreBytesAvoided / kMiB);
    r.set("exec.weights_ms", weightsMs);
    r.set("exec.weights_mb", weightsBytes / kMiB);
    r.set("exec.run_1t_over_4t", run4tMs > 0 ? run1tMs / run4tMs : 0);
    r.set("exec.epilogue_ops", exec.fusedEpilogueOps);
    r.set("exec.native_views", exec.nativeLayoutViews);
    r.set("exec.native_stores", exec.nativeLayoutStores);
    r.set("exec.reference_tiny_ms", referenceTinyMs);
    r.set("runtime.pool_peak_mb", exec.poolHighWaterBytes / kMiB);
    r.set("runtime.pool_reuses", static_cast<double>(exec.poolReuses));
    r.set("cost.gmacs", macs / 1e9);
    r.set("cost.bytes_moved_mb", bytesMoved / kMiB);
    r.set("cost.achieved_gflops",
          stage3Ms > 0 ? 2.0 * macs / (stage3Ms * 1e-3) / 1e9 : 0);
}

void
measurePlanLayers(const ir::Graph &raw, const runtime::ExecutionPlan &plan,
                  int threads, std::uint64_t seed, double stage3Ms,
                  int reps, Tracer &tracer, LayerTotals *totals)
{
    const device::DeviceProfile &dev = planDevice();
    totals->kernels += plan.operatorCount();
    totals->stage3Ms += stage3Ms;

    // Weight synthesis: every constant any kernel reads, once each.
    {
        std::set<ir::ValueId> constants;
        for (const runtime::Kernel &k : plan.kernels)
            for (ir::NodeId nid : k.fusedNodes)
                for (ir::ValueId v : plan.graph.node(nid).inputs)
                    if (plan.graph.node(plan.graph.value(v).producer)
                            .kind == ir::OpKind::Constant)
                        constants.insert(v);
        const exec::Executor synth(seed);
        Tracer::Scope span(tracer, "exec.weights");
        for (ir::ValueId v : constants)
            totals->weightsBytes +=
                4.0 * synth.synthesizeConstant(plan.graph, v)
                          .numElements();
        totals->weightsMs += span.stop();
    }

    {
        Tracer::Scope span(tracer, "cost.plan");
        const cost::PlanCost pc = cost::costPlan(dev, plan);
        totals->macs += static_cast<double>(pc.macs);
        totals->bytesMoved += static_cast<double>(pc.bytesMoved);
    }

    auto medianRun = [&](const runtime::ExecutionPlan &p, int nThreads) {
        const auto inputs =
            serve::makeRequestInputs(p.graph, seed, inputSaltFor(seed));
        const exec::CpuBackend backend(backendOptions(nThreads, seed));
        std::vector<double> ms;
        for (int i = 0; i < reps; ++i) {
            double t = 0;
            runPlan(backend, p, inputs, tracer, &t);
            ms.push_back(t);
        }
        return median(ms);
    };

    // Layout-transformation elimination: the same model at stage 0.
    runtime::ExecutionPlan plan0;
    {
        Tracer::Scope span(tracer, "core.compile_stage0");
        plan0 = core::compileStage(raw, dev, 0);
    }
    totals->stage0Ms += medianRun(plan0, threads);

    // Thread scaling: the run at the other thread count.
    const double other = medianRun(plan, threads == 1 ? 4 : 1);
    totals->run1tMs += threads == 1 ? stage3Ms : other;
    totals->run4tMs += threads == 1 ? other : stage3Ms;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace smbench
