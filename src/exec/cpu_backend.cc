#include "exec/cpu_backend.h"

#include <chrono>
#include <cstring>

#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "exec/weight_store.h"
#include "index/index_map.h"
#include "runtime/memory_pool.h"
#include "support/error.h"

namespace smartmem::exec {

using ir::Layout;
using ir::Node;
using ir::OpKind;
using ir::Shape;
using ir::ValueId;
using runtime::ExecutionPlan;
using runtime::Kernel;
using runtime::KernelInput;

namespace {

bool
isRowMajorLayout(const Layout &l)
{
    if (l.packedDim() >= 0)
        return false;
    const auto &ord = l.order();
    for (std::size_t i = 0; i < ord.size(); ++i)
        if (ord[i] != static_cast<int>(i))
            return false;
    return true;
}

/** Offset contribution of logical coordinate c on dimension d. */
inline std::int64_t
dimContribution(std::int64_t c, std::int64_t stride, bool packed)
{
    return packed ? (c / 4) * stride + c % 4 : c * stride;
}

/**
 * Strided accessor over a buffer stored in a non-row-major layout.
 * At most one dimension (packedDim) is vec4-packed -- its offset
 * contribution is (c/4)*stride + c%4; every other dim is affine.
 * Normalization: a packed dim whose raw stride equals the pack factor
 * (texture x-axis, packed-innermost) or whose extent fits one lane
 * group contributes exactly c, so it is rewritten to an affine dim of
 * stride 1 -- that is what makes flat-texture operands directly
 * consumable by the SIMD GEMM.
 */
struct NativeView
{
    const float *data = nullptr;
    std::vector<std::int64_t> str;
    int packedDim = -1;
};

NativeView
makeNativeView(const float *data, const Layout &l, const Shape &shape)
{
    NativeView v;
    v.data = data;
    v.str = l.strides(shape);
    v.packedDim = l.packedDim();
    if (v.packedDim >= 0) {
        auto &s = v.str[static_cast<std::size_t>(v.packedDim)];
        if (s == 4 || shape.dim(v.packedDim) <= 4) {
            s = 1;
            v.packedDim = -1;
        }
    }
    return v;
}

/** Physical offset of each flattened leading-dims index (matmul batch
 *  coordinates), honoring a packed batch dim. */
std::vector<std::int64_t>
batchOffsets(const NativeView &vw, const Shape &s, int nBatchDims,
             std::int64_t batch)
{
    std::vector<std::int64_t> off(static_cast<std::size_t>(batch), 0);
    std::vector<std::int64_t> coord(
        static_cast<std::size_t>(nBatchDims), 0);
    for (std::int64_t bi = 0; bi < batch; ++bi) {
        std::int64_t o = 0;
        for (int d = 0; d < nBatchDims; ++d)
            o += dimContribution(coord[static_cast<std::size_t>(d)],
                                 vw.str[static_cast<std::size_t>(d)],
                                 d == vw.packedDim);
        off[static_cast<std::size_t>(bi)] = o;
        for (int d = nBatchDims - 1; d >= 0; --d) {
            const auto di = static_cast<std::size_t>(d);
            if (++coord[di] < s.dim(d))
                break;
            coord[di] = 0;
        }
    }
    return off;
}

/** A value materialized while executing one kernel.  Usually a
 *  row-major scratch view; a kernel whose anchor op stored its result
 *  directly in the kernel's chosen output layout sets inOutLayout so
 *  publishOutput() can skip the repack. */
struct LocalBuf
{
    const float *data = nullptr;
    bool owned = false; // release to the pool at kernel end
    bool inOutLayout = false;
};

/** A stored (value, copy) in its chosen physical layout. */
struct StoredBuf
{
    const float *data = nullptr;
    bool owned = false; // pool-owned (false: borrowed input/constant)
    Layout layout;
};

// -------------------------------------------------------------------
// prepare(): resident weights and planned copies
// -------------------------------------------------------------------

/** Every constant the runner reads: kernel input sources, fused node
 *  operands (a transformation reads only its data operand; a
 *  Gather's indices are baked into its map), and graph outputs. */
std::vector<ValueId>
constantsRead(const ExecutionPlan &plan)
{
    const ir::Graph &g = plan.graph;
    std::vector<char> seen(g.values().size(), 0);
    std::vector<ValueId> ids;
    auto add = [&](ValueId v) {
        if (!seen[v] && g.node(g.value(v).producer).kind ==
                            OpKind::Constant) {
            seen[v] = 1;
            ids.push_back(v);
        }
    };
    for (const Kernel &k : plan.kernels) {
        for (const KernelInput &in : k.inputs)
            add(in.source);
        for (ir::NodeId nid : k.fusedNodes) {
            const Node &node = g.node(nid);
            if (index::IndexMap::isEliminable(node.kind))
                add(node.inputs[0]);
            else
                for (ValueId v : node.inputs)
                    add(v);
        }
    }
    for (ValueId v : g.outputIds())
        add(v);
    return ids;
}

std::shared_ptr<const PreparedPlan>
prepareOn(const ExecutionPlan &plan, std::uint64_t seed,
          const ParallelRunner &par)
{
    const auto start = std::chrono::steady_clock::now();
    const ir::Graph &g = plan.graph;
    auto p = std::make_shared<PreparedPlan>();
    p->plan = &plan;
    p->seed = seed;

    const std::vector<ValueId> ids = constantsRead(plan);
    std::vector<ConstantRecipe> recipes;
    recipes.reserve(ids.size());
    for (ValueId v : ids) {
        recipes.push_back(constantRecipe(g, v, seed));
        p->weightBytes += recipes.back().bytes();
    }
    p->pins = WeightStore::global().acquire(recipes, par,
                                            &p->weightsSynthesized);
    p->weights.assign(g.values().size(), nullptr);
    for (std::size_t i = 0; i < ids.size(); ++i)
        p->weights[ids[i]] = p->pins[i].get();

    p->lastUse = runtime::lastUses(plan);

    // Every stored (value, copy) has a static layout: its producing
    // kernel's, or row-major for model inputs and constants.
    std::map<std::pair<ValueId, int>, const Layout *> produced;
    for (const Kernel &k : plan.kernels)
        produced[{k.output, k.copyIndex}] = &k.outLayout;
    auto storedLayout = [&](ValueId v, int copy) {
        auto it = produced.find({v, copy});
        return it != produced.end()
                   ? *it->second
                   : Layout::rowMajor(g.value(v).shape.rank());
    };
    auto shapeOf = [&g](ValueId v) -> const Shape & {
        return g.value(v).shape;
    };

    p->kernels.resize(plan.kernels.size());
    for (std::size_t ki = 0; ki < plan.kernels.size(); ++ki) {
        const Kernel &k = plan.kernels[ki];
        PreparedPlan::KernelCopies &kc = p->kernels[ki];
        const Shape &os = shapeOf(k.output);
        if (k.fusedNodes.empty()) {
            SM_REQUIRE(k.isLayoutCopy && k.inputs.size() == 1,
                       "empty kernel must be a one-input layout copy: " +
                           k.name);
            const KernelInput &in = k.inputs[0];
            kc.store = planRelayout(
                os, storedLayout(in.source, in.sourceCopy), k.outLayout);
            continue;
        }
        for (const KernelInput &in : k.inputs) {
            std::optional<StridedCopy> &cp = kc.inputs.emplace_back();
            if (in.substitute != in.source) {
                // Eliminated chain: read the stored source through the
                // composed map -- one pass for the whole chain.
                SM_REQUIRE(in.readMap.has_value(),
                           "substituted input without a read map in " +
                               k.name);
                cp = planStridedCopy(
                    *in.readMap,
                    in.internalSource
                        ? Layout::rowMajor(shapeOf(in.source).rank())
                        : storedLayout(in.source, in.sourceCopy),
                    shapeOf(in.source),
                    Layout::rowMajor(shapeOf(in.substitute).rank()));
                continue;
            }
            const Layout src = storedLayout(in.source, in.sourceCopy);
            if (!isRowMajorLayout(src)) // unpack into the compute view
                cp = planRelayout(
                    shapeOf(in.source), src,
                    Layout::rowMajor(shapeOf(in.source).rank()));
        }
        kc.store = planRelayout(os, Layout::rowMajor(os.rank()),
                                k.outLayout);
        for (ir::NodeId nid : k.fusedNodes) {
            const Node &node = g.node(nid);
            if (!index::IndexMap::isEliminable(node.kind))
                continue;
            const Shape &xs = shapeOf(node.inputs[0]);
            p->transforms.emplace(
                nid, planStridedCopy(
                         index::IndexMap::fromNode(g, node).simplified(),
                         Layout::rowMajor(xs.rank()), xs,
                         Layout::rowMajor(shapeOf(node.output).rank())));
        }
    }
    for (ValueId v : g.outputIds())
        p->outputs.push_back(planRelayout(
            shapeOf(v), storedLayout(v, 0),
            Layout::rowMajor(shapeOf(v).rank())));

    p->prepareMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return p;
}

// -------------------------------------------------------------------
// PlanRunner: one run of a prepared plan
// -------------------------------------------------------------------

class PlanRunner
{
  public:
    PlanRunner(const PreparedPlan &prep,
               const std::map<ValueId, Tensor> &inputs,
               const CpuBackendOptions &opts, const ParallelRunner &par)
        : plan_(*prep.plan), graph_(plan_.graph), prep_(prep),
          inputs_(inputs), par_(par), simd_(activeSimdLevel())
    {
        if (opts.gemmRowTile > 0)
            tiles_.rowTile = opts.gemmRowTile;
        if (opts.gemmKBlock > 0)
            tiles_.kBlock = opts.gemmKBlock;
    }

    std::vector<Tensor> run(CpuBackendStats *stats_out);

  private:
    const Shape &shapeOf(ValueId v) const
    {
        return graph_.value(v).shape;
    }

    float *alloc(std::int64_t elems)
    {
        return pool_.allocateFloats(elems);
    }

    /** Row-major constant contents, resident in the weight store
     *  (the paper's weights stay in memory). */
    const float *constantData(ValueId v) const;

    /** The stored buffer for (value, copy), falling back to model
     *  inputs and constants for copy 0. */
    StoredBuf resolveStored(ValueId v, int copy);

    /** Row-major view of `v` inside the current kernel, materializing
     *  substitutes through their read maps on first use. */
    const float *resolveLocal(const Kernel &k, ValueId v);

    /** Strided view of `v`'s *stored* buffer for layout-native
     *  consumption, or nullopt when the value must go through
     *  resolveLocal (already materialized locally, substituted through
     *  a read map, or stored row-major anyway). */
    std::optional<NativeView> tryStoredView(const Kernel &k, ValueId v);

    /** Stride view of the kernel's output layout when the anchor op
     *  may store into it directly: single-node kernel whose node
     *  produces the kernel output in a non-row-major layout. */
    std::optional<NativeView> tryNativeStore(const Kernel &k,
                                             const Node &node);

    void runRelayoutKernel(const Kernel &k);
    void runComputeKernel(const Kernel &k);
    void evalNodeBlocked(const Kernel &k, const Node &node);

    /** Append the steps of element-wise `node` as a chain head and
     *  return the output-shaped buffer the chain reads. */
    const float *chainHead(const Kernel &k, const Node &node,
                           std::vector<EltwiseStep> *steps);

    /** The step of binary `node` reading operand `other`, expanded
     *  first when it spans two or more runs of output dims. */
    EltwiseStep operandStep(const Kernel &k, const Node &node,
                            ValueId other, bool reversed);

    /** `v` broadcast to `shape` by one strided copy (released after
     *  the chain runs). */
    const float *expand(const Kernel &k, ValueId v, const Shape &shape);

    /** Append `next` to the chain ending in `cur` if it can run in the
     *  same pass. */
    bool tryFoldEpilogue(const Kernel &k, ValueId cur, const Node &next,
                         std::vector<EltwiseStep> *steps);
    void publishOutput(const Kernel &k);
    void releaseDead(std::size_t kernel_idx);

    /** Fallback for rare ops: copy row-major locals into reference
     *  Tensors and reuse exec::evalNode. */
    void evalViaReference(const Kernel &k, const Node &node);

    const ExecutionPlan &plan_;
    const ir::Graph &graph_;
    const PreparedPlan &prep_;
    const std::map<ValueId, Tensor> &inputs_;
    const ParallelRunner &par_;
    SimdLevel simd_;
    TileParams tiles_;
    runtime::BufferPool pool_;
    CpuBackendStats stats_;

    std::map<std::pair<ValueId, int>, StoredBuf> env_;

    // Per-kernel state.
    const PreparedPlan::KernelCopies *copies_ = nullptr;
    std::map<ValueId, LocalBuf> locals_;
    std::map<ValueId, std::size_t> inputBySubstitute_; // index in k.inputs
    std::vector<float *> expanded_; // broadcast operands of one chain
};

const float *
PlanRunner::constantData(ValueId v) const
{
    const float *w = prep_.weights[v];
    SM_ASSERT(w != nullptr, "constant " + std::to_string(v) +
                                " was not prepared");
    return w;
}

StoredBuf
PlanRunner::resolveStored(ValueId v, int copy)
{
    auto it = env_.find({v, copy});
    if (it != env_.end())
        return it->second;
    SM_ASSERT(copy == 0, "missing stored copy of value " +
                             std::to_string(v));
    const Node &producer = graph_.node(graph_.value(v).producer);
    if (producer.kind == OpKind::Input) {
        auto in = inputs_.find(v);
        SM_REQUIRE(in != inputs_.end(),
                   "missing model input: " + producer.name);
        SM_REQUIRE(in->second.shape() == shapeOf(v),
                   "input shape mismatch: " + producer.name);
        return {in->second.data(), false,
                Layout::rowMajor(shapeOf(v).rank())};
    }
    if (producer.kind == OpKind::Constant) {
        return {constantData(v), false,
                Layout::rowMajor(shapeOf(v).rank())};
    }
    smPanic("value " + std::to_string(v) +
            " read before it was produced");
}

const float *
PlanRunner::resolveLocal(const Kernel &k, ValueId v)
{
    auto lit = locals_.find(v);
    if (lit != locals_.end())
        return lit->second.data;

    auto kit = inputBySubstitute_.find(v);
    if (kit != inputBySubstitute_.end()) {
        const KernelInput &in = k.inputs[kit->second];
        const std::optional<StridedCopy> &copy =
            copies_->inputs[kit->second];
        if (in.substitute != in.source) {
            // Eliminated chain: the prepared gather through the
            // composed map.
            const float *src_data = nullptr;
            if (in.internalSource) {
                auto sit = locals_.find(in.source);
                SM_ASSERT(sit != locals_.end(),
                          "internal source not yet produced in " +
                              k.name);
                src_data = sit->second.data;
            } else {
                src_data = resolveStored(in.source, in.sourceCopy).data;
            }
            float *dst = alloc(shapeOf(v).numElements());
            runStridedCopy(*copy, src_data, dst, par_);
            ++stats_.substitutesMaterialized;
            locals_[v] = {dst, true};
            return dst;
        }
        StoredBuf s = resolveStored(in.source, in.sourceCopy);
        if (!copy) { // stored row-major: read in place
            locals_[v] = {s.data, false};
            return s.data;
        }
        // Unpack the chosen physical layout into the compute view.
        const Shape &shape = shapeOf(v);
        float *dst = alloc(shape.numElements());
        runStridedCopy(*copy, s.data, dst, par_);
        stats_.bytesRelayouted +=
            shape.numElements() *
            static_cast<std::int64_t>(sizeof(float));
        locals_[v] = {dst, true};
        return dst;
    }

    // Not an external kernel input: constants (implicit inputs) and,
    // defensively, model inputs.
    const Node &producer = graph_.node(graph_.value(v).producer);
    if (producer.kind == OpKind::Constant)
        return constantData(v);
    if (producer.kind == OpKind::Input) {
        StoredBuf s = resolveStored(v, 0);
        return s.data;
    }
    smPanic("fused node input not available in " + k.name + ": value " +
            std::to_string(v));
}

std::optional<NativeView>
PlanRunner::tryStoredView(const Kernel &k, ValueId v)
{
    if (locals_.count(v))
        return std::nullopt; // already materialized row-major
    auto kit = inputBySubstitute_.find(v);
    if (kit == inputBySubstitute_.end())
        return std::nullopt; // constant / implicit input (row-major)
    const KernelInput &in = k.inputs[kit->second];
    if (in.substitute != in.source)
        return std::nullopt; // read-map chain: materialize instead
    StoredBuf s = resolveStored(in.source, in.sourceCopy);
    if (isRowMajorLayout(s.layout))
        return std::nullopt; // zero-copy row-major path is free
    return makeNativeView(s.data, s.layout, shapeOf(v));
}

std::optional<NativeView>
PlanRunner::tryNativeStore(const Kernel &k, const Node &node)
{
    if (k.fusedNodes.size() != 1 || node.output != k.output)
        return std::nullopt;
    if (isRowMajorLayout(k.outLayout))
        return std::nullopt;
    return makeNativeView(nullptr, k.outLayout, shapeOf(node.output));
}

void
PlanRunner::runRelayoutKernel(const Kernel &k)
{
    const KernelInput &in = k.inputs[0];
    StoredBuf src = resolveStored(in.source, in.sourceCopy);
    const Shape &shape = shapeOf(k.output);
    float *dst = alloc(k.outLayout.storageElements(shape));
    runStridedCopy(copies_->store, src.data, dst, par_);
    stats_.bytesRelayouted +=
        shape.numElements() * static_cast<std::int64_t>(sizeof(float));
    ++stats_.relayoutKernels;
    env_[{k.output, k.copyIndex}] = {dst, true, k.outLayout};
}

const float *
PlanRunner::chainHead(const Kernel &k, const Node &node,
                      std::vector<EltwiseStep> *steps)
{
    const ValueId a = node.inputs[0];
    if (ir::isUnaryElementwise(node.kind)) {
        steps->push_back(unaryStep(node));
        return resolveLocal(k, a);
    }
    // Read an operand that has the output's shape; apply the other one
    // as the step.
    const ValueId b = node.inputs[1];
    const Shape &os = shapeOf(node.output);
    const bool aFull = shapeOf(a).numElements() == os.numElements();
    if (a == b) {
        steps->push_back(EltwiseStep{node.kind});
    } else if (!aFull && shapeOf(b).numElements() == os.numElements()) {
        steps->push_back(operandStep(k, node, a, /*reversed=*/true));
        return resolveLocal(k, b);
    } else {
        steps->push_back(operandStep(k, node, b, /*reversed=*/false));
    }
    return aFull ? resolveLocal(k, a) : expand(k, a, os);
}

EltwiseStep
PlanRunner::operandStep(const Kernel &k, const Node &node, ValueId other,
                        bool reversed)
{
    const Shape &os = shapeOf(node.output);
    if (auto step = binaryStep(node.kind, resolveLocal(k, other),
                               shapeOf(other), os, reversed))
        return *step;
    return *binaryStep(node.kind, expand(k, other, os), os, os, reversed);
}

const float *
PlanRunner::expand(const Kernel &k, ValueId v, const Shape &shape)
{
    float *full = alloc(shape.numElements());
    runStridedCopy(planBroadcast(shapeOf(v), shape), resolveLocal(k, v),
                   full, par_);
    expanded_.push_back(full);
    ++stats_.broadcastExpansions;
    return full;
}

bool
PlanRunner::tryFoldEpilogue(const Kernel &k, ValueId cur,
                            const Node &next,
                            std::vector<EltwiseStep> *steps)
{
    // The folded value must die here: consumed only by `next`, not a
    // graph output, and not the source of any read-map input.
    if (graph_.consumers(cur) != std::vector<ir::NodeId>{next.id})
        return false;
    for (ValueId out : graph_.outputIds())
        if (out == cur)
            return false;
    for (const KernelInput &in : k.inputs)
        if (in.source == cur)
            return false;
    if (shapeOf(next.output) != shapeOf(cur))
        return false;

    if (ir::isUnaryElementwise(next.kind)) {
        steps->push_back(unaryStep(next));
        return true;
    }
    if (!ir::isBinaryElementwise(next.kind))
        return false;
    const bool lhs = next.inputs[0] == cur;
    const bool rhs = next.inputs[1] == cur;
    if (lhs && rhs)
        steps->push_back(EltwiseStep{next.kind});
    else
        steps->push_back(operandStep(
            k, next, lhs ? next.inputs[1] : next.inputs[0], rhs));
    return true;
}

void
PlanRunner::evalNodeBlocked(const Kernel &k, const Node &node)
{
    const Shape &os = shapeOf(node.output);
    if (index::IndexMap::isEliminable(node.kind)) {
        // Surviving transformation: one pass through its index map
        // (the same machinery eliminated chains use), planned once.
        const float *x = resolveLocal(k, node.inputs[0]);
        float *out = alloc(os.numElements());
        runStridedCopy(prep_.transforms.at(node.id), x, out, par_);
        locals_[node.output] = {out, true};
        return;
    }
    switch (node.kind) {
      case OpKind::Conv2d:
      case OpKind::GroupConv2d:
      case OpKind::DepthwiseConv2d: {
        const Shape &xs = shapeOf(node.inputs[0]);
        const Shape &ws = shapeOf(node.inputs[1]);
        const std::int64_t stride = node.attrs.getInt("stride", 1);
        const std::int64_t pad = node.attrs.getInt("pad", 0);
        const bool depthwise = node.kind == OpKind::DepthwiseConv2d;

        // Input view: consume a stored packed/texture activation
        // in place when only the channel dim (if any) is packed.
        PlaneLayout xl =
            PlaneLayout::rowMajor(xs.dim(1), xs.dim(2), xs.dim(3));
        const float *x = nullptr;
        if (auto nv = tryStoredView(k, node.inputs[0]);
            nv && xs.rank() == 4 &&
            (nv->packedDim == -1 || nv->packedDim == 1)) {
            x = nv->data;
            xl = PlaneLayout{nv->str[0], nv->str[1], nv->str[2],
                             nv->str[3], nv->packedDim == 1};
            ++stats_.nativeLayoutViews;
        } else {
            x = resolveLocal(k, node.inputs[0]);
        }
        const float *w = resolveLocal(k, node.inputs[1]);
        const float *bias = nullptr;
        std::int64_t biasLen = 1;
        if (node.inputs.size() > 2) {
            // Folded conv+batchnorm bias: per-output-channel add after
            // accumulation, matching evalConv's ordering exactly.
            bias = resolveLocal(k, node.inputs[2]);
            biasLen = shapeOf(node.inputs[2]).numElements();
        }

        // Output view: store straight into the kernel's chosen layout
        // when the im2col GEMM can address it (pixel-linear rows; the
        // channel dim may be vec4-packed).
        PlaneLayout ol =
            PlaneLayout::rowMajor(os.dim(1), os.dim(2), os.dim(3));
        float *out = nullptr;
        bool nativeStore = false;
        if (auto ov = tryNativeStore(k, node);
            ov && os.rank() == 4 &&
            (ov->packedDim == -1 || ov->packedDim == 1) &&
            ov->str[2] == ov->str[3] * os.dim(3)) {
            out = alloc(k.outLayout.storageElements(os));
            ol = PlaneLayout{ov->str[0], ov->str[1], ov->str[2],
                             ov->str[3], ov->packedDim == 1};
            nativeStore = true;
            ++stats_.nativeLayoutStores;
        } else {
            out = alloc(os.numElements());
        }

        if (depthwise) {
            blockedDepthwiseConv2d(x, xl, w, out, ol, xs.dim(0),
                                   xs.dim(1), xs.dim(2), xs.dim(3),
                                   os.dim(2), os.dim(3), ws.dim(2),
                                   ws.dim(3), stride, pad, bias, biasLen,
                                   par_);
        } else {
            const std::int64_t groups = node.attrs.getInt("groups", 1);
            blockedConv2d(x, xl, w, out, ol, xs.dim(0), xs.dim(1),
                          xs.dim(2), xs.dim(3), os.dim(1), os.dim(2),
                          os.dim(3), ws.dim(2), ws.dim(3), stride, pad,
                          groups, bias, biasLen, simd_, tiles_, par_,
                          pool_);
        }
        locals_[node.output] = {out, true, nativeStore};
        return;
      }
      case OpKind::MatMul:
      case OpKind::BatchMatMul: {
        const Shape &as = shapeOf(node.inputs[0]);
        const Shape &bs = shapeOf(node.inputs[1]);
        const bool trans_b = node.attrs.getInt("transB", 0) != 0;
        const std::int64_t m = as.dim(as.rank() - 2);
        const std::int64_t kk = as.dim(as.rank() - 1);
        const std::int64_t n = os.dim(os.rank() - 1);
        std::int64_t batch = 1;
        for (int i = 0; i < os.rank() - 2; ++i)
            batch *= os.dim(i);

        // A stored operand is consumable in place when its matrix
        // dims are affine after normalization (a packed *batch* dim
        // is fine -- it only shifts the per-batch base offset).
        auto matrixDimsAffine = [](const NativeView &nv, int rank) {
            return nv.packedDim != rank - 2 && nv.packedDim != rank - 1;
        };
        auto leadingProduct = [](const Shape &s) {
            std::int64_t p = 1;
            for (int i = 0; i < s.rank() - 2; ++i)
                p *= s.dim(i);
            return p;
        };

        std::vector<std::int64_t> aOff, bOff, cOff;
        MatView av, bv;
        if (auto nv = tryStoredView(k, node.inputs[0]);
            nv && matrixDimsAffine(*nv, as.rank()) &&
            leadingProduct(as) == batch) {
            const auto r = static_cast<std::size_t>(as.rank());
            av.data = nv->data;
            av.rs = nv->str[r - 2];
            av.cs = nv->str[r - 1];
            aOff = batchOffsets(*nv, as, as.rank() - 2, batch);
            av.batchOff = aOff.data();
            ++stats_.nativeLayoutViews;
        } else {
            av.data = resolveLocal(k, node.inputs[0]);
            av.rs = kk;
            av.cs = 1;
            av.batchStride = m * kk;
        }
        if (auto nv = tryStoredView(k, node.inputs[1]);
            nv && matrixDimsAffine(*nv, bs.rank()) &&
            (bs.rank() <= 2 || leadingProduct(bs) == batch)) {
            const auto r = static_cast<std::size_t>(bs.rank());
            bv.data = nv->data;
            bv.rs = nv->str[r - 2];
            bv.cs = nv->str[r - 1];
            if (bs.rank() > 2) {
                bOff = batchOffsets(*nv, bs, bs.rank() - 2, batch);
                bv.batchOff = bOff.data();
            } // else: batchStride 0, one shared matrix
            ++stats_.nativeLayoutViews;
        } else {
            bv.data = resolveLocal(k, node.inputs[1]);
            bv.rs = trans_b ? kk : n;
            bv.cs = 1;
            bv.batchStride = bs.rank() > 2 ? kk * n : 0;
        }

        MatMutView cv;
        float *out = nullptr;
        bool nativeStore = false;
        if (auto ov = tryNativeStore(k, node);
            ov && matrixDimsAffine(*ov, os.rank())) {
            const auto r = static_cast<std::size_t>(os.rank());
            out = alloc(k.outLayout.storageElements(os));
            cv.data = out;
            cv.rs = ov->str[r - 2];
            cv.cs = ov->str[r - 1];
            cOff = batchOffsets(*ov, os, os.rank() - 2, batch);
            cv.batchOff = cOff.data();
            nativeStore = true;
            ++stats_.nativeLayoutStores;
        } else {
            out = alloc(os.numElements());
            cv.data = out;
            cv.rs = n;
            cv.cs = 1;
            cv.batchStride = m * n;
        }

        blockedMatMul(av, bv, cv, batch, m, n, kk, trans_b, simd_,
                      tiles_, par_);
        locals_[node.output] = {out, true, nativeStore};
        return;
      }
      case OpKind::LayerNorm: {
        const float *x = resolveLocal(k, node.inputs[0]);
        const float *gamma = node.inputs.size() > 1
                                 ? resolveLocal(k, node.inputs[1])
                                 : nullptr;
        const float *beta = node.inputs.size() > 2
                                ? resolveLocal(k, node.inputs[2])
                                : nullptr;
        const std::int64_t inner = os.dim(os.rank() - 1);
        float *out = alloc(os.numElements());
        blockedLayerNorm(
            x, gamma,
            gamma ? shapeOf(node.inputs[1]).numElements() : 1, beta,
            beta ? shapeOf(node.inputs[2]).numElements() : 1, out,
            os.numElements() / inner, inner, simd_, par_);
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::InstanceNorm: {
        const float *x = resolveLocal(k, node.inputs[0]);
        const std::int64_t hw = os.dim(2) * os.dim(3);
        float *out = alloc(os.numElements());
        // One row per (n, c) plane, no affine.
        blockedLayerNorm(x, nullptr, 1, nullptr, 1, out,
                         os.dim(0) * os.dim(1), hw, simd_, par_);
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::BatchNorm: {
        const float *x = resolveLocal(k, node.inputs[0]);
        const float *scale = resolveLocal(k, node.inputs[1]);
        const float *bias = resolveLocal(k, node.inputs[2]);
        float *out = alloc(os.numElements());
        blockedBatchNorm(x, scale,
                         shapeOf(node.inputs[1]).numElements(), bias,
                         shapeOf(node.inputs[2]).numElements(), out,
                         os.dim(0), os.dim(1), os.dim(2) * os.dim(3),
                         par_);
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::Softmax: {
        const float *x = resolveLocal(k, node.inputs[0]);
        int axis = static_cast<int>(
            node.attrs.getInt("axis", os.rank() - 1));
        if (axis < 0)
            axis += os.rank();
        float *out = alloc(os.numElements());
        blockedSoftmax(x, out, os, axis, simd_, par_);
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::FusedAttention: {
        const Shape &qs = shapeOf(node.inputs[0]);
        const Shape &vs = shapeOf(node.inputs[2]);
        const std::int64_t batch = qs.dim(0);
        const std::int64_t n = qs.dim(1);
        const std::int64_t dk = qs.dim(2);
        const std::int64_t m = vs.dim(1);
        const std::int64_t dv = vs.dim(2);
        const float scale = static_cast<float>(
            node.attrs.getInt("scale_milli", 1000)) / 1000.0f;
        const float *q = resolveLocal(k, node.inputs[0]);
        const float *kd = resolveLocal(k, node.inputs[1]);
        const float *v = resolveLocal(k, node.inputs[2]);
        const float *bias = nullptr;
        bool bias_batched = false;
        if (node.inputs.size() > 3) {
            bias = resolveLocal(k, node.inputs[3]);
            const Shape &bsh = shapeOf(node.inputs[3]);
            bias_batched = bsh.rank() == 3 && bsh.dim(0) > 1;
        }
        float *out = alloc(os.numElements());
        if (k.streamingAttention) {
            blockedFusedAttention(q, kd, v, bias, bias_batched, scale,
                                  out, batch, n, dk, m, dv, simd_,
                                  tiles_, par_);
            ++stats_.fusedAttentionKernels;
            stats_.scoreBytesAvoided +=
                batch * n * m *
                static_cast<std::int64_t>(sizeof(float));
        } else {
            // Materializing fallback (the A/B baseline the streaming
            // kernel is measured against): full score panel, then
            // scale+bias, row softmax, and the V matmul over it.
            float *score = alloc(batch * n * m);
            blockedMatMul({q, dk, 1, n * dk, nullptr},
                          {kd, dk, 1, m * dk, nullptr},
                          {score, m, 1, n * m, nullptr}, batch, n, m,
                          dk, /*transB=*/true, simd_, tiles_, par_);
            std::vector<EltwiseStep> scaleBias{
                EltwiseStep{OpKind::Scale, scale}};
            if (bias != nullptr) // bias[e % (n * m)], or per batch
                scaleBias.push_back({OpKind::Add, 1.0f, bias, 1,
                                     (bias_batched ? batch : 1) * n * m});
            runEltwiseChain(score, score, batch * n * m, scaleBias, simd_,
                            par_);
            blockedSoftmax(score, score, Shape({batch, n, m}), 2, simd_,
                           par_);
            blockedMatMul({score, m, 1, n * m, nullptr},
                          {v, dv, 1, m * dv, nullptr},
                          {out, dv, 1, n * dv, nullptr}, batch, n, dv,
                          m, /*transB=*/false, simd_, tiles_, par_);
            pool_.release(score);
        }
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d: {
        const Shape &xs = shapeOf(node.inputs[0]);
        const float *x = resolveLocal(k, node.inputs[0]);
        const std::int64_t kernel = node.attrs.getInt("kernel");
        float *out = alloc(os.numElements());
        blockedPool2d(node.kind == OpKind::MaxPool2d, x, out,
                      xs.dim(0) * xs.dim(1), xs.dim(2), xs.dim(3),
                      os.dim(2), os.dim(3), kernel,
                      node.attrs.getInt("stride", kernel),
                      node.attrs.getInt("pad", 0), par_);
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::GlobalAvgPool: {
        const Shape &xs = shapeOf(node.inputs[0]);
        const float *x = resolveLocal(k, node.inputs[0]);
        float *out = alloc(os.numElements());
        blockedGlobalAvgPool(x, out, xs.dim(0) * xs.dim(1),
                             xs.dim(2) * xs.dim(3), par_);
        locals_[node.output] = {out, true};
        return;
      }
      case OpKind::Concat: {
        // Block copies per input along the concat axis.
        const int axis =
            static_cast<int>(node.attrs.getInt("axis"));
        std::int64_t inner = 1;
        for (int d = axis + 1; d < os.rank(); ++d)
            inner *= os.dim(d);
        const std::int64_t outer =
            os.numElements() / (os.dim(axis) * inner);
        float *out = alloc(os.numElements());
        std::int64_t axis_off = 0;
        for (ValueId vin : node.inputs) {
            const float *x = resolveLocal(k, vin);
            const std::int64_t ext = shapeOf(vin).dim(axis);
            const std::int64_t row = ext * inner;
            for (std::int64_t o = 0; o < outer; ++o) {
                std::memcpy(out + (o * os.dim(axis) + axis_off) * inner,
                            x + o * row,
                            static_cast<std::size_t>(row) *
                                sizeof(float));
            }
            axis_off += ext;
        }
        locals_[node.output] = {out, true};
        return;
      }
      default:
        evalViaReference(k, node);
        return;
    }
}

void
PlanRunner::evalViaReference(const Kernel &k, const Node &node)
{
    std::vector<Tensor> held;
    held.reserve(node.inputs.size());
    std::vector<const Tensor *> in_ptrs;
    for (ValueId vin : node.inputs) {
        const float *p = resolveLocal(k, vin);
        Tensor t(shapeOf(vin));
        std::memcpy(t.data(), p,
                    static_cast<std::size_t>(t.numElements()) *
                        sizeof(float));
        held.push_back(std::move(t));
    }
    for (const Tensor &t : held)
        in_ptrs.push_back(&t);
    Tensor out = evalNode(graph_, node, in_ptrs);
    float *buf = alloc(out.numElements());
    std::memcpy(buf, out.data(),
                static_cast<std::size_t>(out.numElements()) *
                    sizeof(float));
    locals_[node.output] = {buf, true};
}

void
PlanRunner::runComputeKernel(const Kernel &k)
{
    locals_.clear();
    inputBySubstitute_.clear();
    for (std::size_t i = 0; i < k.inputs.size(); ++i)
        inputBySubstitute_[k.inputs[i].substitute] = i;

    std::size_t i = 0;
    while (i < k.fusedNodes.size()) {
        // An element-wise node heads a chain that reads its input out
        // of place; any other node runs its kernel and the chain after
        // it runs in place over its output.  Either way the following
        // element-wise nodes fold into the same pass.
        const Node &node = graph_.node(k.fusedNodes[i]);
        const std::int64_t n = shapeOf(node.output).numElements();
        std::vector<EltwiseStep> steps;
        const float *src = nullptr;
        LocalBuf buf{nullptr, true};
        if (ir::isUnaryElementwise(node.kind) ||
            ir::isBinaryElementwise(node.kind)) {
            src = chainHead(k, node, &steps);
            buf.data = alloc(n);
        } else {
            evalNodeBlocked(k, node);
            buf = locals_[node.output];
            src = buf.data;
        }
        const std::size_t headSteps = steps.size();
        ValueId cur = node.output;
        std::size_t j = i + 1;
        while (j < k.fusedNodes.size() &&
               tryFoldEpilogue(k, cur, graph_.node(k.fusedNodes[j]),
                               &steps)) {
            cur = graph_.node(k.fusedNodes[j]).output;
            ++j;
        }
        if (!steps.empty()) {
            SM_ASSERT(buf.owned, "epilogue over a borrowed buffer");
            runEltwiseChain(src, const_cast<float *>(buf.data), n, steps,
                            simd_, par_);
            stats_.fusedEpilogueOps +=
                static_cast<int>(steps.size() - headSteps);
            locals_.erase(node.output);
            locals_[cur] = buf;
        }
        for (float *p : expanded_)
            pool_.release(p);
        expanded_.clear();
        i = j;
    }

    publishOutput(k);

    // Return per-kernel scratch to the pool.
    auto out_it = env_.find({k.output, k.copyIndex});
    const float *published =
        out_it != env_.end() ? out_it->second.data : nullptr;
    for (auto &[v, buf] : locals_) {
        if (buf.owned && buf.data != published)
            pool_.release(const_cast<float *>(buf.data));
    }
    locals_.clear();
}

void
PlanRunner::publishOutput(const Kernel &k)
{
    auto it = locals_.find(k.output);
    SM_ASSERT(it != locals_.end(),
              "kernel did not produce its output: " + k.name);
    const Shape &shape = shapeOf(k.output);
    if (it->second.inOutLayout) {
        // Anchor op already wrote the kernel's chosen layout.
        SM_ASSERT(it->second.owned,
                  "native-layout store over a borrowed buffer");
        env_[{k.output, k.copyIndex}] = {it->second.data, true,
                                         k.outLayout};
        return;
    }
    if (isRowMajorLayout(k.outLayout) && it->second.owned) {
        env_[{k.output, k.copyIndex}] = {it->second.data, true,
                                         k.outLayout};
        return;
    }
    float *dst = alloc(k.outLayout.storageElements(shape));
    runStridedCopy(copies_->store, it->second.data, dst, par_);
    if (!isRowMajorLayout(k.outLayout))
        stats_.bytesRelayouted +=
            shape.numElements() *
            static_cast<std::int64_t>(sizeof(float));
    env_[{k.output, k.copyIndex}] = {dst, true, k.outLayout};
}

void
PlanRunner::releaseDead(std::size_t kernel_idx)
{
    for (auto it = env_.begin(); it != env_.end();) {
        auto lu = prep_.lastUse.find(it->first);
        const std::size_t last =
            lu == prep_.lastUse.end() ? kernel_idx : lu->second;
        if (last <= kernel_idx) {
            if (it->second.owned)
                pool_.release(const_cast<float *>(it->second.data));
            it = env_.erase(it);
        } else {
            ++it;
        }
    }
}

std::vector<Tensor>
PlanRunner::run(CpuBackendStats *stats_out)
{
    for (std::size_t i = 0; i < plan_.kernels.size(); ++i) {
        const Kernel &k = plan_.kernels[i];
        copies_ = &prep_.kernels[i];
        if (k.fusedNodes.empty()) {
            runRelayoutKernel(k);
        } else {
            runComputeKernel(k);
        }
        ++stats_.kernelsExecuted;
        releaseDead(i);
    }

    std::vector<Tensor> out;
    out.reserve(plan_.graph.outputIds().size());
    for (std::size_t i = 0; i < plan_.graph.outputIds().size(); ++i) {
        const ValueId id = plan_.graph.outputIds()[i];
        Tensor t(shapeOf(id));
        runStridedCopy(prep_.outputs[i], resolveStored(id, 0).data,
                       t.data(), par_);
        out.push_back(std::move(t));
    }

    stats_.poolHighWaterBytes = pool_.highWaterBytes();
    stats_.poolReuses = pool_.reuseCount();
    stats_.simdLevel = simd_;
    stats_.tileRowTile = tiles_.rowTile;
    stats_.tileKBlock = tiles_.kBlock;
    stats_.threads = par_.threads();
    stats_.prepareMs = prep_.prepareMs;
    stats_.weightsSynthesized = prep_.weightsSynthesized;
    stats_.weightBytesResident = prep_.weightBytes;
    if (stats_out)
        *stats_out = stats_;
    return out;
}

} // namespace

CpuBackendOptions
cpuBackendOptionsFor(const device::DeviceProfile &dev, int threads,
                     std::uint64_t seed)
{
    const TileParams tiles = resolveTileParams(dev);
    CpuBackendOptions o;
    o.threads = threads;
    o.seed = seed;
    o.gemmRowTile = tiles.rowTile;
    o.gemmKBlock = tiles.kBlock;
    return o;
}

CpuBackend::CpuBackend(CpuBackendOptions options)
    : options_(options)
{
}

PreparedPlan::~PreparedPlan()
{
    WeightStore::global().release(pins);
}

std::shared_ptr<const PreparedPlan>
CpuBackend::prepare(const ExecutionPlan &plan) const
{
    return prepareOn(plan, options_.seed, ParallelRunner(options_.threads));
}

std::vector<Tensor>
CpuBackend::run(const PreparedPlan &prepared,
                const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats) const
{
    SM_REQUIRE(prepared.seed == options_.seed,
               "plan prepared at seed " + std::to_string(prepared.seed) +
                   " run by a backend at seed " +
                   std::to_string(options_.seed));
    const ParallelRunner par(options_.threads);
    return PlanRunner(prepared, inputs, options_, par).run(stats);
}

std::vector<Tensor>
CpuBackend::run(const ExecutionPlan &plan,
                const std::map<ValueId, Tensor> &inputs,
                CpuBackendStats *stats) const
{
    // One thread pool for both steps.
    const ParallelRunner par(options_.threads);
    const auto prepared = prepareOn(plan, options_.seed, par);
    return PlanRunner(*prepared, inputs, options_, par).run(stats);
}

} // namespace smartmem::exec
