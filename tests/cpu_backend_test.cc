/**
 * @file
 * Parity, determinism, and bookkeeping tests for the cpu-blocked
 * execution backend (exec/cpu_backend.h, runtime/plan_executor.h).
 *
 * The whole 18-model zoo (tiny variants, so the naive reference
 * executor stays fast) is compared against exec::Executor at batch
 * {1, 4}, threads {1, 4}, stages {0, 3}; outputs must agree within
 * 1e-4 relative tolerance and be byte-identical at every thread
 * count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "models/models.h"
#include "exec/strided_copy.h"
#include "exec/weight_store.h"
#include "index/loop_nest.h"
#include "runtime/plan_executor.h"
#include "support/error.h"
#include "simd_env_guard.h"

namespace smartmem {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr float kTolerance = 1e-4f;

/** Same outputs, bit for bit. */
bool
sameBytes(const std::vector<exec::Tensor> &a,
          const std::vector<exec::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].shape() != b[i].shape() ||
            std::memcmp(a[i].data(), b[i].data(),
                        static_cast<std::size_t>(a[i].numElements()) *
                            sizeof(float)) != 0)
            return false;
    return true;
}


class ZooParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooParity, BlockedMatchesReferenceEverywhere)
{
    auto dev = device::adreno740();
    for (int batch : {1, 4}) {
        auto g = models::buildTinyVariant(GetParam(), batch);
        exec::Executor ex(kSeed);
        for (int stage : {0, 3}) {
            auto plan = core::compileStage(g, dev, stage);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);
            auto ref = ex.runOutputs(plan.graph, inputs);
            for (int threads : {1, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                exec::CpuBackend backend(o);
                auto got = backend.run(plan, inputs);
                EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
                    << GetParam() << " batch " << batch << " stage "
                    << stage << " threads " << threads;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooParity, ::testing::ValuesIn(models::evaluationModels()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * The tiny zoo variants cover the transformer/convnet hot paths but
 * not every operator; this synthetic graph exercises the remaining
 * backend paths (Concat, Pad, pools, reductions, DepthToSpace,
 * Slice, Gather, Scale, broadcast binaries) through the full
 * compiler at both stage 0 and 3.
 */
ir::Graph
opCoverageGraph(int batch)
{
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({batch, 8, 16, 16}));
    auto w = b.constant("w", ir::Shape({16, 8, 3, 3}));
    auto t = b.conv2d(x, w, 1, 1);
    t = b.unary(ir::OpKind::Scale, t);
    t = b.maxPool2d(t, 2, 2, 0);                  // [b,16,8,8]
    auto avg = b.avgPool2d(t, 2, 2, 0);           // [b,16,4,4]
    auto pad = b.pad(t, {0, 0, 0, 0, 2, 2, 2, 2});
    auto down = b.maxPool2d(pad, 3, 3, 0);        // [b,16,4,4]
    auto cat = b.concat({avg, down}, 1);          // [b,32,4,4]
    auto d2s = b.depthToSpace(cat, 2);            // [b,8,8,8]
    auto sl = b.slice(d2s, {1}, {0}, {4});        // [b,4,8,8]
    auto idx = b.constantData("idx", ir::Shape({4}), {3, 1, 2, 0});
    auto gathered = b.gather(sl, idx, 1);
    auto red = b.reduce(ir::OpKind::ReduceMean, gathered, {2, 3}, true);
    auto norm = b.binary(ir::OpKind::Div, gathered,
                         b.binary(ir::OpKind::Add, red,
                                  b.constant("eps", ir::Shape({1}))));
    auto flat = b.reshape(norm, {batch, 4 * 8 * 8});
    auto w2 = b.constant("w2", ir::Shape({4 * 8 * 8, 10}));
    b.markOutput(b.unary(ir::OpKind::Sigmoid, b.matmul(flat, w2)));
    return b.finish();
}

TEST(CpuBackendOpCoverage, RareOpsMatchReference)
{
    auto dev = device::adreno740();
    for (int batch : {1, 3}) {
        auto g = opCoverageGraph(batch);
        exec::Executor ex(kSeed);
        for (int stage : {0, 3}) {
            auto plan = core::compileStage(g, dev, stage);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);
            auto ref = ex.runOutputs(plan.graph, inputs);
            for (int threads : {1, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                auto got = exec::CpuBackend(o).run(plan, inputs);
                EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
                    << "batch " << batch << " stage " << stage
                    << " threads " << threads;
            }
        }
    }
}

/**
 * The tiny zoo runs Gelu and Relu only.  This graph runs the other
 * transcendentals both as chain heads (each reads the graph input out
 * of place) and folded as one epilogue chain after a MatMul, plus an
 * InstanceNorm and a Softmax over a non-last axis.
 */
ir::Graph
transcendentalGraph()
{
    using ir::OpKind;
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({2, 8, 6, 10}));
    auto heads = b.binary(
        OpKind::Add,
        b.binary(OpKind::Add, b.unary(OpKind::Silu, x),
                 b.unary(OpKind::Sigmoid, x)),
        b.binary(OpKind::Add, b.unary(OpKind::Tanh, x),
                 b.unary(OpKind::Exp, x)));
    auto probs = b.softmax(b.instanceNorm(heads), 1);
    auto flat = b.reshape(probs, {2 * 8 * 6, 10});
    auto t = b.matmul(flat, b.constant("w", ir::Shape({10, 24})));
    for (OpKind kind :
         {OpKind::Silu, OpKind::Sigmoid, OpKind::Tanh, OpKind::Exp})
        t = b.unary(kind, t);
    b.markOutput(heads);
    b.markOutput(probs);
    b.markOutput(t);
    return b.finish();
}

TEST(CpuBackendOpCoverage, TranscendentalsNormAndSoftmaxAtEveryLevel)
{
    auto dev = device::adreno740();
    const ir::Graph g = transcendentalGraph();
    exec::Executor ex(kSeed);
    for (int stage : {0, 3}) {
        auto plan = core::compileStage(g, dev, stage);
        auto inputs = exec::makeSeededInputs(plan.graph, ex);
        auto ref = ex.runOutputs(plan.graph, inputs);
        for (exec::SimdLevel lv : exec::availableSimdLevels()) {
            SimdEnvGuard guard(exec::simdLevelName(lv));
            std::vector<std::vector<exec::Tensor>> runs;
            exec::CpuBackendStats stats;
            for (int threads : {1, 2, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                runs.push_back(exec::CpuBackend(o).run(plan, inputs, &stats));
            }
            // The four activations after the MatMul run as its epilogue.
            EXPECT_GE(stats.fusedEpilogueOps, 4);
            EXPECT_LE(exec::maxRelDiff(ref, runs[0]), kTolerance)
                << "stage " << stage << " " << exec::simdLevelName(lv);
            for (std::size_t r = 1; r < runs.size(); ++r)
                EXPECT_TRUE(sameBytes(runs[0], runs[r]))
                    << "stage " << stage << " "
                    << exec::simdLevelName(lv) << " run " << r;
        }
    }
}

TEST(CpuBackendDeterminism, ByteIdenticalAtAnyThreadCount)
{
    auto dev = device::adreno740();
    for (const char *model : {"Swin", "ViT", "ResNext"}) {
        for (int stage : {0, 3}) {
            auto g = models::buildTinyVariant(model, 2);
            auto plan = core::compileStage(g, dev, stage);
            exec::Executor ex(kSeed);
            auto inputs = exec::makeSeededInputs(plan.graph, ex);

            std::vector<std::vector<exec::Tensor>> runs;
            for (int threads : {1, 2, 4}) {
                exec::CpuBackendOptions o;
                o.threads = threads;
                o.seed = kSeed;
                runs.push_back(
                    exec::CpuBackend(o).run(plan, inputs));
            }
            for (std::size_t r = 1; r < runs.size(); ++r) {
                ASSERT_EQ(runs[0].size(), runs[r].size());
                for (std::size_t i = 0; i < runs[0].size(); ++i) {
                    EXPECT_EQ(0, std::memcmp(
                                     runs[0][i].data(),
                                     runs[r][i].data(),
                                     static_cast<std::size_t>(
                                         runs[0][i].numElements()) *
                                         sizeof(float)))
                        << model << " stage " << stage << " run " << r;
                }
            }
        }
    }
}

TEST(CpuBackendDeterminism, RepeatedRunsAreByteIdentical)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);
    exec::CpuBackendOptions o;
    o.seed = kSeed;
    exec::CpuBackend backend(o);
    auto a = backend.run(plan, inputs);
    auto b = backend.run(plan, inputs);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(a[i].data(), b[i].data(),
                                 static_cast<std::size_t>(
                                     a[i].numElements()) *
                                     sizeof(float)));
    }
}

TEST(CpuBackendStats, CountersDescribeThePlan)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    exec::CpuBackendOptions o;
    o.threads = 1;
    o.seed = kSeed;
    exec::CpuBackendStats stats;
    exec::CpuBackend(o).run(plan, inputs, &stats);

    EXPECT_EQ(stats.kernelsExecuted, plan.operatorCount());
    EXPECT_EQ(stats.relayoutKernels, plan.layoutCopyCount());
    EXPECT_GT(stats.poolHighWaterBytes, 0);
    // Tiny Swin's plan eliminates transformation chains, which the
    // backend must reproduce through composed read maps.
    EXPECT_GT(stats.substitutesMaterialized, 0);
}

TEST(CpuBackendStats, Stage3MaterializesFewerPassesThanStage0)
{
    // The measured counterpart of LTE: with chains eliminated, the
    // backend launches fewer kernels.
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    exec::Executor ex(kSeed);
    auto plan0 = core::compileStage(g, dev, 0);
    auto plan3 = core::compileStage(g, dev, 3);
    auto inputs = exec::makeSeededInputs(plan3.graph, ex);

    exec::CpuBackendOptions o;
    o.threads = 1;
    o.seed = kSeed;
    exec::CpuBackendStats s0, s3;
    exec::CpuBackend(o).run(plan0, inputs, &s0);
    exec::CpuBackend(o).run(plan3, inputs, &s3);
    EXPECT_LT(s3.kernelsExecuted, s0.kernelsExecuted);
}

/** Stats of one stage-3 cpu-blocked run of `g` at `threads`. */
exec::CpuBackendStats
stage3Stats(const ir::Graph &g, int threads)
{
    auto plan = core::compileStage(g, device::adreno740(), 3);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);
    exec::CpuBackendOptions o;
    o.threads = threads;
    o.seed = kSeed;
    exec::CpuBackendStats stats;
    exec::CpuBackend(o).run(plan, inputs, &stats);
    return stats;
}

bool
hasTableLoop(const index::LoopNest &nest)
{
    return std::any_of(nest.loops.begin(), nest.loops.end(),
                       [](const index::LoopNest::Loop &l) {
                           return l.isTable();
                       });
}

/** Read maps of `plan` with a non-affine subterm: their gathers run a
 *  table loop (index/loop_nest.h). */
int
tableLoopReadMaps(const runtime::ExecutionPlan &plan)
{
    int n = 0;
    for (const runtime::Kernel &k : plan.kernels)
        for (const runtime::KernelInput &in : k.inputs)
            if (in.readMap &&
                hasTableLoop(index::lowerToLoopNest(*in.readMap)))
                ++n;
    return n;
}

TEST(CpuBackendStats, FullSizeSwinGathersNeverInterpret)
{
    // Every composed read map of full-size Swin (window partition and
    // merge, QKV head split, patch merge) lowers to a purely strided
    // loop nest: no table loop, no per-element index math.
    const auto g = models::buildModel("Swin", 1);
    EXPECT_GT(stage3Stats(g, 4).substitutesMaterialized, 0);
    EXPECT_EQ(tableLoopReadMaps(
                  core::compileStage(g, device::adreno740(), 3)),
              0);
}

TEST(CpuBackendStats, ZooTransformersGatherWithoutInterpreter)
{
    for (const std::string &name : models::evaluationModels()) {
        if (models::modelInfo(name).attention == "N/A")
            continue;
        const auto g = models::buildTinyVariant(name, 1);
        EXPECT_GT(stage3Stats(g, 1).substitutesMaterialized, 0) << name;
        EXPECT_EQ(tableLoopReadMaps(
                      core::compileStage(g, device::adreno740(), 3)),
                  0)
            << name;
    }
}

/**
 * A BiFormer-style region routing block: regions of `rt` tokens, a
 * constant top-k region Gather on axis 1, then the routed keys'
 * projection.  The tiny zoo variants map BiFormer to Swin, so this is
 * the small graph that runs a routing map.
 */
constexpr std::int64_t kRegions = 9, kTopK = 3;

ir::Graph
routingGraph()
{
    const std::int64_t rt = 8, dim = 16;
    ir::GraphBuilder b;
    auto x = b.input("x", ir::Shape({1, kRegions * rt, dim}));
    auto t = b.matmul(x, b.constant("w_in", ir::Shape({dim, dim})));
    auto regions = b.reshape(t, {1, kRegions, rt, dim});
    std::vector<std::int64_t> sel;
    for (std::int64_t r = 0; r < kRegions; ++r)
        for (std::int64_t j = 0; j < kTopK; ++j)
            sel.push_back((r + j * 4) % kRegions);
    auto idx = b.constantData("route_idx", ir::Shape({kRegions * kTopK}),
                              sel);
    auto routed = b.gather(regions, idx, 1);
    routed = b.reshape(routed, {kRegions, kTopK * rt, dim});
    b.markOutput(
        b.matmul(routed, b.constant("w_k", ir::Shape({dim, dim}))));
    return b.finish();
}

TEST(CpuBackendStats, RoutingBlockGathersThroughOneTableLoop)
{
    const auto dev = device::adreno740();
    const ir::Graph g = routingGraph();
    exec::Executor ex(kSeed);
    for (int stage : {0, 3}) {
        const auto plan = core::compileStage(g, dev, stage);
        const auto inputs = exec::makeSeededInputs(plan.graph, ex);
        const auto ref = ex.runOutputs(plan.graph, inputs);
        std::vector<std::vector<exec::Tensor>> runs;
        for (int threads : {1, 2, 4}) {
            exec::CpuBackendOptions o;
            o.threads = threads;
            o.seed = kSeed;
            runs.push_back(exec::CpuBackend(o).run(plan, inputs));
            EXPECT_LE(exec::maxRelDiff(ref, runs.back()), kTolerance)
                << "stage " << stage << " threads " << threads;
            ASSERT_EQ(runs.back().size(), 1u);
            EXPECT_EQ(0, std::memcmp(runs[0][0].data(),
                                     runs.back()[0].data(),
                                     static_cast<std::size_t>(
                                         runs[0][0].numElements()) *
                                         sizeof(float)))
                << "stage " << stage << " threads " << threads;
        }
        if (stage != 3)
            continue;
        // The eliminated reshape -> Gather -> reshape chain is one
        // Lookup read map; its copy is one table loop over (region,
        // top-k) above strided token rows.
        int routingMaps = 0;
        for (const runtime::Kernel &k : plan.kernels) {
            for (const runtime::KernelInput &in : k.inputs) {
                if (!in.readMap ||
                    !hasTableLoop(index::lowerToLoopNest(*in.readMap)))
                    continue;
                ++routingMaps;
                ir::Layout srcL = ir::Layout::rowMajor(
                    plan.graph.value(in.source).shape.rank());
                for (const runtime::Kernel &p : plan.kernels)
                    if (p.output == in.source &&
                        p.copyIndex == in.sourceCopy)
                        srcL = p.outLayout;
                const exec::StridedCopy cp = exec::planStridedCopy(
                    *in.readMap, srcL, plan.graph.value(in.source).shape,
                    ir::Layout::rowMajor(
                        in.readMap->outputShape().rank()));
                std::vector<std::int64_t> tables;
                for (const exec::CopyLoop &l : cp.loops)
                    if (!l.srcTable.empty())
                        tables.push_back(l.extent);
                EXPECT_EQ(tables,
                          std::vector<std::int64_t>{kRegions * kTopK})
                    << in.readMap->toString() << " from "
                    << srcL.toString();
            }
        }
        EXPECT_EQ(routingMaps, 1);
    }
}

// -------------------------------------------------------------------
// Element-wise chain evaluator (runEltwiseChain) against exec::evalNode
// -------------------------------------------------------------------

const ir::Shape kChainOut({2, 6, 24, 40}); // > 4096 elements: splits

/** Seeded data of `shape` with both signs and no zeros. */
exec::Tensor
chainData(const ir::Shape &shape, std::uint32_t seed)
{
    exec::Tensor t(shape);
    std::uint32_t r = seed;
    for (std::int64_t i = 0; i < t.numElements(); ++i) {
        r = r * 1664525u + 1013904223u;
        const float mag = 0.25f + static_cast<float>(r >> 8) / 16777216.0f;
        t.at(i) = (r & 1u) ? mag : -mag;
    }
    return t;
}

/** runEltwiseChain(src, out, steps) at 1, 2 and 4 threads; the three
 *  results must be byte-identical.  Returns the serial one. */
exec::Tensor
runChain(const float *src, const std::vector<exec::EltwiseStep> &steps)
{
    std::vector<exec::Tensor> runs;
    for (int threads : {1, 2, 4}) {
        exec::Tensor out(kChainOut);
        exec::runEltwiseChain(src, out.data(), out.numElements(), steps,
                              exec::activeSimdLevel(),
                              exec::ParallelRunner(threads));
        runs.push_back(std::move(out));
    }
    for (std::size_t r = 1; r < runs.size(); ++r)
        EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[r].data(),
                                 static_cast<std::size_t>(
                                     runs[0].numElements()) *
                                     sizeof(float)))
            << "threads run " << r;
    return runs[0];
}

/** The reference executor's result for the graph's single op node. */
exec::Tensor
referenceOf(const ir::Graph &g, ir::ValueId out,
            const std::vector<const exec::Tensor *> &inputs)
{
    return exec::evalNode(g, g.node(g.value(out).producer), inputs);
}

TEST(EltwiseChain, UnaryKindsMatchReference)
{
    const exec::Tensor x = chainData(kChainOut, 7);
    for (ir::OpKind kind :
         {ir::OpKind::Relu, ir::OpKind::Gelu, ir::OpKind::Silu,
          ir::OpKind::Sigmoid, ir::OpKind::Tanh, ir::OpKind::Exp,
          ir::OpKind::Sqrt, ir::OpKind::Neg, ir::OpKind::Identity,
          ir::OpKind::Scale}) {
        ir::GraphBuilder b;
        ir::Attrs attrs;
        if (kind == ir::OpKind::Scale)
            attrs.set("scale_milli", 375);
        const auto y = b.addNode(kind, {b.input("x", kChainOut)}, attrs);
        const ir::Graph g = b.finish();
        const exec::Tensor got = runChain(
            x.data(), {exec::unaryStep(g.node(g.value(y).producer))});
        EXPECT_LE(exec::maxRelDiff({referenceOf(g, y, {&x})}, {got}),
                  kTolerance)
            << ir::opKindName(kind);
    }
}

TEST(EltwiseChain, BinaryKindsMatchReferenceForEveryOperandForm)
{
    struct Form
    {
        const char *name;
        ir::Shape shape;
        bool oneRun; // reads in place; else broadcast by a copy first
    };
    const std::vector<Form> forms = {
        {"same-shape", kChainOut, true},
        {"scalar", ir::Shape({1}), true},
        {"bias row", ir::Shape({40}), true},
        {"leading broadcast", ir::Shape({6, 24, 40}), true},
        {"per-channel", ir::Shape({1, 6, 1, 1}), true},
        {"two runs", ir::Shape({2, 1, 24, 1}), false},
    };
    const exec::Tensor full = chainData(kChainOut, 11);
    for (ir::OpKind kind : {ir::OpKind::Add, ir::OpKind::Sub,
                            ir::OpKind::Mul, ir::OpKind::Div}) {
        for (const Form &f : forms) {
            const exec::Tensor operand = chainData(f.shape, 13);
            for (bool reversed : {false, true}) {
                // reversed: operand op full, so the chain reads `full`
                // and the step applies the operand on the left.
                ir::GraphBuilder b;
                const auto fv = b.input("full", kChainOut);
                const auto ov = b.input("operand", f.shape);
                const auto y = reversed ? b.binary(kind, ov, fv)
                                        : b.binary(kind, fv, ov);
                const ir::Graph g = b.finish();

                auto step = exec::binaryStep(kind, operand.data(),
                                             f.shape, kChainOut,
                                             reversed);
                EXPECT_EQ(step.has_value(), f.oneRun) << f.name;
                exec::Tensor expanded(kChainOut);
                if (!step) {
                    exec::runStridedCopy(
                        exec::planBroadcast(f.shape, kChainOut),
                        operand.data(), expanded.data(),
                        exec::ParallelRunner(1));
                    step = exec::binaryStep(kind, expanded.data(),
                                            kChainOut, kChainOut,
                                            reversed);
                }
                ASSERT_TRUE(step.has_value());
                const exec::Tensor got = runChain(full.data(), {*step});
                const exec::Tensor ref =
                    reversed ? referenceOf(g, y, {&operand, &full})
                             : referenceOf(g, y, {&full, &operand});
                EXPECT_LE(exec::maxRelDiff({ref}, {got}), kTolerance)
                    << ir::opKindName(kind) << " " << f.name
                    << (reversed ? " reversed" : "");
            }
        }
    }
}

TEST(EltwiseChain, SelfOperandMatchesReference)
{
    const exec::Tensor x = chainData(kChainOut, 17);
    for (ir::OpKind kind : {ir::OpKind::Add, ir::OpKind::Sub,
                            ir::OpKind::Mul, ir::OpKind::Div}) {
        ir::GraphBuilder b;
        const auto xv = b.input("x", kChainOut);
        const auto y = b.binary(kind, xv, xv);
        const ir::Graph g = b.finish();
        const exec::Tensor got =
            runChain(x.data(), {exec::EltwiseStep{kind}});
        EXPECT_LE(exec::maxRelDiff({referenceOf(g, y, {&x, &x})}, {got}),
                  kTolerance)
            << ir::opKindName(kind);
    }
}

TEST(EltwiseChain, MultiStepChainMatchesNodeByNodeReference)
{
    // Every step indexes its operand by absolute output element, so a
    // chain spanning many blocks must match the nodes run one by one.
    ir::GraphBuilder b;
    const ir::Shape chShape({1, 6, 1, 1}), rowShape({40});
    const auto xv = b.input("x", kChainOut);
    const auto chv = b.input("ch", chShape);
    const auto rowv = b.input("row", rowShape);
    auto y = b.binary(ir::OpKind::Add, xv, chv);
    y = b.binary(ir::OpKind::Mul, y, rowv);
    y = b.binary(ir::OpKind::Sub, chv, y);
    b.markOutput(b.unary(ir::OpKind::Relu, y));
    const ir::Graph g = b.finish();

    const exec::Tensor x = chainData(kChainOut, 19);
    const exec::Tensor ch = chainData(chShape, 23);
    const exec::Tensor row = chainData(rowShape, 29);
    const auto ref = exec::Executor(kSeed).runOutputs(
        g, {{xv, x}, {chv, ch}, {rowv, row}});
    using ir::OpKind;
    const exec::Tensor got = runChain(
        x.data(),
        {*exec::binaryStep(OpKind::Add, ch.data(), chShape, kChainOut,
                           false),
         *exec::binaryStep(OpKind::Mul, row.data(), rowShape, kChainOut,
                           false),
         *exec::binaryStep(OpKind::Sub, ch.data(), chShape, kChainOut,
                           true),
         exec::EltwiseStep{OpKind::Relu}});
    EXPECT_LE(exec::maxRelDiff(ref, {got}), kTolerance);
}

TEST(CpuBackendEpilogue, FoldsBiasSelfReversedAndExpandedOperands)
{
    // MatMul -> Add(bias row) -> Mul(y, y) -> Sub(c, y) -> Scale, where
    // c spans two runs of output dims and is broadcast by a copy: all
    // four element-wise ops run in the matmul's epilogue pass.
    ir::GraphBuilder b;
    const auto x = b.input("x", ir::Shape({2, 8, 16}));
    auto y = b.matmul(x, b.constant("w", ir::Shape({16, 12})));
    y = b.binary(ir::OpKind::Add, y, b.constant("bias", ir::Shape({12})));
    y = b.binary(ir::OpKind::Mul, y, y);
    y = b.binary(ir::OpKind::Sub, b.constant("c", ir::Shape({2, 1, 12})),
                 y);
    ir::Attrs half;
    half.set("scale_milli", 500);
    b.markOutput(b.addNode(ir::OpKind::Scale, {y}, half));
    const ir::Graph g = b.finish();

    for (int stage : {0, 3}) {
        auto plan = core::compileStage(g, device::adreno740(), stage);
        exec::Executor ex(kSeed);
        auto inputs = exec::makeSeededInputs(plan.graph, ex);
        const auto ref = ex.runOutputs(plan.graph, inputs);
        exec::CpuBackendOptions o;
        o.threads = 2;
        o.seed = kSeed;
        exec::CpuBackendStats stats;
        const auto got = exec::CpuBackend(o).run(plan, inputs, &stats);
        EXPECT_EQ(stats.fusedEpilogueOps, 4) << "stage " << stage;
        EXPECT_EQ(stats.broadcastExpansions, 1) << "stage " << stage;
        EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance)
            << "stage " << stage;
    }
}

TEST(PlanExecutorRegistry, NamesAndConstruction)
{
    const auto &names = runtime::executorNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "reference");
    EXPECT_EQ(names[1], "cpu-blocked");
    for (const auto &name : names) {
        auto be = runtime::makeExecutor(name);
        EXPECT_EQ(be->name(), name);
    }
}

TEST(PlanExecutorRegistry, UnknownNameListsCatalog)
{
    try {
        runtime::makeExecutor("gpu-metal");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("gpu-metal"), std::string::npos);
        EXPECT_NE(msg.find("reference"), std::string::npos);
        EXPECT_NE(msg.find("cpu-blocked"), std::string::npos);
    }
}

TEST(PlanExecutorRegistry, BackendsAgreeThroughTheFacade)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("ViT", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    exec::CpuBackendOptions o;
    o.seed = kSeed;
    auto ref = runtime::makeExecutor("reference", o)->run(plan, inputs);
    auto blocked = runtime::makeExecutor("cpu-blocked", o);
    auto got = blocked->run(plan, inputs);
    EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance);
    EXPECT_GT(blocked->stats().poolHighWaterBytes, 0);
}

/** Every field of two stats records agrees. */
void
expectSameRecord(const exec::CpuBackendStats &a,
                 const exec::CpuBackendStats &b)
{
    EXPECT_EQ(a.kernelsExecuted, b.kernelsExecuted);
    EXPECT_EQ(a.relayoutKernels, b.relayoutKernels);
    EXPECT_EQ(a.fusedEpilogueOps, b.fusedEpilogueOps);
    EXPECT_EQ(a.substitutesMaterialized, b.substitutesMaterialized);
    EXPECT_EQ(a.bytesRelayouted, b.bytesRelayouted);
    EXPECT_EQ(a.poolHighWaterBytes, b.poolHighWaterBytes);
    EXPECT_EQ(a.poolReuses, b.poolReuses);
    EXPECT_EQ(a.nativeLayoutViews, b.nativeLayoutViews);
    EXPECT_EQ(a.nativeLayoutStores, b.nativeLayoutStores);
    EXPECT_EQ(a.fusedAttentionKernels, b.fusedAttentionKernels);
    EXPECT_EQ(a.scoreBytesAvoided, b.scoreBytesAvoided);
    EXPECT_EQ(a.simdLevel, b.simdLevel);
    EXPECT_EQ(a.tileRowTile, b.tileRowTile);
    EXPECT_EQ(a.tileKBlock, b.tileKBlock);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.weightBytesResident, b.weightBytesResident);
}

TEST(PlanExecutorStats, BlockedRecordMatchesBackendRun)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    const exec::CpuBackendOptions o =
        exec::cpuBackendOptionsFor(dev, 4, kSeed);
    exec::CpuBackendStats direct;
    exec::CpuBackend(o).run(plan, inputs, &direct);
    auto be = runtime::makeExecutor("cpu-blocked", o);
    be->run(plan, inputs);

    expectSameRecord(be->stats(), direct);
    EXPECT_GT(direct.poolHighWaterBytes, 0);
    EXPECT_GT(direct.fusedAttentionKernels, 0);
    EXPECT_GT(direct.scoreBytesAvoided, 0);
    EXPECT_EQ(direct.simdLevel, exec::activeSimdLevel());
    const exec::TileParams tiles = exec::resolveTileParams(dev);
    EXPECT_EQ(direct.tileRowTile, tiles.rowTile);
    EXPECT_EQ(direct.tileKBlock, tiles.kBlock);
    EXPECT_EQ(direct.threads, 4);
}

TEST(PlanExecutorStats, RecordDescribesOneRunNotASum)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    auto be = runtime::makeExecutor(
        "cpu-blocked", exec::cpuBackendOptionsFor(dev, 1, kSeed));
    be->run(plan, inputs);
    const exec::CpuBackendStats once = be->stats();
    be->run(plan, inputs);
    expectSameRecord(be->stats(), once);
    EXPECT_GT(once.scoreBytesAvoided, 0);
}

TEST(PlanExecutorStats, ReferenceReportsTheDefaultRecord)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("ViT", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    // Threads and tiles are requested but the reference runner is
    // serial and untiled: its record must not echo them.
    auto be = runtime::makeExecutor(
        "reference", exec::cpuBackendOptionsFor(dev, 4, kSeed));
    be->run(plan, inputs);
    expectSameRecord(be->stats(), exec::CpuBackendStats());
    EXPECT_EQ(be->stats().threads, 1);
    EXPECT_EQ(be->stats().tileRowTile, 0);
}

TEST(PlanExecutorRegistry, PreparedPlansRunOnTheirOwnBackend)
{
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("ViT", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);
    const exec::CpuBackendOptions o = exec::cpuBackendOptionsFor(dev, 2, kSeed);

    using Prepared = runtime::PlanExecutor::Prepared;
    std::map<std::string, std::shared_ptr<const Prepared>> prepared;
    for (const std::string &name : runtime::executorNames()) {
        auto be = runtime::makeExecutor(name, o);
        prepared[name] = be->prepare(plan);
        EXPECT_EQ(&prepared[name]->plan(), &plan);
        EXPECT_TRUE(sameBytes(be->run(plan, inputs),
                              be->run(*prepared[name], inputs)))
            << name;
    }
    EXPECT_THROW(runtime::makeExecutor("cpu-blocked", o)
                     ->run(*prepared["reference"], inputs),
                 FatalError);
}

TEST(CpuBackendSeeds, SeedMismatchChangesOutputs)
{
    // Constants are synthesized from the seed; two different seeds
    // must produce different results (guards accidental seed
    // hard-coding in the backend).
    auto dev = device::adreno740();
    auto g = models::buildTinyVariant("Swin", 1);
    auto plan = core::compileSmartMem(g, dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);

    exec::CpuBackendOptions a;
    a.seed = kSeed;
    exec::CpuBackendOptions b;
    b.seed = kSeed + 1;
    auto ra = exec::CpuBackend(a).run(plan, inputs);
    auto rb = exec::CpuBackend(b).run(plan, inputs);
    EXPECT_GT(exec::maxAbsDiff(ra[0], rb[0]), 0.0f);
}

TEST(CpuBackendSeeds, PreparedPlanRunsOnlyAtItsSeed)
{
    auto dev = device::adreno740();
    auto plan = core::compileSmartMem(models::buildTinyVariant("ViT", 1),
                                      dev);
    exec::Executor ex(kSeed);
    auto inputs = exec::makeSeededInputs(plan.graph, ex);
    exec::CpuBackendOptions a, b;
    a.seed = kSeed;
    b.seed = kSeed + 1;
    const auto prepared = exec::CpuBackend(a).prepare(plan);
    EXPECT_EQ(prepared->seed, kSeed);
    EXPECT_THROW(exec::CpuBackend(b).run(*prepared, inputs), FatalError);
}

// -------------------------------------------------------------------
// Prepared plans and the resident weight store
// -------------------------------------------------------------------

/** Seeds no other test uses, so a prepare at one is cold. */
std::uint64_t
freshSeed()
{
    static std::uint64_t next = 900000;
    return ++next;
}

TEST(PreparedPlan, ColdAndWarmRunsAreByteIdenticalOnTheTinyZoo)
{
    auto dev = device::adreno740();
    for (const char *model : {"Swin", "ViT", "ResNext"}) {
        auto plan = core::compileStage(models::buildTinyVariant(model, 1),
                                       dev, 3);
        for (int threads : {1, 2, 4}) {
            const exec::CpuBackend be(
                exec::cpuBackendOptionsFor(dev, threads, freshSeed()));
            auto inputs = exec::makeSeededInputs(
                plan.graph, exec::Executor(be.options().seed));
            exec::CpuBackendStats cold, warm;
            const auto a = be.run(plan, inputs, &cold);
            const auto b = be.run(plan, inputs, &warm);
            EXPECT_GT(cold.weightsSynthesized, 0) << model;
            EXPECT_EQ(warm.weightsSynthesized, 0) << model;
            EXPECT_TRUE(sameBytes(a, b))
                << model << " threads " << threads;
        }
    }
}

TEST(CpuBackendStats, WarmRunSynthesizesNoWeights)
{
    auto dev = device::adreno740();
    auto plan = core::compileStage(models::buildTinyVariant("ResNext", 1),
                                   dev, 3);
    const exec::CpuBackend be(exec::cpuBackendOptionsFor(dev, 2, freshSeed()));
    auto inputs =
        exec::makeSeededInputs(plan.graph, exec::Executor(be.options().seed));

    std::int64_t constantBytes = 0;
    int constants = 0;
    for (const ir::Node &n : plan.graph.nodes())
        if (n.kind == ir::OpKind::Constant &&
            !plan.graph.consumers(n.output).empty()) {
            constantBytes += plan.graph.value(n.output).shape.numElements() *
                             static_cast<std::int64_t>(sizeof(float));
            ++constants;
        }

    exec::CpuBackendStats cold, warm;
    be.run(plan, inputs, &cold);
    EXPECT_EQ(cold.weightsSynthesized, constants);
    EXPECT_EQ(cold.weightBytesResident, constantBytes);
    EXPECT_GT(cold.prepareMs, 0.0);

    const auto prepared = be.prepare(plan);
    EXPECT_EQ(prepared->weightsSynthesized, 0);
    be.run(*prepared, inputs, &warm);
    EXPECT_EQ(warm.weightsSynthesized, 0);
    EXPECT_EQ(warm.weightBytesResident, constantBytes);
    EXPECT_EQ(warm.prepareMs, prepared->prepareMs);
}

TEST(PreparedPlan, RoutingBlockPlansItsTableOnce)
{
    const auto dev = device::adreno740();
    const auto plan = core::compileStage(routingGraph(), dev, 3);
    exec::Executor ex(kSeed);
    const auto inputs = exec::makeSeededInputs(plan.graph, ex);
    const auto ref = ex.runOutputs(plan.graph, inputs);
    const exec::CpuBackend be(exec::cpuBackendOptionsFor(dev, 2, kSeed));

    const std::int64_t before = exec::stridedCopiesPlanned();
    const auto prepared = be.prepare(plan);
    const std::int64_t planned = exec::stridedCopiesPlanned();
    EXPECT_GT(planned, before);
    // The routing gather's copy lives in the prepared plan: one
    // (region, top-k) table loop.
    std::vector<std::int64_t> tables;
    for (const auto &kc : prepared->kernels)
        for (const auto &cp : kc.inputs)
            if (cp)
                for (const exec::CopyLoop &l : cp->loops)
                    if (!l.srcTable.empty())
                        tables.push_back(l.extent);
    EXPECT_EQ(tables, std::vector<std::int64_t>{kRegions * kTopK});

    std::vector<exec::Tensor> first;
    for (int run = 0; run < 5; ++run) {
        exec::CpuBackendStats st;
        const auto got = be.run(*prepared, inputs, &st);
        EXPECT_LE(exec::maxRelDiff(ref, got), kTolerance);
        EXPECT_EQ(st.substitutesMaterialized, 1);
        if (run == 0)
            first = got;
        EXPECT_TRUE(sameBytes(first, got)) << "run " << run;
    }
    EXPECT_EQ(exec::stridedCopiesPlanned(), planned)
        << "a prepared run planned a copy";
}

TEST(PreparedPlan, PinsSurviveAConcurrentPrepareAtAnotherSeed)
{
    auto dev = device::adreno740();
    auto plan = core::compileStage(models::buildTinyVariant("Swin", 1), dev,
                                   3);
    const exec::CpuBackend be(exec::cpuBackendOptionsFor(dev, 2, freshSeed()));
    auto inputs =
        exec::makeSeededInputs(plan.graph, exec::Executor(be.options().seed));
    const auto prepared = be.prepare(plan);
    const auto want = be.run(*prepared, inputs);

    // Each prepare at a new seed finds the previous one's weights idle
    // and evicts them; the pinned set must stay readable throughout.
    std::vector<std::uint64_t> otherSeeds;
    for (int i = 0; i < 6; ++i)
        otherSeeds.push_back(freshSeed());
    std::vector<char> same(2, 1);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < 6; ++i)
                same[t] = same[t] && sameBytes(want, be.run(*prepared, inputs));
        });
    threads.emplace_back([&] {
        for (std::uint64_t seed : otherSeeds)
            exec::CpuBackend(exec::cpuBackendOptionsFor(dev, 1, seed))
                .prepare(plan);
    });
    for (auto &th : threads)
        th.join();
    EXPECT_TRUE(same[0]);
    EXPECT_TRUE(same[1]);
    EXPECT_TRUE(sameBytes(want, be.run(*prepared, inputs)));
}

/** Recipes of `n` plain constants of `elems` floats at `seed`. */
std::vector<exec::ConstantRecipe>
plainRecipes(std::uint64_t seed, int n, std::int64_t elems)
{
    std::vector<exec::ConstantRecipe> rs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        rs[static_cast<std::size_t>(i)].shape = ir::Shape({elems});
        rs[static_cast<std::size_t>(i)].seed = seed;
        rs[static_cast<std::size_t>(i)].salt = static_cast<std::uint64_t>(i);
    }
    return rs;
}

TEST(WeightStore, RetentionRuleKeepsOneLargestSetIdle)
{
    exec::WeightStore store;
    exec::ParallelRunner par(2);
    const std::int64_t kSet = 3 * 1000 * 4; // bytes of one plainRecipes set
    int synthesized = 0;

    auto a1 = store.acquire(plainRecipes(1, 3, 1000), par, &synthesized);
    EXPECT_EQ(synthesized, 3);
    EXPECT_EQ(store.retentionBound(), kSet);
    EXPECT_EQ(store.idleBytes(), 0);
    store.release(a1);
    EXPECT_EQ(store.idleBytes(), kSet);

    // The same recipes hit, and bytes match a fresh synthesis.
    auto again = store.acquire(plainRecipes(1, 3, 1000), par, &synthesized);
    EXPECT_EQ(synthesized, 0);
    std::vector<float> want(1000);
    exec::synthesizeInto(plainRecipes(1, 3, 1000)[2], want.data());
    EXPECT_EQ(0, std::memcmp(again[2].get(), want.data(), 4000));
    store.release(again);

    // A new seed evicts the idle set before filling its own.
    auto a2 = store.acquire(plainRecipes(2, 3, 1000), par, &synthesized);
    EXPECT_EQ(synthesized, 3);
    EXPECT_EQ(store.residentBytes(), kSet);
    store.release(a2);

    // Pinned sets are never evicted, even when older than the idle
    // ones; trimming on release restores the bound.
    auto p3 = store.acquire(plainRecipes(3, 3, 1000), par);
    auto q = store.acquire(plainRecipes(7, 3, 1000), par);
    store.release(q);
    auto p4 = store.acquire(plainRecipes(4, 3, 1000), par);
    EXPECT_EQ(store.residentBytes(), 2 * kSet);
    EXPECT_EQ(store.idleBytes(), 0);
    auto hit = store.acquire(plainRecipes(3, 3, 1000), par, &synthesized);
    EXPECT_EQ(synthesized, 0);
    store.release(hit);
    store.release(p3);
    store.release(p4);
    EXPECT_LE(store.idleBytes(), store.retentionBound());
    EXPECT_EQ(store.residentBytes(), kSet);

    // A larger set raises the bound; a smaller one evicts least
    // recently used entries only as far as it must.
    auto big = store.acquire(plainRecipes(5, 6, 1000), par);
    EXPECT_EQ(store.retentionBound(), 2 * kSet);
    store.release(big);
    auto small = store.acquire(plainRecipes(6, 1, 1000), par);
    EXPECT_EQ(store.residentBytes(), 2 * kSet);
    store.release(small);
    EXPECT_LE(store.idleBytes(), store.retentionBound());
}

TEST(WeightStore, IdleBytesStayUnderTheLargestWeightSet)
{
    // Plan A at two seeds, then the tiny-zoo loop, through the
    // process-wide store every backend prepares against.
    auto dev = device::adreno740();
    const exec::WeightStore &store = exec::WeightStore::global();
    auto planA = core::compileStage(models::buildTinyVariant("Swin", 1), dev,
                                    3);
    for (std::uint64_t seed : {1, 2}) {
        const auto prepared =
            exec::CpuBackend(exec::cpuBackendOptionsFor(dev, 2, seed))
                .prepare(planA);
        EXPECT_LE(prepared->weightBytes, store.retentionBound());
    }
    EXPECT_LE(store.idleBytes(), store.retentionBound());
    const exec::CpuBackend be(exec::cpuBackendOptionsFor(dev, 2, kSeed));
    for (const std::string &name : models::evaluationModels()) {
        auto plan = core::compileStage(models::buildTinyVariant(name, 1),
                                       dev, 3);
        exec::CpuBackendStats st;
        be.run(plan, exec::makeSeededInputs(plan.graph, exec::Executor(kSeed)),
               &st);
        EXPECT_LE(st.weightBytesResident, store.retentionBound()) << name;
        EXPECT_LE(store.idleBytes(), store.retentionBound()) << name;
    }
}

/** x[1, 8] times one [8, 8] weight carrying `attrs`; `weightFirst`
 *  declares the weight before the input, renumbering both values. */
ir::Graph
oneWeightGraph(const ir::Attrs &attrs, bool weightFirst)
{
    ir::GraphBuilder b;
    ir::ValueId w = 0, x = 0;
    if (weightFirst) {
        w = b.constant("w", ir::Shape({8, 8}), ir::DType::F16, attrs);
        x = b.input("x", ir::Shape({1, 8}));
    } else {
        x = b.input("x", ir::Shape({1, 8}));
        w = b.constant("w", ir::Shape({8, 8}), ir::DType::F16, attrs);
    }
    b.markOutput(b.matmul(x, w));
    return b.finish();
}

TEST(WeightStore, RenumberedGraphsShareEntriesAndChangedFoldSaltsMiss)
{
    ir::Attrs folded;
    folded.set("salt", 77);
    folded.set("bnfold_scale_salt", 5);
    folded.set("bnfold_scale_count", 4);
    ir::Attrs refolded = folded;
    refolded.set("bnfold_scale_salt", 6);

    auto dev = device::adreno740();
    const exec::CpuBackend be(exec::cpuBackendOptionsFor(dev, 1, freshSeed()));
    auto compile = [&dev](const ir::Attrs &attrs, bool weightFirst) {
        return core::compileStage(oneWeightGraph(attrs, weightFirst), dev,
                                  3);
    };
    const auto planA = compile(folded, false);
    const auto planB = compile(folded, true);
    const auto planC = compile(refolded, false);
    ASSERT_NE(planA.graph.inputIds(), planB.graph.inputIds());

    const auto a = be.prepare(planA);
    EXPECT_EQ(a->weightsSynthesized, 1);
    EXPECT_EQ(be.prepare(planB)->weightsSynthesized, 0);
    EXPECT_EQ(be.prepare(planC)->weightsSynthesized, 1);

    // The key is the recipe: equal recipes, equal bytes.
    const exec::Executor ex(be.options().seed);
    auto weightOf = [](const ir::Graph &g) {
        for (const ir::Node &n : g.nodes())
            if (n.kind == ir::OpKind::Constant)
                return n.output;
        return ir::ValueId(-1);
    };
    const auto tA = ex.synthesizeConstant(planA.graph, weightOf(planA.graph));
    const auto tB = ex.synthesizeConstant(planB.graph, weightOf(planB.graph));
    EXPECT_EQ(0, std::memcmp(tA.data(), tB.data(), 64 * sizeof(float)));
}

} // namespace
} // namespace smartmem
