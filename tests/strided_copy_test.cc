/**
 * @file
 * Tests for the strided-copy engine (exec/strided_copy.h) and the
 * loop-nest lowering under it (index/loop_nest.h).
 *
 * Every read map of every zoo plan (tiny variants, stages 0 and 3),
 * every surviving transformation node, and every layout the plans
 * store is copied through the engine from a random source in its real
 * physical layout and compared element for element with
 * IndexMap::apply plus ir::physicalOffset.  Hand-written cases cover
 * ragged and narrow vec4 packing, slice offsets, size-1 dims and the
 * table loops of non-affine maps (Lookup maps, divisor chains that do
 * not nest), and a property test runs random expression trees as
 * maps.  Outputs must be byte-identical at 1, 2 and 4 threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/smartmem_compiler.h"
#include "device/device_profile.h"
#include "exec/kernels_blocked.h"
#include "exec/strided_copy.h"
#include "index/index_map.h"
#include "index/loop_nest.h"
#include "ir/graph.h"
#include "models/models.h"
#include "support/rng.h"

namespace smartmem::exec {
namespace {

using index::IndexMap;
using ir::GraphBuilder;
using ir::Layout;
using ir::Shape;

/** `storage` random floats (padding lanes included). */
std::vector<float>
randomBuffer(std::int64_t storage, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> buf(static_cast<std::size_t>(storage));
    for (float &f : buf)
        f = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return buf;
}

/** Row-major map.outputShape() gathered element by element through
 *  IndexMap::apply and physicalOffset. */
std::vector<float>
referenceGather(const IndexMap &map, const std::vector<float> &src,
                const Layout &srcL, const Shape &srcShape)
{
    const Shape &os = map.outputShape();
    std::vector<float> out(static_cast<std::size_t>(os.numElements()));
    for (std::int64_t i = 0; i < os.numElements(); ++i) {
        const auto in = map.apply(ir::delinearize(i, os));
        out[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(
            ir::physicalOffset(in, srcShape, srcL))];
    }
    return out;
}

std::size_t
tableLoops(const StridedCopy &cp)
{
    return static_cast<std::size_t>(std::count_if(
        cp.loops.begin(), cp.loops.end(), [](const CopyLoop &l) {
            return !l.srcTable.empty() || !l.dstTable.empty();
        }));
}

/**
 * Gather through the engine at 1, 2 and 4 threads: every result must
 * match the reference and the three must be byte-identical.  Returns
 * the planned copy.
 */
StridedCopy
checkGather(const IndexMap &map, const Layout &srcL,
            const Shape &srcShape, const std::string &what)
{
    const auto src = randomBuffer(srcL.storageElements(srcShape), 7);
    const auto want = referenceGather(map, src, srcL, srcShape);
    const StridedCopy cp = planStridedCopy(
        map, srcL, srcShape, Layout::rowMajor(map.outputShape().rank()));
    std::vector<float> first;
    for (int threads : {1, 2, 4}) {
        ParallelRunner par(threads);
        std::vector<float> got(want.size(), -7.0f);
        runStridedCopy(cp, src.data(), got.data(), par);
        EXPECT_EQ(got, want) << what << " threads " << threads;
        if (first.empty())
            first = got;
        EXPECT_EQ(0, std::memcmp(first.data(), got.data(),
                                 got.size() * sizeof(float)))
            << what << " differs at " << threads << " threads";
    }
    return cp;
}

/**
 * planRelayout srcL -> dstL -> srcL at 1, 2 and 4 threads: the
 * destination must hold every element where physicalOffset says, the
 * round trip must restore every logical element bit for bit, and the
 * destination bytes must not depend on the thread count.
 */
void
checkRoundTrip(const Shape &shape, const Layout &srcL, const Layout &dstL,
               const std::string &what)
{
    const auto src = randomBuffer(srcL.storageElements(shape), 11);
    std::vector<float> first;
    for (int threads : {1, 2, 4}) {
        ParallelRunner par(threads);
        std::vector<float> mid(
            static_cast<std::size_t>(dstL.storageElements(shape)), 0.0f);
        std::vector<float> back(src.size(), 0.0f);
        runStridedCopy(planRelayout(shape, srcL, dstL), src.data(),
                       mid.data(), par);
        runStridedCopy(planRelayout(shape, dstL, srcL), mid.data(),
                       back.data(), par);
        for (std::int64_t i = 0; i < shape.numElements(); ++i) {
            const auto c = ir::delinearize(i, shape);
            const auto so = static_cast<std::size_t>(
                ir::physicalOffset(c, shape, srcL));
            const auto dof = static_cast<std::size_t>(
                ir::physicalOffset(c, shape, dstL));
            ASSERT_EQ(0, std::memcmp(&mid[dof], &src[so], sizeof(float)))
                << what << " element " << i;
            ASSERT_EQ(0, std::memcmp(&back[so], &src[so], sizeof(float)))
                << what << " round trip element " << i;
        }
        if (first.empty())
            first = mid;
        EXPECT_EQ(0, std::memcmp(first.data(), mid.data(),
                                 mid.size() * sizeof(float)))
            << what << " differs at " << threads << " threads";
    }
}

/** The layout `in.source` is stored in when a kernel reads it: the
 *  producing kernel's output layout for that copy, row-major for
 *  model inputs, constants and in-kernel sources. */
Layout
storedLayout(const runtime::ExecutionPlan &plan,
             const runtime::KernelInput &in)
{
    const int rank = plan.graph.value(in.source).shape.rank();
    if (!in.internalSource) {
        for (const runtime::Kernel &k : plan.kernels)
            if (k.output == in.source && k.copyIndex == in.sourceCopy)
                return k.outLayout;
    }
    return Layout::rowMajor(rank);
}

class ZooCopies : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooCopies, EveryPlanCopyMatchesTheReference)
{
    const auto dev = device::adreno740();
    const ir::Graph g = models::buildTinyVariant(GetParam(), 1);
    for (int stage : {0, 3}) {
        const auto plan = core::compileStage(g, dev, stage);
        const std::string where =
            GetParam() + " stage " + std::to_string(stage);
        for (const runtime::Kernel &k : plan.kernels) {
            for (const runtime::KernelInput &in : k.inputs) {
                if (in.readMap) {
                    const Shape &ss = plan.graph.value(in.source).shape;
                    checkGather(*in.readMap, storedLayout(plan, in), ss,
                                where + " " + k.name);
                    // No tiny-variant map has a non-affine subterm.
                    for (const auto &l :
                         index::lowerToLoopNest(*in.readMap).loops)
                        EXPECT_FALSE(l.isTable())
                            << where << " " << k.name << " "
                            << in.readMap->toString();
                }
                if (k.isLayoutCopy && k.fusedNodes.empty()) {
                    checkRoundTrip(plan.graph.value(k.output).shape,
                                   storedLayout(plan, in), k.outLayout,
                                   where + " relayout " + k.name);
                }
            }
            // Surviving transformation nodes gather row-major locals.
            for (ir::NodeId id : k.fusedNodes) {
                const ir::Node &n = plan.graph.node(id);
                if (!IndexMap::isEliminable(n.kind))
                    continue;
                const IndexMap m =
                    IndexMap::fromNode(plan.graph, n).simplified();
                checkGather(m, Layout::rowMajor(m.inputShape().rank()),
                            m.inputShape(), where + " node " + n.name);
            }
            // Pack in publishOutput and unpack in resolveLocal.
            const Shape &os = plan.graph.value(k.output).shape;
            checkRoundTrip(os, Layout::rowMajor(os.rank()), k.outLayout,
                           where + " publish " + k.name);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooCopies, ::testing::ValuesIn(models::evaluationModels()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(StridedCopy, SwinWindowPartitionFromTextureIsParallelAndExact)
{
    // Full-size Swin stage-1 window partition reading a channel-packed
    // texture: large enough to split across workers.
    const IndexMap m = IndexMap::parse(
        "[64, 49, 96] -> [1, 3136, 96] : [0, (((((((v0 / 8)*7) + "
        "(v1 / 7))*8) + (v0 % 8))*7) + (v1 % 7)), v2]");
    for (const char *l : {"tex{y:0 x:1 2,0,1|pack:2}", "buf{0,1,2}"})
        EXPECT_EQ(tableLoops(checkGather(m, Layout::parse(l),
                                         m.inputShape(), l)),
                  0u)
            << l;
}

TEST(StridedCopy, RaggedPackedExtents)
{
    // 6 and 5 are not multiples of 4: the packed coordinate becomes an
    // offset table.
    const Shape s({2, 6, 5});
    const Layout rm = Layout::rowMajor(3);
    for (const Layout &l :
         {Layout::packed(3, 1), Layout::packed(3, 2),
          Layout::withOrder({2, 0, 1}, 1), Layout::texture(3, 0, 1, 2),
          Layout::texture(3, 2, 1, 1)}) {
        checkRoundTrip(s, rm, l, "ragged " + l.toString());
        checkRoundTrip(s, l, Layout::packed(3, 2),
                       "ragged pair " + l.toString());
        checkGather(IndexMap::identity(s), l, s,
                    "ragged gather " + l.toString());
    }
}

TEST(StridedCopy, PackedExtentWithinOneLaneGroup)
{
    const Shape s({3, 3, 7});
    for (const Layout &l : {Layout::packed(3, 1), Layout::packed(3, 0),
                            Layout::texture(3, 2, 0, 1)}) {
        checkRoundTrip(s, Layout::rowMajor(3), l, "narrow " + l.toString());
        checkGather(IndexMap::identity(s), l, s,
                    "narrow gather " + l.toString());
    }
}

TEST(StridedCopy, SliceOffsetsThroughPackedSource)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 8, 6}));
    auto y = b.slice(x, {1, 2}, {1, 2}, {7, 5});
    b.markOutput(y);
    const auto g = b.finish();
    const IndexMap m =
        IndexMap::fromNode(g, g.node(g.value(y).producer)).simplified();
    for (const Layout &l : {Layout::rowMajor(3), Layout::packed(3, 1),
                            Layout::packed(3, 2),
                            Layout::texture(3, 0, 2, 1)})
        checkGather(m, l, m.inputShape(), "slice from " + l.toString());
}

TEST(StridedCopy, SizeOneDims)
{
    const Shape s({1, 5, 1, 8});
    for (const Layout &l :
         {Layout::packed(4, 0), Layout::packed(4, 2),
          Layout::packed(4, 3), Layout::withOrder({3, 1, 0, 2}, 1),
          Layout::texture(4, 1, 3, 3)})
        checkRoundTrip(s, Layout::rowMajor(4), l, "size-1 " + l.toString());
    const IndexMap m =
        IndexMap::parse("[5, 8, 1] -> [1, 5, 1, 8] : [0, v0, 0, v1]");
    checkGather(m, Layout::packed(4, 3), s, "size-1 gather");
}

TEST(StridedCopy, LookupMapIsOneTableLoop)
{
    // The Gather's index column becomes one table loop of 4 entries
    // over the contiguous (or lane-split) row.
    GraphBuilder b;
    auto x = b.input("x", Shape({10, 12}));
    auto idx = b.constantData("idx", Shape({4}), {9, 0, 2, 2});
    auto y = b.gather(x, idx, 0);
    b.markOutput(y);
    const auto g = b.finish();
    const IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    for (const Layout &l : {Layout::rowMajor(2), Layout::packed(2, 1)}) {
        const StridedCopy cp =
            checkGather(m, l, m.inputShape(), "lookup from " + l.toString());
        ASSERT_EQ(tableLoops(cp), 1u) << l.toString();
        EXPECT_EQ(cp.loops.front().extent, 4) << l.toString();
        EXPECT_EQ(cp.loops.front().srcTable.size(), 4u) << l.toString();
    }
}

TEST(StridedCopy, NonNestingDivisorsLowerToTables)
{
    // Cuts at 6 and 4 of one variable do not nest: v0's two digits
    // collapse into one table loop.
    const IndexMap m =
        IndexMap::parse("[12] -> [2, 4] : [(v0 / 6), (v0 % 4)]");
    const StridedCopy cp = checkGather(m, Layout::rowMajor(2),
                                       m.inputShape(), "v/6 with v%4");
    ASSERT_EQ(cp.loops.size(), 1u);
    EXPECT_EQ(cp.loops[0].srcTable.size(), 12u);
}

TEST(StridedCopy, GatherOverFlatTensorTablesEveryElement)
{
    // The worst case: the lookup reads every output digit, so the
    // table holds one entry per output element.
    GraphBuilder b;
    auto x = b.input("x", Shape({6, 8}));
    auto flat = b.reshape(x, {48});
    auto idx = b.constantData(
        "idx", Shape({20}), {47, 3, 3, 0, 12, 40, 7, 8, 9, 30,
                             1, 46, 5, 5, 22, 17, 38, 2, 44, 11});
    auto y = b.gather(flat, idx, 0);
    b.markOutput(y);
    const auto g = b.finish();
    const IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    for (const Layout &l : {Layout::rowMajor(1), Layout::packed(1, 0)}) {
        const StridedCopy cp =
            checkGather(m, l, m.inputShape(), "flat " + l.toString());
        ASSERT_EQ(cp.loops.size(), 1u);
        EXPECT_EQ(cp.loops[0].srcTable.size(), 20u);
    }
}

TEST(StridedCopy, RandomExprMapsMatchApply)
{
    // Random trees (Lookup, Div, Mod and divisors that need not nest)
    // as map coordinates, read from row-major, vec4-packed and texture
    // sources: every plan matches IndexMap::apply at 1, 2 and 4
    // threads, byte for byte.
    Rng rng(7117);
    const std::string table = "{2,0,1,3,2,0,1,3,0,2,1,0}";
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::int64_t> extents = {
            rng.uniformInt(1, 10), rng.uniformInt(1, 10),
            rng.uniformInt(1, 10)};
        std::function<std::string(int)> gen = [&](int depth) {
            if (depth == 0 || rng.chance(0.3)) {
                if (rng.chance(0.5))
                    return "v" + std::to_string(rng.pickIndex(3));
                return std::to_string(rng.uniformInt(0, 9));
            }
            switch (rng.pickIndex(5)) {
              case 0:
                return "(" + gen(depth - 1) + " + " + gen(depth - 1) + ")";
              case 1:
                return "(" + gen(depth - 1) + "*" +
                       std::to_string(rng.uniformInt(1, 9)) + ")";
              case 2:
                return "(" + gen(depth - 1) + " / " +
                       std::to_string(rng.uniformInt(1, 9)) + ")";
              case 3:
                // Bound the index into the 12-entry table.
                return "lookup" + table + "[(" + gen(depth - 1) +
                       " % 12)]";
              default:
                return "(" + gen(depth - 1) + " % " +
                       std::to_string(rng.uniformInt(1, 9)) + ")";
            }
        };
        std::vector<index::Expr> exprs;
        std::string coords;
        for (int i = 0; i < 3; ++i) {
            const std::string e = gen(4);
            exprs.push_back(index::parseExpr(e));
            coords += (i ? ", " : "") + e;
        }
        std::vector<std::int64_t> in;
        for (const auto &e : exprs)
            in.push_back(index::exprRange(e, extents).hi + 1);
        const Shape out(extents);
        const IndexMap m = IndexMap::parse(
            out.toString() + " -> " + Shape(in).toString() + " : [" +
            coords + "]");
        for (const Layout &l :
             {Layout::rowMajor(3), Layout::packed(3, 2),
              Layout::texture(3, 0, 1, 2)})
            checkGather(m, l, m.inputShape(),
                        m.toString() + " from " + l.toString());
    }
}

TEST(StridedCopy, ContiguousRunsMergeIntoOneLoop)
{
    // A reshape between row-major buffers is one memcpy-able loop.
    const IndexMap m = IndexMap::parse(
        "[4, 6, 10] -> [24, 10] : [((v0*6) + v1), v2]");
    const auto cp = planStridedCopy(m, Layout::rowMajor(2), Shape({24, 10}),
                                    Layout::rowMajor(3));
    ASSERT_EQ(cp.loops.size(), 1u);
    EXPECT_EQ(cp.loops[0].extent, 240);
    EXPECT_EQ(cp.loops[0].srcStride, 1);
    EXPECT_EQ(cp.loops[0].dstStride, 1);
}

} // namespace
} // namespace smartmem::exec
