/**
 * @file
 * Unit + property tests for index expressions and IndexMaps -- the
 * index-comprehension machinery of Section 3.2.1.
 */
#include <gtest/gtest.h>

#include "index/expr.h"
#include "index/index_map.h"
#include "index/loop_nest.h"
#include "ir/graph.h"
#include <algorithm>
#include <functional>

#include "support/rng.h"

namespace smartmem::index {
namespace {

using ir::GraphBuilder;
using ir::OpKind;
using ir::Shape;

TEST(Expr, EvalBasics)
{
    // (v0 * 8 + v1) / 4
    Expr e = makeDiv(makeAdd(makeMul(makeVar(0), makeConst(8)),
                             makeVar(1)), 4);
    EXPECT_EQ(evalExpr(e, {2, 5}), (2 * 8 + 5) / 4);
}

TEST(Expr, RangeAnalysis)
{
    Expr e = makeAdd(makeMul(makeVar(0), makeConst(8)), makeVar(1));
    Range r = exprRange(e, {4, 8});
    EXPECT_EQ(r.lo, 0);
    EXPECT_EQ(r.hi, 3 * 8 + 7);
}

TEST(Expr, PaperStrengthReductionRule)
{
    // i % Ca % Cb -> i % Cb when Ca % Cb == 0 (Section 3.2.1 example).
    Expr e = makeMod(makeMod(makeVar(0), 32), 8);
    Expr s = simplifyExpr(e, {1000});
    EXPECT_EQ(exprToString(s), "(v0 % 8)");
}

TEST(Expr, ModNoOpWhenRangeSmall)
{
    Expr e = makeMod(makeVar(0), 64);
    Expr s = simplifyExpr(e, {16});
    EXPECT_EQ(exprToString(s), "v0");
}

TEST(Expr, DivToZeroWhenRangeSmall)
{
    Expr e = makeDiv(makeVar(0), 64);
    Expr s = simplifyExpr(e, {16});
    EXPECT_EQ(exprToString(s), "0");
}

TEST(Expr, DivOfDivMerges)
{
    Expr e = makeDiv(makeDiv(makeVar(0), 4), 8);
    Expr s = simplifyExpr(e, {1000});
    EXPECT_EQ(exprToString(s), "(v0 / 32)");
}

TEST(Expr, MulAddDivSplits)
{
    // (v0*8 + v1)/8 with v1 < 8 -> v0.
    Expr e = makeDiv(makeAdd(makeMul(makeVar(0), makeConst(8)),
                             makeVar(1)), 8);
    Expr s = simplifyExpr(e, {100, 8});
    EXPECT_EQ(exprToString(s), "v0");
}

TEST(Expr, MulAddModSplits)
{
    // (v0*8 + v1)%8 with v1 < 8 -> v1.
    Expr e = makeMod(makeAdd(makeMul(makeVar(0), makeConst(8)),
                             makeVar(1)), 8);
    Expr s = simplifyExpr(e, {100, 8});
    EXPECT_EQ(exprToString(s), "v1");
}

TEST(Expr, SimplifyIsValuePreserving_Random)
{
    // Random expression trees: simplified form must agree everywhere.
    smartmem::Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::int64_t> extents = {
            rng.uniformInt(1, 12), rng.uniformInt(1, 12),
            rng.uniformInt(1, 12)};
        // Build a random tree of depth <= 5.
        std::function<Expr(int)> gen = [&](int depth) -> Expr {
            if (depth == 0 || rng.chance(0.3)) {
                if (rng.chance(0.5))
                    return makeVar(static_cast<int>(rng.pickIndex(3)));
                return makeConst(rng.uniformInt(0, 9));
            }
            switch (rng.pickIndex(4)) {
              case 0:
                return makeAdd(gen(depth - 1), gen(depth - 1));
              case 1:
                return makeMul(gen(depth - 1),
                               makeConst(rng.uniformInt(1, 9)));
              case 2:
                return makeDiv(gen(depth - 1), rng.uniformInt(1, 9));
              default:
                return makeMod(gen(depth - 1), rng.uniformInt(1, 9));
            }
        };
        Expr e = gen(5);
        Expr s = simplifyExpr(e, extents);
        EXPECT_LE(divModCount(s), divModCount(e));
        for (int pt = 0; pt < 20; ++pt) {
            std::vector<std::int64_t> vars = {
                rng.uniformInt(0, extents[0] - 1),
                rng.uniformInt(0, extents[1] - 1),
                rng.uniformInt(0, extents[2] - 1)};
            ASSERT_EQ(evalExpr(e, vars), evalExpr(s, vars))
                << exprToString(e) << " vs " << exprToString(s);
        }
    }
}

TEST(Expr, SubstituteReplacesVars)
{
    Expr e = makeAdd(makeVar(0), makeMul(makeVar(1), makeConst(3)));
    Expr r = substitute(e, {makeConst(2), makeVar(0)});
    EXPECT_EQ(evalExpr(r, {5}), 2 + 5 * 3);
}

TEST(Expr, LookupEvaluatesTable)
{
    auto table = std::make_shared<const std::vector<std::int64_t>>(
        std::vector<std::int64_t>{7, 5, 3});
    Expr e = makeLookup(table, makeVar(0));
    EXPECT_EQ(evalExpr(e, {2}), 3);
}

// ---------------------------------------------------------------
// IndexMap: per-operator maps validated against reference semantics.
// ---------------------------------------------------------------

/** Reference: the input coordinate holding out element (row-major
 *  data-preserving reshape). */
std::vector<std::int64_t>
reshapeRef(const std::vector<std::int64_t> &out_coord,
           const Shape &out_shape, const Shape &in_shape)
{
    return ir::delinearize(ir::linearize(out_coord, out_shape),
                           in_shape);
}

TEST(IndexMap, ReshapeMatchesRowMajorReference)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 256, 4}));
    auto y = b.reshape(x, {16, 8, 4, 4});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer))
                     .simplified();
    for (std::int64_t i = 0; i < 16 * 8 * 4 * 4; ++i) {
        auto oc = ir::delinearize(i, Shape({16, 8, 4, 4}));
        EXPECT_EQ(m.apply(oc),
                  reshapeRef(oc, Shape({16, 8, 4, 4}),
                             Shape({2, 256, 4})));
    }
}

TEST(IndexMap, TransposeMatchesPermutation)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({3, 4, 5}));
    auto y = b.transpose(x, {2, 0, 1});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    // out[i,j,k] = in[j,k,i]  (out dim 0 carries in dim 2, etc.)
    EXPECT_EQ(m.apply({4, 2, 3}), (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(IndexMap, SliceOffsets)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({4, 10}));
    auto y = b.slice(x, {1}, {3}, {7});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    EXPECT_EQ(m.apply({2, 0}), (std::vector<std::int64_t>{2, 3}));
}

TEST(IndexMap, GatherUsesConstantIndices)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({10, 3}));
    auto idx = b.constantData("idx", Shape({4}), {9, 0, 2, 2});
    auto y = b.gather(x, idx, 0);
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer));
    EXPECT_EQ(m.apply({0, 1}), (std::vector<std::int64_t>{9, 1}));
    EXPECT_EQ(m.apply({3, 2}), (std::vector<std::int64_t>{2, 2}));
}

TEST(IndexMap, DepthToSpaceThenSpaceToDepthIsIdentity)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 8, 4, 4}));
    auto y = b.depthToSpace(x, 2);
    auto z = b.spaceToDepth(y, 2);
    b.markOutput(z);
    auto g = b.finish();
    IndexMap m1 = IndexMap::fromNode(g, g.node(g.value(y).producer));
    IndexMap m2 = IndexMap::fromNode(g, g.node(g.value(z).producer));
    IndexMap comp = m2.composedWith(m1).simplified();
    EXPECT_TRUE(comp.isIdentity()) << comp.toString();
}

TEST(IndexMap, ReshapeInverseComposesToIdentity)
{
    GraphBuilder b;
    auto x = b.input("x", Shape({6, 10}));
    auto y = b.reshape(x, {2, 3, 10});
    auto z = b.reshape(y, {6, 10});
    b.markOutput(z);
    auto g = b.finish();
    IndexMap m1 = IndexMap::fromNode(g, g.node(g.value(y).producer));
    IndexMap m2 = IndexMap::fromNode(g, g.node(g.value(z).producer));
    EXPECT_TRUE(m2.composedWith(m1).isIdentity());
}

TEST(IndexMap, SimplificationReducesDivMods)
{
    // Figure 3's stack: Reshape [2,256,4] -> [16,8,4,4] then a
    // Transpose; strength reduction must shrink the index arithmetic.
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 256, 4}));
    auto y = b.reshape(x, {16, 8, 4, 4});
    auto z = b.transpose(y, {0, 2, 1, 3});
    b.markOutput(z);
    auto g = b.finish();
    IndexMap m1 = IndexMap::fromNode(g, g.node(g.value(y).producer));
    IndexMap m2 = IndexMap::fromNode(g, g.node(g.value(z).producer));
    IndexMap comp = m2.composedWith(m1);
    IndexMap simp = comp.simplified();
    EXPECT_LT(simp.divModCount(), comp.divModCount());
    // And it is still value-correct.
    for (std::int64_t i = 0; i < comp.outputShape().numElements();
         i += 7) {
        auto oc = ir::delinearize(i, comp.outputShape());
        EXPECT_EQ(simp.apply(oc), comp.apply(oc));
    }
}

TEST(IndexMap, DependencyClassification)
{
    // Figure 3: reshape [2,256,4] -> [16,8,4,4] creates split/merge
    // dependencies.
    GraphBuilder b;
    auto x = b.input("x", Shape({2, 256, 4}));
    auto y = b.reshape(x, {16, 8, 4, 4});
    b.markOutput(y);
    auto g = b.finish();
    IndexMap m = IndexMap::fromNode(g, g.node(g.value(y).producer))
                     .simplified();
    // in dim 2 (extent 4) maps from the last out var: identity-ish or
    // split; in dim 1 (256) merges several out vars.
    EXPECT_EQ(m.classify(1), DepKind::Merge);
    EXPECT_EQ(m.classify(2), DepKind::Identity);
}

TEST(IndexMap, IdentityDetection)
{
    IndexMap m = IndexMap::identity(Shape({3, 4}));
    EXPECT_TRUE(m.isIdentity());
    EXPECT_EQ(m.divModCount(), 0);
}


// ---------------------------------------------------------------
// LoopNest: lowering composed maps to mixed-radix digit loops.
// ---------------------------------------------------------------

/** Expression values at every point of `nest`, in loop order. */
std::vector<std::vector<std::int64_t>>
nestValues(const LoopNest &nest)
{
    const std::size_t n = nest.base.size();
    std::vector<std::vector<std::int64_t>> out;
    std::vector<std::int64_t> idx(nest.loops.size(), 0);
    while (true) {
        std::vector<std::int64_t> v = nest.base;
        for (std::size_t l = 0; l < nest.loops.size(); ++l) {
            const LoopNest::Loop &loop = nest.loops[l];
            const auto j = static_cast<std::size_t>(idx[l]);
            for (std::size_t e = 0; e < n; ++e)
                v[e] += loop.isTable() ? loop.table[j * n + e]
                                       : idx[l] * loop.coef[e];
        }
        out.push_back(std::move(v));
        std::size_t l = nest.loops.size();
        while (l-- > 0) {
            if (++idx[l] < nest.loops[l].extent)
                break;
            idx[l] = 0;
        }
        if (l == static_cast<std::size_t>(-1))
            return out;
    }
}

/** Walk `nest` in loop order and check, point by point, that it
 *  visits the map's output in row-major order with apply()'s input
 *  coordinates. */
void
expectNestMatchesApply(const LoopNest &nest, const IndexMap &m)
{
    const auto values = nestValues(nest);
    ASSERT_EQ(static_cast<std::int64_t>(values.size()),
              m.outputShape().numElements());
    for (std::size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(values[i],
                  m.apply(ir::delinearize(static_cast<std::int64_t>(i),
                                          m.outputShape())))
            << m.toString() << " at " << i;
}

/** Lower m's coordinates together with the output variables -- table
 *  loops may reorder the visit -- and check that every output point
 *  is visited once with apply()'s input coordinates.  Returns the
 *  nest. */
LoopNest
expectLowersToApply(const IndexMap &m)
{
    std::vector<Expr> exprs = m.exprs();
    const std::size_t in = exprs.size();
    const Shape &os = m.outputShape();
    for (int d = 0; d < os.rank(); ++d)
        exprs.push_back(makeVar(d));
    LoopNest nest = lowerToLoopNest(exprs, os);
    std::vector<bool> seen(static_cast<std::size_t>(os.numElements()));
    for (const auto &v : nestValues(nest)) {
        const std::vector<std::int64_t> out(v.begin() + in, v.end());
        const std::vector<std::int64_t> coords(v.begin(), v.begin() + in);
        EXPECT_EQ(coords, m.apply(out)) << m.toString();
        const auto i = static_cast<std::size_t>(ir::linearize(out, os));
        EXPECT_FALSE(seen[i]) << m.toString() << " visits " << i
                              << " twice";
        seen[i] = true;
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              os.numElements())
        << m.toString();
    return nest;
}

std::size_t
tableLoops(const LoopNest &nest)
{
    return static_cast<std::size_t>(
        std::count_if(nest.loops.begin(), nest.loops.end(),
                      [](const LoopNest::Loop &l) { return l.isTable(); }));
}

TEST(LoopNest, SwinWindowSplitsIntoMixedRadixDigits)
{
    // v1 in [0, 3136) with divisors 7, 56, 392: digits (8, 7, 8, 7).
    IndexMap m = IndexMap::parse(
        "[1, 3136, 96] -> [64, 49, 96] : [((((v0*8) + (v1 / 392))*8) + "
        "((v1 / 7) % 8)), ((((v1 / 56) % 7)*7) + (v1 % 7)), v2]");
    const LoopNest nest = lowerToLoopNest(m);
    std::vector<std::int64_t> extents;
    for (const auto &l : nest.loops)
        extents.push_back(l.extent);
    EXPECT_EQ(extents, (std::vector<std::int64_t>{8, 7, 8, 7, 96}));
    EXPECT_EQ(tableLoops(nest), 0u);
    expectNestMatchesApply(nest, m);
}

TEST(LoopNest, PlanShapedMapsLowerExactly)
{
    // QKV head split, head merge, patch merge and window reverse as
    // they appear in Swin's stage-3 plan.
    for (const char *text :
         {"[192, 49, 32] -> [64, 49, 288] : [(v0 / 3), v1, "
          "(((3 + (v0 % 3))*32) + v2)]",
          "[64, 49, 96] -> [192, 49, 32] : [((v0*3) + (v2 / 32)), v1, "
          "(v2 % 32)]",
          "[1, 784, 384] -> [1, 3136, 96] : [0, ((((((((v0*28) + "
          "(v1 / 28))*2) + (v2 / 192))*28) + (v1 % 28))*2) + "
          "((v2 / 96) % 2)), (v2 % 96)]",
          "[64, 49, 96] -> [1, 3136, 96] : [0, (((((((v0 / 8)*7) + "
          "(v1 / 7))*8) + (v0 % 8))*7) + (v1 % 7)), v2]"}) {
        IndexMap m = IndexMap::parse(text);
        const LoopNest nest = lowerToLoopNest(m);
        EXPECT_EQ(tableLoops(nest), 0u) << text;
        expectNestMatchesApply(nest, m);
    }
}

TEST(LoopNest, ComposedReshapeTransposeChainsLower)
{
    // Reshape -> transpose -> reshape, composed and simplified the way
    // the planner builds read maps.
    GraphBuilder b;
    auto x = b.input("x", Shape({1, 8, 8, 6}));
    auto r = b.reshape(x, {1, 2, 4, 2, 4, 6});
    auto t = b.transpose(r, {0, 1, 3, 2, 4, 5});
    auto y = b.reshape(t, {4, 16, 6});
    b.markOutput(y);
    auto g = b.finish();
    auto mapOf = [&](ir::ValueId v) {
        return IndexMap::fromNode(g, g.node(g.value(v).producer));
    };
    IndexMap m = mapOf(y).composedWith(mapOf(t)).composedWith(mapOf(r));
    for (const IndexMap &variant : {m, m.simplified()}) {
        const LoopNest nest = lowerToLoopNest(variant);
        EXPECT_EQ(tableLoops(nest), 0u) << variant.toString();
        expectNestMatchesApply(nest, variant);
    }
}

TEST(LoopNest, LookupAndNonNestingDivisorsLowerToTableLoops)
{
    // Each map has a subterm that no nesting digit split makes affine:
    // its digits collapse into one table loop of `entries`.
    const struct
    {
        const char *map;
        std::int64_t entries;
    } cases[] = {
        {"[4] -> [8] : [lookup{3,1,2,0}[v0]]", 4},
        {"[12] -> [2, 4] : [(v0 / 6), (v0 % 4)]", 12},
        {"[12] -> [4, 2] : [(v0 % 4), (v0 / 6)]", 12},
        // (v + 2) % 4 wraps inside the low digit of the split at 4.
        {"[8] -> [4] : [((v0 + 2) % 4)]", 4},
        // 12 * L + 4 * v1 does not divide by 8 term by term: the
        // opaque part's multipliers (8 and 4) share only 4.
        {"[2, 2] -> [3] : [((((lookup{0,1}[v0]*8) + "
         "(lookup{0,1}[v0]*4)) + (v1*4)) / 8)]",
         4},
        // The lookup reads v0 and v1's top digit only; v1 % 8 and v2
        // stay affine loops.
        {"[3, 16, 5] -> [6, 8, 5] : [lookup{5,0,3,1,4,2}[((v0*2) + "
         "(v1 / 8))], (v1 % 8), v2]",
         6},
    };
    for (const auto &c : cases) {
        const IndexMap m = IndexMap::parse(c.map);
        const LoopNest nest = expectLowersToApply(m);
        ASSERT_EQ(tableLoops(nest), 1u) << c.map;
        for (const LoopNest::Loop &l : nest.loops) {
            if (l.isTable()) {
                EXPECT_EQ(l.extent, c.entries) << c.map;
            }
        }
    }
}

TEST(LoopNest, IdentityIsOneLoopPerNonUnitDim)
{
    IndexMap m = IndexMap::identity(Shape({3, 1, 5}));
    const LoopNest nest = lowerToLoopNest(m);
    ASSERT_EQ(nest.loops.size(), 2u);
    EXPECT_EQ(nest.loops[0].extent, 3);
    EXPECT_EQ(nest.loops[1].extent, 5);
    expectNestMatchesApply(nest, m);
}

} // namespace
} // namespace smartmem::index
