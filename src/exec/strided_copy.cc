#include "exec/strided_copy.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "exec/kernels_blocked.h"
#include "index/index_map.h"
#include "index/loop_nest.h"

namespace smartmem::exec {

using index::Expr;
using ir::Layout;
using ir::Shape;

namespace {

/** Elements per parallel task, at least. */
constexpr std::int64_t kGrain = 4096;

std::atomic<std::int64_t> copiesPlanned{0};

/** Offset contribution of coordinate c on a vec4-packed dimension. */
inline std::int64_t
laneOffset(std::int64_t c, std::int64_t blockStride)
{
    return (c / 4) * blockStride + c % 4;
}

/**
 * How one side's physical offset is read off the lowered expressions:
 * dim d's coordinate is expression first + d, contributing
 * coordinate * stride[d].  A packed dim within one lane group has
 * offset c itself (stride 1); one spanning several lane groups
 * (`packed`) contributes (c / 4) * stride + c % 4, taken from the
 * lowered pair at `split`.
 */
struct Side
{
    std::vector<std::int64_t> stride;
    int packed = -1;
    std::size_t first = 0;
    std::size_t split = 0;
};

Side
sideOf(const Layout &l, const Shape &shape, std::size_t first)
{
    Side s{l.strides(shape), l.packedDim(), first, 0};
    if (s.packed >= 0 && shape.dim(s.packed) <= 4) {
        s.stride[static_cast<std::size_t>(s.packed)] = 1;
        s.packed = -1;
    }
    return s;
}

/** The side's offset from per-expression values: one loop's
 *  coefficients or table row, or the bases.  Linear in them. */
std::int64_t
sideOffset(const Side &s, const std::int64_t *v)
{
    std::int64_t off = 0;
    for (std::size_t d = 0; d < s.stride.size(); ++d) {
        if (static_cast<int>(d) != s.packed)
            off += v[s.first + d] * s.stride[d];
        else
            off += v[s.split] * s.stride[d] + v[s.split + 1];
    }
    return off;
}

bool
hasTable(const CopyLoop &l)
{
    return !l.srcTable.empty() || !l.dstTable.empty();
}

/** Merge adjacent loops that walk both sides as one longer loop. */
void
mergeLoops(StridedCopy &cp)
{
    auto &loops = cp.loops;
    for (std::size_t i = loops.size(); i-- > 1;) {
        CopyLoop &outer = loops[i - 1];
        const CopyLoop &inner = loops[i];
        if (hasTable(outer) || hasTable(inner) ||
            outer.srcStride != inner.srcStride * inner.extent ||
            outer.dstStride != inner.dstStride * inner.extent)
            continue;
        outer.extent *= inner.extent;
        outer.srcStride = inner.srcStride;
        outer.dstStride = inner.dstStride;
        loops.erase(loops.begin() + static_cast<std::ptrdiff_t>(i));
    }
}

inline std::int64_t
srcContribution(const CopyLoop &l, std::int64_t j)
{
    return l.srcTable.empty() ? j * l.srcStride
                              : l.srcTable[static_cast<std::size_t>(j)];
}

inline std::int64_t
dstContribution(const CopyLoop &l, std::int64_t j)
{
    return l.dstTable.empty() ? j * l.dstStride
                              : l.dstTable[static_cast<std::size_t>(j)];
}

/**
 * `rows` steps of a table-free outer loop (strides ms / md) over a
 * table-free inner loop, from bases src / dst.  The stride cases are
 * decided once, outside the row loop.
 */
void
copyPlane(std::int64_t rows, std::int64_t ms, std::int64_t md,
          const CopyLoop &inner, const float *src, float *dst)
{
    const std::int64_t n = inner.extent;
    const std::int64_t ss = inner.srcStride;
    const std::int64_t ds = inner.dstStride;
    if (ss == 1 && ds == 1 && n == 4) {
        // One vec4 lane group per row: the common packed run.
        for (std::int64_t r = 0; r < rows; ++r)
            std::memcpy(dst + r * md, src + r * ms, 4 * sizeof(float));
    } else if (ss == 1 && ds == 1) {
        const auto bytes = static_cast<std::size_t>(n) * sizeof(float);
        for (std::int64_t r = 0; r < rows; ++r)
            std::memcpy(dst + r * md, src + r * ms, bytes);
    } else if (ds == 1) {
        for (std::int64_t r = 0; r < rows; ++r) {
            const float *s = src + r * ms;
            float *d = dst + r * md;
            for (std::int64_t j = 0; j < n; ++j)
                d[j] = s[j * ss];
        }
    } else {
        for (std::int64_t r = 0; r < rows; ++r) {
            const float *s = src + r * ms;
            float *d = dst + r * md;
            for (std::int64_t j = 0; j < n; ++j)
                d[j * ds] = s[j * ss];
        }
    }
}

/** Rows [j0, j1) of `outer` over the whole of `inner`, either of
 *  which may carry tables, from bases src / dst. */
void
copyPlaneTables(const CopyLoop &outer, std::int64_t j0, std::int64_t j1,
                const CopyLoop &inner, const float *src, float *dst)
{
    for (std::int64_t j = j0; j < j1; ++j) {
        const float *s = src + srcContribution(outer, j);
        float *d = dst + dstContribution(outer, j);
        for (std::int64_t i = 0; i < inner.extent; ++i)
            d[dstContribution(inner, i)] = s[srcContribution(inner, i)];
    }
}

} // namespace

std::int64_t
stridedCopiesPlanned()
{
    return copiesPlanned.load();
}

StridedCopy
planStridedCopy(const index::IndexMap &map, const Layout &srcL,
                const Shape &srcShape, const Layout &dstL)
{
    ++copiesPlanned;
    const Shape &os = map.outputShape();
    // Lowered expressions: the source coordinates, the destination
    // coordinates (the output variables), then each multi-group
    // packed dim's (c / 4, c % 4) pair.  The pair lowers to lane
    // digits when c / 4 nests, else (a ragged extent, a slice offset
    // that straddles lanes) to a table loop over the digits c reads.
    std::vector<Expr> exprs = map.exprs();
    Side src = sideOf(srcL, srcShape, 0);
    Side dst = sideOf(dstL, os, exprs.size());
    for (int d = 0; d < os.rank(); ++d)
        exprs.push_back(index::makeVar(d));
    for (Side *sd : {&src, &dst}) {
        if (sd->packed < 0)
            continue;
        const Expr c =
            exprs[sd->first + static_cast<std::size_t>(sd->packed)];
        sd->split = exprs.size();
        exprs.push_back(index::makeDiv(c, 4));
        exprs.push_back(index::makeMod(c, 4));
    }
    const index::LoopNest nest = index::lowerToLoopNest(exprs, os);
    // Compose with the layouts: each loop's per-expression
    // contributions become the two sides' offset contributions.
    StridedCopy cp;
    cp.srcBase = sideOffset(src, nest.base.data());
    cp.dstBase = sideOffset(dst, nest.base.data());
    cp.loops.reserve(nest.loops.size());
    for (const index::LoopNest::Loop &l : nest.loops) {
        if (!l.isTable()) {
            cp.loops.push_back({l.extent, sideOffset(src, l.coef.data()),
                                sideOffset(dst, l.coef.data()), {}, {}});
            continue;
        }
        CopyLoop loop{l.extent, 0, 0, {}, {}};
        loop.srcTable.reserve(static_cast<std::size_t>(l.extent));
        loop.dstTable.reserve(static_cast<std::size_t>(l.extent));
        for (std::size_t row = 0; row < l.table.size();
             row += exprs.size()) {
            loop.srcTable.push_back(sideOffset(src, &l.table[row]));
            loop.dstTable.push_back(sideOffset(dst, &l.table[row]));
        }
        cp.loops.push_back(std::move(loop));
    }
    mergeLoops(cp);
    return cp;
}

StridedCopy
planRelayout(const Shape &shape, const Layout &srcL, const Layout &dstL)
{
    // The identity map's nest is one loop per dim, so it is built
    // directly: relayouts run on every kernel boundary, and lowering's
    // heap-allocated expressions would cost more than small copies.
    const Side src = sideOf(srcL, shape, 0);
    const Side dst = sideOf(dstL, shape, 0);
    StridedCopy cp;
    cp.loops.reserve(static_cast<std::size_t>(shape.rank()) + 2);
    for (int d = 0; d < shape.rank(); ++d) {
        const auto di = static_cast<std::size_t>(d);
        const std::int64_t e = shape.dim(d);
        const std::int64_t ss = src.stride[di];
        const std::int64_t ds = dst.stride[di];
        const bool sp = d == src.packed;
        const bool dp = d == dst.packed;
        if (e == 1)
            continue;
        if (!sp && !dp) {
            cp.loops.push_back({e, ss, ds, {}, {}});
        } else if (e % 4 == 0) { // (c / 4, c % 4) lane digits
            cp.loops.push_back(
                {e / 4, sp ? ss : 4 * ss, dp ? ds : 4 * ds, {}, {}});
            cp.loops.push_back({4, sp ? 1 : ss, dp ? 1 : ds, {}, {}});
        } else { // ragged lanes: offset tables
            CopyLoop l{e, 0, 0, {}, {}};
            for (std::int64_t j = 0; j < e; ++j) {
                l.srcTable.push_back(sp ? laneOffset(j, ss) : j * ss);
                l.dstTable.push_back(dp ? laneOffset(j, ds) : j * ds);
            }
            cp.loops.push_back(std::move(l));
        }
    }
    mergeLoops(cp);
    return cp;
}

StridedCopy
planBroadcast(const Shape &shape, const Shape &outShape)
{
    const auto srcStr = shape.rowMajorStrides();
    const auto dstStr = outShape.rowMajorStrides();
    const int lead = outShape.rank() - shape.rank();
    StridedCopy cp;
    for (int d = 0; d < outShape.rank(); ++d) {
        const std::int64_t e = outShape.dim(d);
        if (e == 1)
            continue;
        const bool kept = d >= lead && shape.dim(d - lead) != 1;
        cp.loops.push_back({e,
                            kept ? srcStr[static_cast<std::size_t>(
                                       d - lead)]
                                 : 0,
                            dstStr[static_cast<std::size_t>(d)], {}, {}});
    }
    mergeLoops(cp);
    return cp;
}

void
runStridedCopy(const StridedCopy &cp, const float *src, float *dst,
               const ParallelRunner &par)
{
    const auto &loops = cp.loops;
    src += cp.srcBase;
    dst += cp.dstBase;
    if (loops.empty()) {
        *dst = *src;
        return;
    }
    const CopyLoop &inner = loops.back();
    if (loops.size() == 1) {
        // A single loop: split it, as rows of one element when it
        // carries tables.
        const CopyLoop one;
        par.run(inner.extent, kGrain,
                [&](std::int64_t j0, std::int64_t j1) {
            if (hasTable(inner)) {
                copyPlaneTables(inner, j0, j1, one, src, dst);
            } else {
                CopyLoop part = inner;
                part.extent = j1 - j0;
                copyPlane(1, 0, 0, part, src + j0 * inner.srcStride,
                          dst + j0 * inner.dstStride);
            }
        });
        return;
    }
    // Rows are the index space of every loop but the innermost; the
    // second-innermost ("mid") loop runs as a tight stride walk, the
    // ones above it as an odometer that moves once per mid sweep.
    const std::size_t nOuter = loops.size() - 2;
    const CopyLoop &mid = loops[nOuter];
    const bool tables = hasTable(mid) || hasTable(inner);
    std::int64_t rows = 1;
    for (std::size_t i = 0; i + 1 < loops.size(); ++i)
        rows *= loops[i].extent;
    if (rows == 0 || inner.extent == 0)
        return;
    const std::int64_t grain =
        std::max<std::int64_t>(1, kGrain / inner.extent);
    par.run(rows, grain, [&](std::int64_t r0, std::int64_t r1) {
        std::vector<std::int64_t> idx(nOuter + 1);
        std::int64_t rem = r0;
        for (std::size_t i = nOuter + 1; i-- > 0;) {
            idx[i] = rem % loops[i].extent;
            rem /= loops[i].extent;
        }
        std::int64_t so = 0, dO = 0;
        for (std::size_t i = 0; i < nOuter; ++i) {
            so += srcContribution(loops[i], idx[i]);
            dO += dstContribution(loops[i], idx[i]);
        }
        std::int64_t jm = idx[nOuter];
        for (std::int64_t r = r0;;) {
            const std::int64_t jEnd =
                std::min(mid.extent, jm + (r1 - r));
            if (tables)
                copyPlaneTables(mid, jm, jEnd, inner, src + so, dst + dO);
            else
                copyPlane(jEnd - jm, mid.srcStride, mid.dstStride, inner,
                          src + so + jm * mid.srcStride,
                          dst + dO + jm * mid.dstStride);
            r += jEnd - jm;
            if (r >= r1)
                break;
            jm = 0;
            for (std::size_t i = nOuter; i-- > 0;) {
                const CopyLoop &l = loops[i];
                so -= srcContribution(l, idx[i]);
                dO -= dstContribution(l, idx[i]);
                idx[i] = idx[i] + 1 < l.extent ? idx[i] + 1 : 0;
                so += srcContribution(l, idx[i]);
                dO += dstContribution(l, idx[i]);
                if (idx[i] != 0)
                    break;
            }
        }
    });
}

} // namespace smartmem::exec
