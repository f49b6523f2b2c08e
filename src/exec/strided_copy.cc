#include "exec/strided_copy.h"

#include <algorithm>
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
 * lowered pair at `split` -- or from an offset table.
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

/** The side's offset from per-expression values (one loop's
 *  coefficients, or the bases), leaving out a tabled packed dim. */
std::int64_t
sideOffset(const Side &s, const std::vector<std::int64_t> &v, bool tables)
{
    std::int64_t off = 0;
    for (std::size_t d = 0; d < s.stride.size(); ++d) {
        if (static_cast<int>(d) != s.packed)
            off += v[s.first + d] * s.stride[d];
        else if (!tables)
            off += v[s.split] * s.stride[d] + v[s.split + 1];
    }
    return off;
}

/** A multi-group vec4-packed dim whose coordinate -- expression
 *  `expr` of the nest -- goes into offset tables instead of lane
 *  digits. */
struct Lane
{
    std::size_t expr = 0;
    bool srcSide = true;
    std::int64_t blockStride = 0;
};

/** Largest offset table a copy may carry, in entries. */
constexpr std::int64_t kMaxTableEntries = std::int64_t{1} << 16;

/**
 * The copy for `nest`, whose expressions are the source offset, the
 * destination offset, then the packed coordinate of each lane (at
 * most one per side).  The loops a lane coordinate depends on
 * collapse into one loop, at the innermost one's position, whose
 * tables enumerate their combined index space; two lanes sharing a
 * loop share one collapsed loop.  nullopt when a table would exceed
 * kMaxTableEntries.
 */
std::optional<StridedCopy>
buildCopy(const index::LoopNest &nest, const std::vector<Lane> &lanes)
{
    const std::size_t n = nest.loops.size();
    StridedCopy cp;
    cp.srcBase = nest.base[0];
    cp.dstBase = nest.base[1];
    cp.loops.reserve(n);

    // group[i]: the lane group loop i collapses into (-1: none), named
    // by the first lane that claimed it.
    std::vector<int> group(n, -1);
    std::vector<int> laneGroup(lanes.size(), -1);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        const std::size_t e = lanes[k].expr;
        int g = static_cast<int>(k);
        for (std::size_t i = 0; i < n; ++i)
            if (nest.loops[i].coef[e] != 0 && group[i] >= 0)
                g = group[i]; // join the other side's group
        for (std::size_t i = 0; i < n; ++i) {
            if (nest.loops[i].coef[e] != 0) {
                group[i] = g;
                laneGroup[k] = g;
            }
        }
        if (laneGroup[k] < 0) // constant coordinate
            (lanes[k].srcSide ? cp.srcBase : cp.dstBase) +=
                laneOffset(nest.base[e], lanes[k].blockStride);
    }

    for (std::size_t i = 0; i < n; ++i) {
        const index::LoopNest::Loop &l = nest.loops[i];
        const int g = group[i];
        if (g < 0) {
            cp.loops.push_back({l.extent, l.coef[0], l.coef[1], {}, {}});
            continue;
        }
        if (std::find(group.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      group.end(), g) != group.end())
            continue; // the group's innermost loop carries it
        std::vector<std::size_t> members;
        std::int64_t extent = 1;
        for (std::size_t m = 0; m <= i; ++m) {
            if (group[m] == g) {
                members.push_back(m);
                extent *= nest.loops[m].extent;
            }
        }
        if (extent > kMaxTableEntries)
            return std::nullopt;
        CopyLoop loop;
        loop.extent = extent;
        for (std::int64_t q = 0; q < extent; ++q) {
            // Decode q into the members' indices (last member fastest)
            // and sum each side's offset, lanes included.
            std::int64_t rest = q;
            std::int64_t off[2] = {0, 0};
            std::int64_t coord[2] = {0, 0};
            for (std::size_t mi = members.size(); mi-- > 0;) {
                const index::LoopNest::Loop &ml = nest.loops[members[mi]];
                const std::int64_t j = rest % ml.extent;
                rest /= ml.extent;
                off[0] += j * ml.coef[0];
                off[1] += j * ml.coef[1];
                for (std::size_t k = 0; k < lanes.size(); ++k)
                    coord[k] += j * ml.coef[lanes[k].expr];
            }
            for (std::size_t k = 0; k < lanes.size(); ++k) {
                if (laneGroup[k] == g)
                    off[lanes[k].srcSide ? 0 : 1] += laneOffset(
                        nest.base[lanes[k].expr] + coord[k],
                        lanes[k].blockStride);
            }
            loop.srcTable.push_back(off[0]);
            loop.dstTable.push_back(off[1]);
        }
        cp.loops.push_back(std::move(loop));
    }
    return cp;
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

/** The per-element fallback for maps that do not lower. */
void
interpretMapped(const index::IndexMap &map, const float *src,
                const Layout &srcL, const Shape &srcShape, float *dst,
                const ParallelRunner &par)
{
    const Shape &os = map.outputShape();
    const auto sstr = srcL.strides(srcShape);
    const int spack = srcL.packedDim();
    const index::CompiledExprs exprs =
        index::CompiledExprs::compile(map.exprs());
    const int in_rank = srcShape.rank();
    const int out_rank = os.rank();
    par.run(os.numElements(), 1024,
            [&](std::int64_t i0, std::int64_t i1) {
        std::vector<std::int64_t> coord = ir::delinearize(i0, os);
        std::vector<std::int64_t> stack(exprs.stackDepth());
        for (std::int64_t i = i0; i < i1; ++i) {
            std::int64_t off = 0;
            for (int d = 0; d < in_rank; ++d) {
                const std::int64_t c = exprs.eval(d, coord, stack);
                const std::int64_t s = sstr[static_cast<std::size_t>(d)];
                off += d == spack ? laneOffset(c, s) : c * s;
            }
            dst[i] = src[off];
            for (int d = out_rank - 1; d >= 0; --d) {
                const auto di = static_cast<std::size_t>(d);
                if (++coord[di] < os.dim(d))
                    break;
                coord[di] = 0;
            }
        }
    });
}

} // namespace

std::optional<StridedCopy>
planStridedCopy(const index::IndexMap &map, const Layout &srcL,
                const Shape &srcShape, const Layout &dstL)
{
    const Shape &os = map.outputShape();
    // Lowered expressions: the source coordinates, the destination
    // coordinates (the output variables), then each multi-group
    // packed dim's (c / 4, c % 4) pair.
    std::vector<Expr> coords = map.exprs();
    Side src = sideOf(srcL, srcShape, 0);
    Side dst = sideOf(dstL, os, coords.size());
    for (int d = 0; d < os.rank(); ++d)
        coords.push_back(index::makeVar(d));
    // First try splitting packed dims into lane digits; if that fails,
    // retry with their coordinates in offset tables.
    for (const bool tables : {false, true}) {
        if (tables && src.packed < 0 && dst.packed < 0)
            break; // no packed dim a table could help with
        std::vector<Expr> exprs = coords;
        for (Side *sd : {&src, &dst}) {
            if (tables || sd->packed < 0)
                continue;
            const Expr &c = coords[sd->first +
                                   static_cast<std::size_t>(sd->packed)];
            sd->split = exprs.size();
            exprs.push_back(index::makeDiv(c, 4));
            exprs.push_back(index::makeMod(c, 4));
        }
        const std::optional<index::LoopNest> nest =
            index::lowerToLoopNest(exprs, os);
        if (!nest)
            continue;
        // Compose with the layouts: expressions 0 and 1 become the
        // source and destination offsets, then one per tabled lane.
        std::vector<Lane> lanes;
        std::vector<std::size_t> laneCoord;
        for (const Side *sd : {&src, &dst}) {
            if (!tables || sd->packed < 0)
                continue;
            const auto p = static_cast<std::size_t>(sd->packed);
            lanes.push_back({2 + lanes.size(), sd == &src, sd->stride[p]});
            laneCoord.push_back(sd->first + p);
        }
        auto compose = [&](const std::vector<std::int64_t> &v) {
            std::vector<std::int64_t> out{sideOffset(src, v, tables),
                                          sideOffset(dst, v, tables)};
            for (std::size_t c : laneCoord)
                out.push_back(v[c]);
            return out;
        };
        index::LoopNest offsets;
        offsets.base = compose(nest->base);
        offsets.loops.reserve(nest->loops.size());
        for (const index::LoopNest::Loop &l : nest->loops)
            offsets.loops.push_back({l.extent, compose(l.coef)});
        std::optional<StridedCopy> cp = buildCopy(offsets, lanes);
        if (!cp)
            continue;
        mergeLoops(*cp);
        return cp;
    }
    return std::nullopt;
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

bool
materializeMapped(const index::IndexMap &map, const float *src,
                  const Layout &srcL, const Shape &srcShape, float *dst,
                  const ParallelRunner &par)
{
    const std::optional<StridedCopy> cp = planStridedCopy(
        map, srcL, srcShape, Layout::rowMajor(map.outputShape().rank()));
    if (!cp) {
        interpretMapped(map, src, srcL, srcShape, dst, par);
        return false;
    }
    runStridedCopy(*cp, src, dst, par);
    return true;
}

void
relayoutCopy(const Shape &shape, const float *src, const Layout &srcL,
             float *dst, const Layout &dstL, const ParallelRunner &par)
{
    if (srcL == dstL) { // same storage order: nothing to plan
        std::memcpy(dst, src,
                    static_cast<std::size_t>(srcL.storageElements(shape)) *
                        sizeof(float));
        return;
    }
    runStridedCopy(planRelayout(shape, srcL, dstL), src, dst, par);
}

} // namespace smartmem::exec
