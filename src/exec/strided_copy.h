/**
 * @file
 * The cpu-blocked backend's data-movement engine: every gather
 * through a composed IndexMap and every layout pack/unpack runs as one
 * affine loop nest of strided copies.
 *
 * planStridedCopy() composes a map with the physical strides of the
 * source and destination Layouts into one offset expression per side
 * and lowers both with index::lowerToLoopNest().  A vec4-packed
 * dimension enters as (c / 4) * stride + c % 4, which the lowering
 * turns into an extra (c / 4, c % 4) digit.  When that split is
 * impossible (a ragged packed extent, a slice offset that straddles
 * lanes) the packed coordinate's single loop carries a per-index
 * offset table instead, sized by the extents of the loops it depends
 * on.  Adjacent loops that walk both sides contiguously are merged, so
 * reshapes and row-major runs become memcpy calls.  planRelayout()
 * builds the identity map's nest directly, since every pack and unpack
 * at a kernel boundary needs one.
 *
 * runStridedCopy() partitions the loop nest's rows (every loop but
 * the innermost) statically over a ParallelRunner.  Each element is
 * written by exactly one worker and nothing is computed, so output is
 * byte-identical at any thread count.
 *
 * Maps that do not lower (Lookup from a Gather, divisor chains that do
 * not nest) run through the per-element index::CompiledExprs
 * interpreter instead; materializeMapped() reports which path ran.
 */
#ifndef SMARTMEM_EXEC_STRIDED_COPY_H
#define SMARTMEM_EXEC_STRIDED_COPY_H

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/layout.h"
#include "ir/shape.h"

namespace smartmem::index {
class IndexMap;
}

namespace smartmem::exec {

class ParallelRunner;

/** One loop of a strided copy.  Index j contributes srcTable[j] to
 *  the source offset when the table is non-empty, else
 *  j * srcStride; the destination likewise. */
struct CopyLoop
{
    std::int64_t extent = 1;
    std::int64_t srcStride = 0;
    std::int64_t dstStride = 0;
    std::vector<std::int64_t> srcTable;
    std::vector<std::int64_t> dstTable;
};

/** dst[dstBase + sum of dst contributions] =
 *  src[srcBase + sum of src contributions] over every loop index. */
struct StridedCopy
{
    std::vector<CopyLoop> loops; ///< outermost first
    std::int64_t srcBase = 0;
    std::int64_t dstBase = 0;
};

/**
 * Plan the copy of map.outputShape() elements, stored in `dstL`, from
 * a source of shape `srcShape` stored in `srcL`, reading element
 * coordinate c from map.apply(c).  nullopt when the map (composed with
 * the layouts) does not lower to a loop nest.
 */
std::optional<StridedCopy> planStridedCopy(const index::IndexMap &map,
                                           const ir::Layout &srcL,
                                           const ir::Shape &srcShape,
                                           const ir::Layout &dstL);

/** The copy of a `shape` tensor from `srcL` to `dstL` storage: the
 *  identity map's plan, built directly (every layout pair plans). */
StridedCopy planRelayout(const ir::Shape &shape, const ir::Layout &srcL,
                         const ir::Layout &dstL);

/** The copy that broadcasts a row-major `shape` tensor to row-major
 *  `outShape` (numpy rules): broadcast dims read at source stride 0. */
StridedCopy planBroadcast(const ir::Shape &shape,
                          const ir::Shape &outShape);

/** Execute a planned copy, parallel over the nest's rows. */
void runStridedCopy(const StridedCopy &copy, const float *src,
                    float *dst, const ParallelRunner &par);

/**
 * dst (row-major map.outputShape()) = src (srcShape stored in `srcL`)
 * read through `map`: reproduces an eliminated transformation chain in
 * one pass.  Returns false when the map did not lower and the
 * per-element interpreter ran instead (same result, slower).
 */
bool materializeMapped(const index::IndexMap &map, const float *src,
                       const ir::Layout &srcL, const ir::Shape &srcShape,
                       float *dst, const ParallelRunner &par);

/** Copy a `shape` tensor between two physical layouts: a memcpy when
 *  they are equal, else planRelayout() through the same engine. */
void relayoutCopy(const ir::Shape &shape, const float *src,
                  const ir::Layout &srcL, float *dst,
                  const ir::Layout &dstL, const ParallelRunner &par);

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_STRIDED_COPY_H
