/**
 * @file
 * The cpu-blocked backend's data-movement engine: every gather
 * through a composed IndexMap and every layout pack/unpack runs as one
 * loop nest of strided copies.
 *
 * planStridedCopy() composes a map with the physical strides of the
 * source and destination Layouts: it lowers the map's coordinates, the
 * output coordinates and each multi-group vec4-packed coordinate's
 * (c / 4, c % 4) pair with index::lowerToLoopNest(), then turns every
 * loop's per-expression contributions into one offset contribution
 * per side.  The lowering is total, so every map plans.  Affine loops
 * become strides; a table loop (a Lookup from a Gather, a divisor
 * chain that does not nest, a ragged packed extent or a slice offset
 * that straddles lanes) keeps a per-index offset table per side, with
 * one entry per combination of the digits it collapses -- at worst one
 * per output element.  Adjacent loops that walk both sides
 * contiguously are merged, so reshapes and row-major runs become
 * memcpy calls.  planRelayout() builds the identity map's nest
 * directly, since every pack and unpack at a kernel boundary needs
 * one.
 *
 * runStridedCopy() partitions the loop nest's rows (every loop but
 * the innermost) statically over a ParallelRunner.  Each element is
 * written by exactly one worker and nothing is computed, so output is
 * byte-identical at any thread count.
 */
#ifndef SMARTMEM_EXEC_STRIDED_COPY_H
#define SMARTMEM_EXEC_STRIDED_COPY_H

#include <cstdint>
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
 * coordinate c from map.apply(c).
 */
StridedCopy planStridedCopy(const index::IndexMap &map,
                            const ir::Layout &srcL,
                            const ir::Shape &srcShape,
                            const ir::Layout &dstL);

/** planStridedCopy() calls this process has made (all threads): a
 *  prepared plan's runs must not add to it. */
std::int64_t stridedCopiesPlanned();

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

} // namespace smartmem::exec

#endif // SMARTMEM_EXEC_STRIDED_COPY_H
